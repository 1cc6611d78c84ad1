package epc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dlte/internal/auth"
	"dlte/internal/nas"
	"dlte/internal/s1ap"
	"dlte/internal/session"
	"dlte/internal/simnet"
	"dlte/internal/wire"
)

// S1APPort is where cores listen for eNodeB associations.
const S1APPort = 36412

// Config shapes a Core deployment.
type Config struct {
	// Name identifies the core (MME name in S1 setup).
	Name string
	// SNID is the serving-network identity bound into KASME.
	SNID string
	// TAC is the served tracking area.
	TAC uint16
	// DirectBreakout marks dLTE semantics in AttachAccept: traffic
	// exits at this core's host (which, for a stub, is the AP itself).
	DirectBreakout bool
	// OpenHSS makes the subscriber store accept published keys — the
	// dLTE open-core property.
	OpenHSS bool
	// ProcessingDelay models the core's per-signaling-message service
	// time; with one logical signaling processor this caps the core at
	// 1/ProcessingDelay messages per second, which is what saturates a
	// shared centralized EPC in experiment E3. Zero disables.
	ProcessingDelay time.Duration
	// SignalingProcessors models how many signaling messages the core
	// services in parallel when ProcessingDelay is set — the sharded-
	// MME experimental knob (an M/D/k queue in virtual time). 0 or 1
	// is the single processor of a classic MME.
	SignalingProcessors int
	// RequireENBAuthorization closes the core to organic expansion:
	// only eNodeB IDs registered via AuthorizeENB may associate — the
	// telecom/private-LTE property the paper contrasts with dLTE's
	// open registry (§2.1, Table 1).
	RequireENBAuthorization bool
}

// Stats are the core's cumulative signaling counters.
type Stats struct {
	// SignalingMessages counts S1AP messages processed.
	SignalingMessages uint64
	// Attaches counts completed registrations.
	Attaches uint64
	// Rejects counts refused or failed registrations.
	Rejects uint64
	// Detaches counts completed detaches.
	Detaches uint64
	// UserPlaneDrops aggregates the gateway's and GTP endpoint's
	// per-packet drop counters, so a run's silent-discard budget is
	// visible next to its signaling totals.
	UserPlaneDrops UserPlaneDrops
}

// UserPlaneDrops breaks down user-plane packet drops by cause.
type UserPlaneDrops struct {
	// Malformed counts packets failing GTP decode or user-packet
	// framing (including unparseable NAT remotes).
	Malformed uint64
	// UnknownTEID counts well-formed G-PDUs with no live tunnel.
	UnknownTEID uint64
	// UnboundDownlink counts Internet return traffic arriving before
	// the downlink path was bound.
	UnboundDownlink uint64
	// OversizeDownlink counts Internet return traffic whose source
	// endpoint name does not fit the user-packet framing.
	OversizeDownlink uint64
}

// Total sums all drop causes.
func (d UserPlaneDrops) Total() uint64 {
	return d.Malformed + d.UnknownTEID + d.UnboundDownlink + d.OversizeDownlink
}

// Core is an EPC control+user plane: HSS, MME, and gateway. Deploy one
// per AP for dLTE stubs, or one shared instance for the centralized
// baseline.
//
// Per-UE state lives in one session table behind one capacity-1
// serving gate: at most one per-UE signaling message is in flight, so
// session fields other than the FSM and IMSI are single-writer. mu
// guards the table and the identity allocators, which release and
// handover paths read from other goroutines.
type Core struct {
	cfg  Config
	host *simnet.Host
	hss  *auth.SubscriberDB
	gw   *Gateway

	serving detGate // one per-UE signaling message at a time
	proc    detGate // the modeled signaling processor(s)

	mu         sync.Mutex
	allowedENB map[uint32]bool
	nextMME    uint32
	nextGUTI   uint64
	gutis      map[uint64]string     // GUTI → IMSI
	byIMSI     map[string]*ueSession // current session per registered IMSI

	sigMsgs  atomic.Uint64
	attaches atomic.Uint64
	rejects  atomic.Uint64
	detaches atomic.Uint64
}

// NewCore creates a core whose gateway lives on host.
func NewCore(host *simnet.Host, cfg Config) (*Core, error) {
	if cfg.Name == "" {
		cfg.Name = "core-" + host.Name()
	}
	if cfg.SNID == "" {
		cfg.SNID = cfg.Name
	}
	gw, err := NewGateway(host)
	if err != nil {
		return nil, err
	}
	hss := auth.NewSubscriberDB(cfg.OpenHSS)
	// SQN freshness must follow the simulation's clock, not the wall
	// clock: two cores challenging the same roaming SIM within one
	// *real* millisecond would otherwise race into AUTS resync.
	hss.Now = host.Clock().Now
	c := &Core{
		cfg:        cfg,
		host:       host,
		hss:        hss,
		gw:         gw,
		allowedENB: make(map[uint32]bool),
		nextGUTI:   0x100,
		gutis:      make(map[uint64]string),
		byIMSI:     make(map[string]*ueSession),
	}
	c.proc.init(host, cfg.SignalingProcessors)
	c.serving.init(host, 1)
	return c, nil
}

// HSS exposes the subscriber store for provisioning.
func (c *Core) HSS() *auth.SubscriberDB { return c.hss }

// Gateway exposes the user-plane gateway.
func (c *Core) Gateway() *Gateway { return c.gw }

// Host reports the core's host name.
func (c *Core) Host() string { return c.host.Name() }

// Provision adds a subscriber to the HSS.
func (c *Core) Provision(sim auth.SIM) error { return c.hss.Provision(sim) }

// errENBRefused aborts an unauthorized eNodeB association.
var errENBRefused = errors.New("epc: eNodeB not authorized")

// AuthorizeENB admits an eNodeB ID to a closed core (the operator's
// manual provisioning step dLTE eliminates).
func (c *Core) AuthorizeENB(id uint32) {
	c.mu.Lock()
	c.allowedENB[id] = true
	c.mu.Unlock()
}

// ImportPublishedKey admits an open-SIM publication (dLTE mode only;
// a closed core refuses, reproducing the paper's §2.1 moat).
func (c *Core) ImportPublishedKey(p auth.KeyPublication) error {
	return c.hss.ImportPublished(p.SIM())
}

// CompleteHandover finishes the source side of an X2 handover: the UE
// landed at a peer AP, so the local lifecycle ends (Attached →
// Detached via EvHandoverComplete) and its gateway session is torn
// down. Idempotent: a duplicate or late complete finds no session and
// only re-deletes the (already gone) user-plane state. A session still
// mid-attach falls back to EvRelease inside releaseSession, so a
// complete racing an attach can never strand the session. Handover
// bookkeeping (who prepared what, in-flight state) lives in
// internal/mobility, not here.
func (c *Core) CompleteHandover(imsi string) error {
	c.mu.Lock()
	s := c.byIMSI[imsi]
	c.mu.Unlock()
	if s == nil {
		// No live control-plane session (it may already have been
		// released); make sure the user plane is gone regardless.
		c.gw.DeleteSession(imsi)
		return nil
	}
	_, err := s.nasSession.FSM().Fire(session.EvHandoverComplete)
	c.releaseSession(s)
	return err
}

// Stats snapshots the signaling counters.
func (c *Core) Stats() Stats {
	gd := c.gw.Drops()
	td := c.gw.TunnelDrops()
	return Stats{
		SignalingMessages: c.sigMsgs.Load(),
		Attaches:          c.attaches.Load(),
		Rejects:           c.rejects.Load(),
		Detaches:          c.detaches.Load(),
		UserPlaneDrops: UserPlaneDrops{
			Malformed:        uint64(td.Malformed.Value() + gd.MalformedUser.Value() + gd.BadRemote.Value()),
			UnknownTEID:      uint64(td.UnknownTEID.Value()),
			UnboundDownlink:  uint64(gd.UnboundDownlink.Value()),
			OversizeDownlink: uint64(gd.OversizeDownlink.Value()),
		},
	}
}

// ServeS1AP serves eNodeB associations arriving on l: each accepted
// connection becomes an enbConn whose S1AP is served from the conn's
// delivery handler. It only installs the accept handler and returns;
// closing l stops new associations.
func (c *Core) ServeS1AP(l *simnet.Listener) { l.OnAccept(c.serveENB) }

// ueSession is the EPC's handle on one UE. Lifecycle state lives in
// the NAS session's FSM; everything here but imsi is written only
// under the core's serving gate. imsi (and the core's byIMSI entry)
// is guarded by Core.mu because release and handover paths read it
// from other goroutines.
type ueSession struct {
	nasSession *nas.NetworkSession
	enbUEID    uint32
	mmeUEID    uint32
	imsi       string
	uplinkTEID uint32
	icsSent    bool
}

// enbConn is one eNodeB association, served run-to-completion from the
// conn's delivery handler (it is the conn's simnet.StreamHandler): no
// goroutine per association, nothing parks. Every field is touched
// only on the network's delivery thread.
//
// Messages on one association are inherently serial, and the
// association keeps exactly one in flight: a frame that arrives while
// its predecessor is still waiting on a gate or its ProcessingDelay
// queues here, and is stamped with its gate-arrival instant only when
// the predecessor has been fully served. That is why same-instant
// arrivals on one association complete gateEpsilon apart.
//
// A message's life: start (decode, count) → the signaling-processor
// gate and its ProcessingDelay, when one is modeled → route (find the
// session) → the serving gate → serve → done, which starts the next
// queued frame at that same instant.
type enbConn struct {
	c        *Core
	sc       *simnet.Conn
	conn     *s1ap.Conn
	connID   string                // admission-order actor ID: the eNB's address
	asm      wire.FrameAssembler   // reassembles the S1AP stream
	sessions map[uint32]*ueSession // ENBUEID → session

	q       [][]byte // pooled copies of frames awaiting their turn, FIFO from head
	head    int
	busy    bool // a message is in flight
	pumping bool // pump is on the stack; done folds into its loop
	dead    bool // the eNB side closed; tear down once drained

	// The in-flight message: its pooled frame, the view decoded in
	// place, and the session route resolved.
	frame []byte
	v     s1ap.MsgView
	cur   *ueSession

	// delay completes the in-flight message's ProcessingDelay; nil when
	// the core models none. The gate continuations are method values
	// bound once, so entering a gate allocates nothing.
	delay           *simnet.Continuation
	procAdmitted    func()
	servingAdmitted func()
}

// serveENB is the S1AP accept handler: it binds a new association to
// its conn's delivery events.
func (c *Core) serveENB(sc *simnet.Conn) {
	ec := &enbConn{
		c:        c,
		sc:       sc,
		conn:     s1ap.NewConn(sc),
		connID:   sc.RemoteAddr().String(),
		sessions: make(map[uint32]*ueSession),
	}
	ec.servingAdmitted = ec.serveGated
	if c.cfg.ProcessingDelay > 0 {
		ec.delay = c.host.Network().NewContinuation(ec.processed)
		ec.procAdmitted = ec.process
	}
	sc.OnDeliverHandler(ec)
}

// HandleDeliver implements simnet.StreamHandler: reassemble the chunk,
// queue each completed frame, and serve as far as the gates allow.
func (ec *enbConn) HandleDeliver(data []byte) {
	if ec.dead {
		return
	}
	if ec.asm.Feed(data, ec.push) != nil {
		ec.asm.Reset()
		ec.dead = true // speaking garbage: serve what was framed, then drop
	}
	ec.pump()
}

// HandleStreamClose implements simnet.StreamHandler: the eNodeB closed
// the association. Frames already received are still served first.
func (ec *enbConn) HandleStreamClose() {
	ec.asm.Reset()
	ec.dead = true
	ec.pump()
}

// push queues a pooled copy of frame, which is only valid during the
// delivery: a gated message outlives it by at least gateEpsilon.
func (ec *enbConn) push(frame []byte) error {
	ec.q = append(ec.q, append(wire.GetFrame(), frame...))
	return nil
}

// pump starts queued messages until one is left in flight, and tears
// the association down once it is dead and drained.
func (ec *enbConn) pump() {
	if ec.busy || ec.pumping {
		return
	}
	ec.pumping = true
	for !ec.busy && ec.head < len(ec.q) {
		frame := ec.q[ec.head]
		ec.q[ec.head] = nil
		ec.head++
		if ec.head == len(ec.q) {
			ec.q, ec.head = ec.q[:0], 0
		}
		ec.start(frame)
	}
	ec.pumping = false
	if !ec.busy && ec.dead {
		ec.teardown()
	}
}

// start puts one message in flight at the current instant.
func (ec *enbConn) start(frame []byte) {
	c := ec.c
	ec.busy, ec.frame = true, frame
	if err := s1ap.DecodeView(frame, &ec.v); err != nil {
		ec.done(errENBRefused) // undecodable S1AP: drop the association
		return
	}
	c.sigMsgs.Add(1)
	if ec.delay != nil {
		// The modeled signaling processor(s): up to SignalingProcessors
		// messages at a time, each holding its slot for ProcessingDelay.
		// Under load, arrivals queue — the saturation behaviour of a
		// shared EPC.
		c.proc.enter(ec.connID, ec.procAdmitted)
		return
	}
	ec.dispatch()
}

// process runs once the in-flight message holds a signaling-processor
// slot: it keeps the slot for ProcessingDelay.
func (ec *enbConn) process() { ec.delay.After(ec.c.cfg.ProcessingDelay, 0) }

// processed is the ProcessingDelay completion event.
func (ec *enbConn) processed(uint64) {
	ec.c.proc.release()
	ec.dispatch()
}

// dispatch resolves the in-flight message to its session and enters
// the core's serving gate: one per-UE message at a time, admitted in
// deterministic (virtual arrival time, eNB conn ID) order.
// Association-level messages touch no per-UE state and bypass the gate.
func (ec *enbConn) dispatch() {
	gated, err := ec.c.route(ec)
	if err != nil {
		ec.done(err)
		return
	}
	if !gated {
		ec.done(ec.c.serve(ec))
		return
	}
	ec.c.serving.enter(ec.connID, ec.servingAdmitted)
}

// serveGated runs the in-flight message under the serving gate.
func (ec *enbConn) serveGated() {
	err := ec.c.serve(ec)
	ec.c.serving.release()
	ec.done(err)
}

// done retires the in-flight message and moves on to the next. Per-UE
// errors are isolated; only a refused (or garbage-speaking) eNodeB
// loses the association.
func (ec *enbConn) done(err error) {
	wire.PutFrame(ec.frame)
	ec.frame, ec.cur, ec.busy = nil, nil, false
	if errors.Is(err, errENBRefused) {
		ec.teardown()
		return
	}
	ec.pump()
}

// teardown ends the association: its sessions are released, unserved
// frames recycled, the conn closed. Idempotent.
func (ec *enbConn) teardown() {
	ec.dead = true
	for id, s := range ec.sessions {
		ec.c.releaseSession(s)
		delete(ec.sessions, id)
	}
	for i := ec.head; i < len(ec.q); i++ {
		wire.PutFrame(ec.q[i])
	}
	ec.q, ec.head = nil, 0
	if ec.delay != nil {
		ec.delay.Stop()
	}
	ec.sc.Close()
}

// route resolves the session the in-flight message concerns (ec.cur)
// and reports whether it must be served under the serving gate.
// Ungated: association-level messages, and releases for contexts
// already gone.
func (c *Core) route(ec *enbConn) (gated bool, err error) {
	v := &ec.v
	switch v.Type {
	case s1ap.TypeInitialUEMessage:
		return true, nil

	case s1ap.TypeUplinkNASTransport, s1ap.TypeInitialContextSetupResponse:
		s, ok := ec.sessions[v.ENBUEID]
		if !ok {
			return false, fmt.Errorf("epc: no session for eNB UE %d", v.ENBUEID)
		}
		ec.cur = s
		return true, nil

	case s1ap.TypePathSwitchRequest:
		// Locate the session by MME UE ID across this association.
		for _, cand := range ec.sessions {
			if cand.mmeUEID == v.MMEUEID {
				ec.cur = cand
				return true, nil
			}
		}
		return false, fmt.Errorf("epc: path switch for unknown MME UE %d", v.MMEUEID)

	case s1ap.TypeUEContextReleaseRequest, s1ap.TypeUEContextReleaseComplete:
		if s, ok := ec.sessions[v.ENBUEID]; ok {
			ec.cur = s
			return true, nil
		}
	}
	return false, nil
}

// serve runs the in-flight message — under the serving gate when route
// asked for it. Views in ec.v alias the pooled frame, which stays owned
// by the association until done.
func (c *Core) serve(ec *enbConn) error {
	v, s := &ec.v, ec.cur
	switch v.Type {
	case s1ap.TypeS1SetupRequest:
		if c.cfg.RequireENBAuthorization {
			c.mu.Lock()
			allowed := c.allowedENB[v.ENBID]
			c.mu.Unlock()
			if !allowed {
				// Closed core: the association is refused outright —
				// an unauthorized AP cannot extend this network.
				return errENBRefused
			}
		}
		return ec.conn.Send(&s1ap.MsgView{Type: s1ap.TypeS1SetupResponse, MMEName: []byte(c.cfg.Name), ServedTAC: c.cfg.TAC, SNID: []byte(c.cfg.SNID)})

	case s1ap.TypeInitialUEMessage:
		s = c.newUESession(v.ENBUEID)
		ec.sessions[v.ENBUEID] = s
		return c.feedNAS(ec, s, v.NASPDU)

	case s1ap.TypeUplinkNASTransport:
		return c.feedNAS(ec, s, v.NASPDU)

	case s1ap.TypeInitialContextSetupResponse:
		addr, err := simnet.ParseAddr(string(v.ENBAddr))
		if err != nil {
			return err
		}
		return c.gw.BindDownlink(s.imsi, addr, v.ENBTEID)

	case s1ap.TypePathSwitchRequest:
		if _, err := s.nasSession.FSM().Fire(session.EvPathSwitch); err != nil {
			return err
		}
		addr, err := simnet.ParseAddr(string(v.NewENBAddr))
		if err != nil {
			return err
		}
		if err := c.gw.SwitchPath(s.imsi, addr, v.NewENBTEID); err != nil {
			return err
		}
		return ec.conn.Send(&s1ap.MsgView{Type: s1ap.TypePathSwitchAck, MMEUEID: v.MMEUEID})

	case s1ap.TypeUEContextReleaseRequest:
		// eNB-initiated release (radio loss): end the lifecycle, then
		// complete the standard command/complete exchange.
		if s != nil {
			c.releaseSession(s)
			delete(ec.sessions, v.ENBUEID)
		}
		return ec.conn.Send(&s1ap.MsgView{Type: s1ap.TypeUEContextReleaseCommand, ENBUEID: v.ENBUEID, MMEUEID: v.MMEUEID})

	case s1ap.TypeUEContextReleaseComplete:
		if s != nil {
			c.releaseSession(s)
			delete(ec.sessions, v.ENBUEID)
		}
		return nil

	default:
		return fmt.Errorf("epc: unhandled S1AP %s", v.Type)
	}
}

// newUESession builds a session for a new S1 UE context.
func (c *Core) newUESession(enbUEID uint32) *ueSession {
	c.mu.Lock()
	c.nextMME++
	mmeUEID := c.nextMME
	c.mu.Unlock()

	s := &ueSession{enbUEID: enbUEID, mmeUEID: mmeUEID}
	s.nasSession = nas.NewNetworkSession(nas.NetworkConfig{
		HSS:              c.hss,
		ServingNetworkID: c.cfg.SNID,
		TrackingArea:     c.cfg.TAC,
		DirectBreakout:   c.cfg.DirectBreakout,
		AllocateIP: func(imsi string) (string, error) {
			// The UE passed authentication: it becomes the canonical
			// session for its IMSI (superseding any stale one).
			c.mu.Lock()
			s.imsi = imsi
			c.byIMSI[imsi] = s
			c.mu.Unlock()
			ip, teid, err := c.gw.CreateSession(imsi)
			if err != nil {
				return "", err
			}
			s.uplinkTEID = teid
			return ip, nil
		},
		AllocateGUTI: func() uint64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			c.nextGUTI++
			return uint64(c.cfg.TAC)<<32 | c.nextGUTI
		},
		KnownGUTI: func(g uint64) bool {
			c.mu.Lock()
			defer c.mu.Unlock()
			_, ok := c.gutis[g]
			return ok
		},
	})
	return s
}

// feedNAS pushes an uplink NAS PDU into the session's protocol
// handler (which drives the lifecycle FSM) and relays any reply /
// context-setup downlink. Runs under the serving gate.
//
// The downlink path is single-buffer: the S1AP transport header goes
// into a pooled frame first, the NAS handler appends its reply (NAS
// inner message, sealing envelope and all) directly after it, and the
// patched frame ships as-is — no per-message reply allocations.
func (c *Core) feedNAS(ec *enbConn, s *ueSession, pdu []byte) error {
	frame := wire.GetFrame()
	hdr, mark := s1ap.StartDownlinkNASTransport(frame, s.enbUEID, s.mmeUEID)
	out, ev, nasErr := s.nasSession.HandleAppend(pdu, hdr)

	// Activate the data path as soon as the session reaches Attaching,
	// before the NAS AttachAccept goes out (mirroring real S1AP, where
	// the InitialContextSetupRequest carries the accept): the eNodeB's
	// tunnels are live by the time the UE confirms.
	if !s.icsSent && s.nasSession.State() == session.Attaching && s.uplinkTEID != 0 {
		s.icsSent = true
		if err := ec.conn.Send(&s1ap.MsgView{
			Type:    s1ap.TypeInitialContextSetupRequest,
			ENBUEID: s.enbUEID,
			MMEUEID: s.mmeUEID,
			SGWAddr: []byte(c.gw.GTPAddr()),
			SGWTEID: s.uplinkTEID,
			UEAddr:  []byte(s.nasSession.IP()),
		}); err != nil {
			wire.PutFrame(frame)
			return err
		}
	}

	switch ev.Kind {
	case nas.EventRegistered:
		c.attaches.Add(1)
		c.mu.Lock()
		c.gutis[ev.GUTI] = ev.IMSI
		c.mu.Unlock()
	case nas.EventDetached:
		c.detaches.Add(1)
		// The GUTI is UE-echoed: a garbage one unmaps nothing.
		c.mu.Lock()
		delete(c.gutis, ev.GUTI)
		c.mu.Unlock()
		defer c.releaseSession(s)
	case nas.EventRejected, nas.EventAuthFailed:
		c.rejects.Add(1)
	}

	if len(out) > mark {
		out, ferr := s1ap.FinishNASTransport(out, mark)
		if ferr == nil {
			ferr = ec.conn.SendFrame(out)
		}
		if ferr != nil {
			wire.PutFrame(frame)
			return ferr
		}
	}
	wire.PutFrame(frame)
	// NAS-level failures (bad MAC, replay, illegal lifecycle
	// transitions) are per-UE; surface them without killing the
	// association.
	return nasErr
}

// releaseSession ends a session's lifecycle (EvRelease is legal from
// every state) and tears down its user plane — but only if it is
// still the canonical session for its IMSI: a stale, superseded
// session releasing late must not destroy its successor's gateway
// session.
func (c *Core) releaseSession(s *ueSession) {
	s.nasSession.FSM().Fire(session.EvRelease)
	c.mu.Lock()
	imsi := s.imsi
	owner := imsi != "" && c.byIMSI[imsi] == s
	if owner {
		delete(c.byIMSI, imsi)
	}
	c.mu.Unlock()
	if owner {
		c.gw.DeleteSession(imsi)
	}
}

// Close tears down the gateway (S1AP listeners are owned by callers).
func (c *Core) Close() { c.gw.Close() }
