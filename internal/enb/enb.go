package enb

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"dlte/internal/gtp"
	"dlte/internal/s1ap"
	"dlte/internal/simnet"
	"dlte/internal/wire"
)

// GTPPort is the eNodeB's GTP-U port (distinct from the gateway's so a
// dLTE stub core can share the AP host).
const GTPPort = 2153

// Config describes one eNodeB.
type Config struct {
	// ID is the eNodeB identity used in S1 setup.
	ID uint32
	// Name labels the eNodeB.
	Name string
	// TAC is the tracking area code it serves.
	TAC uint16
	// MMEAddr is the core's S1AP endpoint ("host:port").
	MMEAddr string
	// AirPort overrides the UE-facing listen port (0 = AirPort).
	AirPort int
}

// ENodeB bridges UEs (air interface) to a core (S1AP) and the user
// plane (GTP-U).
type ENodeB struct {
	cfg  Config
	host *simnet.Host

	s1   *s1ap.Conn
	gtpE *gtp.Endpoint
	airL *simnet.Listener
	sib  []byte // encoded SystemInfo, the first frame of every air conn

	airAddr, gtpAddr string

	mu       sync.Mutex
	nextUEID uint32
	byUEID   map[uint32]*ueCtx
	closed   bool
}

type ueCtx struct {
	enbUEID uint32
	air     *wire.FrameConn
	raw     net.Conn

	// ul is the local TEID whose reverse direction points at the
	// gateway, or 0 before the uplink tunnel is live. It is read on
	// every uplink data packet, so it is atomic rather than behind mu.
	ul atomic.Uint32

	mu       sync.Mutex
	dlTEID   uint32 // eNodeB-local TEID for downlink
	released bool   // core commanded this context's release already

	// rx, set before the context is published, owns the association's
	// idempotent exit path (teardown). The S1 release handler calls it
	// directly: closing our own side of the air conn delivers no close
	// event to ourselves.
	rx *ueRx
}

// New creates an eNodeB on host and connects it to its core: dials
// S1AP, performs S1 setup, opens the GTP-U endpoint, and starts the
// air-interface listener.
func New(host *simnet.Host, cfg Config) (*ENodeB, error) {
	if cfg.AirPort == 0 {
		cfg.AirPort = AirPort
	}
	if cfg.Name == "" {
		cfg.Name = "enb-" + host.Name()
	}
	e := &ENodeB{
		cfg: cfg, host: host, byUEID: make(map[uint32]*ueCtx),
		airAddr: fmt.Sprintf("%s:%d", host.Name(), cfg.AirPort),
		gtpAddr: fmt.Sprintf("%s:%d", host.Name(), GTPPort),
	}

	raw, err := host.Dial(cfg.MMEAddr)
	if err != nil {
		return nil, fmt.Errorf("enb: S1AP dial: %w", err)
	}
	e.s1 = s1ap.NewConn(raw)
	if err := e.s1.Send(&s1ap.MsgView{Type: s1ap.TypeS1SetupRequest, ENBID: cfg.ID, ENBName: []byte(cfg.Name), TAC: cfg.TAC}); err != nil {
		return nil, fmt.Errorf("enb: S1 setup: %w", err)
	}
	var sr s1ap.MsgView
	if err := e.s1.Recv(&sr); err != nil {
		return nil, fmt.Errorf("enb: S1 setup response: %w", err)
	}
	if sr.Type != s1ap.TypeS1SetupResponse {
		return nil, fmt.Errorf("enb: unexpected %s during S1 setup", sr.Type)
	}
	if e.sib, err = EncodeSystemInfo(SystemInfo{SNID: string(sr.SNID), TAC: sr.ServedTAC}); err != nil {
		return nil, fmt.Errorf("enb: system information: %w", err)
	}

	pc, err := host.ListenPacket(GTPPort)
	if err != nil {
		return nil, fmt.Errorf("enb: GTP: %w", err)
	}
	e.gtpE = gtp.NewEndpoint(pc)

	l, err := host.Listen(cfg.AirPort)
	if err != nil {
		e.gtpE.Close()
		return nil, fmt.Errorf("enb: air listen: %w", err)
	}
	e.airL = l

	e.installS1(raw.(*simnet.Conn))
	l.OnAccept(e.serveUE)
	return e, nil
}

// installS1 attaches the run-to-completion downlink S1AP path: frames
// reassemble and dispatch inline on the network dispatcher. A decode
// error stops consumption.
func (e *ENodeB) installS1(sc *simnet.Conn) {
	asm := &wire.FrameAssembler{}
	var v s1ap.MsgView
	dead := false
	sc.OnDeliver(func(data []byte) {
		if dead {
			return
		}
		if err := asm.Feed(data, func(frame []byte) error {
			if derr := s1ap.DecodeView(frame, &v); derr != nil {
				return derr
			}
			e.handleS1(&v)
			return nil
		}); err != nil {
			dead = true
			asm.Reset()
		}
	}, func() {
		asm.Reset()
	})
}

// AirAddr is where UEs attach ("host:port").
func (e *ENodeB) AirAddr() string { return e.airAddr }

// GTPAddr is the eNodeB's GTP-U endpoint.
func (e *ENodeB) GTPAddr() string { return e.gtpAddr }

// NumUEs reports the number of radio-connected UEs.
func (e *ENodeB) NumUEs() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.byUEID)
}

// errAirReleased stops frame consumption after an AirRelease tore the
// association down mid-chunk.
var errAirReleased = errors.New("enb: air released")

// ueRx is one radio association's uplink consumer: the air conn's
// delivery handler. Its fields are only touched by the (serialized)
// delivery path for this conn, plus the idempotent teardown.
type ueRx struct {
	e     *ENodeB
	ctx   *ueCtx
	first bool
	done  atomic.Bool
	// asm reassembles the uplink stream; embedded so an association
	// costs one state allocation (ueRx doubles as the conn's
	// simnet.StreamHandler).
	asm wire.FrameAssembler
}

// HandleDeliver implements simnet.StreamHandler: reassemble the chunk
// and dispatch each completed uplink frame inline.
func (ur *ueRx) HandleDeliver(data []byte) {
	if ur.done.Load() {
		return
	}
	if err := ur.asm.Feed(data, ur.frame); err != nil {
		ur.asm.Reset()
		ur.teardown()
	}
}

// HandleStreamClose implements simnet.StreamHandler: the UE end closed
// the association.
func (ur *ueRx) HandleStreamClose() {
	ur.asm.Reset()
	ur.teardown()
}

// frame consumes one uplink air frame, valid only for the duration of
// the call: every consumer (S1AP send, GTP send) copies synchronously.
func (ur *ueRx) frame(frame []byte) error {
	t, payload, err := DecodeAirView(frame)
	if err != nil {
		return nil // tolerate junk frames
	}
	switch t {
	case AirNASUp:
		// Uplink NAS rides the per-UE hot path of an attach storm, so
		// the S1AP envelope is built in a pooled frame rather than
		// through a per-message heap struct.
		buf := wire.GetFrame()
		var out []byte
		var serr error
		v := s1ap.MsgView{Type: s1ap.TypeUplinkNASTransport, ENBUEID: ur.ctx.enbUEID, NASPDU: payload}
		if ur.first {
			ur.first = false
			v.Type = s1ap.TypeInitialUEMessage
		}
		out, serr = s1ap.Append(buf, &v)
		if serr == nil {
			ur.e.s1.SendFrame(out)
		}
		wire.PutFrame(buf)
	case AirDataUp:
		if teid := ur.ctx.ul.Load(); teid != 0 {
			ur.e.gtpE.Send(teid, payload)
		}
	case AirRelease:
		ur.teardown()
		return errAirReleased
	}
	return nil
}

// teardown is the association's exit path. Idempotent: reachable from
// the air conn's delivery path, its close event, and the S1 release
// handler.
func (ur *ueRx) teardown() {
	if !ur.done.CompareAndSwap(false, true) {
		return
	}
	e, ctx := ur.e, ur.ctx
	ctx.raw.Close()
	e.mu.Lock()
	delete(e.byUEID, ctx.enbUEID)
	closing := e.closed
	e.mu.Unlock()
	ctx.mu.Lock()
	if ctx.dlTEID != 0 {
		e.gtpE.Release(ctx.dlTEID)
	}
	released := ctx.released
	ctx.mu.Unlock()
	if ul := ctx.ul.Load(); ul != 0 {
		e.gtpE.Release(ul)
	}
	// The radio link is gone: unless the core itself commanded the
	// release (or the whole eNodeB is shutting down), report it
	// upstream so the UE's session is evicted instead of lingering
	// until association teardown.
	if !ur.first && !released && !closing {
		e.s1.Send(&s1ap.MsgView{Type: s1ap.TypeUEContextReleaseRequest, ENBUEID: ctx.enbUEID})
	}
}

// serveUE is the air-interface accept handler: it runs inline at the
// instant a UE's connection arrives, registers the radio context,
// broadcasts system information, and binds the conn's uplink to ueRx.
// No goroutine per UE.
func (e *ENodeB) serveUE(sc *simnet.Conn) {
	ctx := &ueCtx{air: wire.NewFrameConn(sc), raw: sc}
	ur := &ueRx{e: e, ctx: ctx, first: true}
	ctx.rx = ur
	e.mu.Lock()
	e.nextUEID++
	ctx.enbUEID = e.nextUEID
	e.byUEID[ctx.enbUEID] = ctx
	e.mu.Unlock()

	// First downlink frame: broadcast system information, so the UE
	// knows the serving network before it attaches.
	e.sendAir(ctx, AirBroadcast, e.sib)
	sc.OnDeliverHandler(ur)
}

// handleS1 runs one decoded downlink S1AP message. The view's slices
// point into the frame under dispatch and every case copies what it
// keeps before returning.
func (e *ENodeB) handleS1(v *s1ap.MsgView) {
	switch v.Type {
	case s1ap.TypeDownlinkNASTransport:
		if ctx := e.lookup(v.ENBUEID); ctx != nil {
			e.sendAir(ctx, AirNASDown, v.NASPDU)
		}
	case s1ap.TypeInitialContextSetupRequest:
		e.setupContext(v)
	case s1ap.TypeUEContextReleaseCommand:
		if ctx := e.lookup(v.ENBUEID); ctx != nil {
			ctx.mu.Lock()
			ctx.released = true
			ctx.mu.Unlock()
			e.sendAir(ctx, AirRelease, nil)
			ctx.raw.Close()
			ctx.rx.teardown()
		}
		e.s1.Send(&s1ap.MsgView{Type: s1ap.TypeUEContextReleaseComplete, ENBUEID: v.ENBUEID, MMEUEID: v.MMEUEID})
	}
}

func (e *ENodeB) lookup(enbUEID uint32) *ueCtx {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.byUEID[enbUEID]
}

func (e *ENodeB) sendAir(ctx *ueCtx, t AirMsgType, payload []byte) {
	// The air frame is assembled in a pooled buffer behind the stream
	// prefix's headroom: the stream layer owns its own copy by the time
	// SendFramed returns, so the scratch recycles. This is the per-packet
	// downlink path (GTP demux → UE air).
	frame, err := AppendAir(wire.GetFramed(), t, payload)
	if err == nil {
		ctx.air.SendFramed(frame)
	}
	wire.PutFrame(frame)
}

// setupContext wires the UE's data path: a downlink TEID delivering to
// the UE's air connection, and an uplink tunnel toward the gateway.
func (e *ENodeB) setupContext(m *s1ap.MsgView) {
	ctx := e.lookup(m.ENBUEID)
	if ctx == nil {
		return
	}
	sgwAddr, err := simnet.ParseAddr(string(m.SGWAddr))
	if err != nil {
		return
	}
	// Downlink: gateway → eNB TEID → UE air connection.
	dlTEID := e.gtpE.AllocateTEID(func(payload []byte, _ net.Addr) {
		e.sendAir(ctx, AirDataDown, payload)
	})
	// Uplink: a local TEID whose reverse direction targets the
	// gateway's session TEID.
	ulTEID := e.gtpE.AllocateTEID(nil)
	if err := e.gtpE.Bind(ulTEID, m.SGWTEID, sgwAddr); err != nil {
		return
	}
	ctx.mu.Lock()
	ctx.dlTEID = dlTEID
	ctx.mu.Unlock()
	ctx.ul.Store(ulTEID)

	e.s1.Send(&s1ap.MsgView{
		Type:    s1ap.TypeInitialContextSetupResponse,
		ENBUEID: m.ENBUEID,
		MMEUEID: m.MMEUEID,
		ENBAddr: []byte(e.GTPAddr()),
		ENBTEID: dlTEID,
	})
}

// Close releases the eNodeB's listeners and endpoints.
func (e *ENodeB) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	ues := make([]*ueCtx, 0, len(e.byUEID))
	for _, u := range e.byUEID {
		ues = append(ues, u)
	}
	e.mu.Unlock()
	for _, u := range ues {
		u.raw.Close()
	}
	e.airL.Close()
	e.gtpE.Close()
}
