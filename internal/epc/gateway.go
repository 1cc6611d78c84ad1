package epc

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"dlte/internal/gtp"
	"dlte/internal/metrics"
	"dlte/internal/simnet"
)

// maxIPIndex bounds the PDN pool to the 10.45.0.0/16 block the
// ipForIndex formula can express: indices 1..63999 map onto
// 10.45.0.2 .. 10.45.255.250.
const maxIPIndex = 63999

// ErrAddressPoolExhausted reports that every PDN address is held by a
// live session. Sessions must be deleted (or superseded) to free one.
var ErrAddressPoolExhausted = errors.New("epc: PDN address pool exhausted")

// ipForIndex maps a pool index to its dotted address.
func ipForIndex(i int) string { return fmt.Sprintf("10.45.%d.%d", i/250, i%250+1) }

// GatewayDrops exposes the gateway's user-plane drop counters. Every
// silent discard on the forwarding path is accounted: drops are rare
// in healthy runs, so a nonzero counter is a diagnosis shortcut.
type GatewayDrops struct {
	// MalformedUser counts uplink G-PDUs whose user-packet framing
	// fails to decode.
	MalformedUser *metrics.Counter
	// BadRemote counts uplink packets whose remote endpoint does not
	// parse as an address.
	BadRemote *metrics.Counter
	// UnboundDownlink counts Internet return traffic arriving before
	// the eNodeB bound the downlink (dropped like a NAT without state).
	UnboundDownlink *metrics.Counter
	// OversizeDownlink counts Internet return traffic the user-packet
	// framing cannot carry (a source endpoint name beyond 255 bytes).
	OversizeDownlink *metrics.Counter
}

// Gateway is the combined S/P-GW: it terminates GTP-U tunnels from
// eNodeBs, holds the PDN address pool, and performs NAT-style breakout
// to the (simulated) Internet — one external datagram socket per UE
// session, so return traffic maps back to the right tunnel.
type Gateway struct {
	host    *simnet.Host
	ep      *gtp.Endpoint
	gtpAddr string

	// nat caches parsed+boxed remote addresses keyed by their wire
	// string, copy-on-write so the uplink path reads without locking
	// (the remote set is the experiment's few servers, so the cache
	// stays tiny and is never evicted). natMu serializes cache misses.
	nat   atomic.Pointer[natCache]
	natMu sync.Mutex

	drops GatewayDrops

	mu       sync.Mutex
	sessions map[string]*gwSession // IMSI → session
	ipFree   []int                 // released pool indices, reused LIFO
	ipNext   int                   // high-water mark of never-used indices
	closed   bool
}

type natCache struct {
	m map[string]net.Addr // value boxed once; lookups return it alloc-free
}

// enbBind is the session's downlink target, published atomically so
// the forwarding loop reads it without a lock. Immutable once stored.
type enbBind struct {
	addr net.Addr
	teid uint32
}

type gwSession struct {
	imsi      string
	ueIP      string
	ipIdx     int
	localTEID uint32
	ext       *simnet.PacketConn
	bind      atomic.Pointer[enbBind]

	// Downlink dispatch-handler state (the source-address memo the old
	// reader loop kept on its stack). Touched only by the handler,
	// which the dispatcher runs serially per socket.
	lastFrom   net.Addr
	lastRemote string
}

// ErrNoSession reports an operation on an unknown subscriber session.
var ErrNoSession = errors.New("epc: no such session")

// GTPPort is where gateways listen for GTP-U.
const GTPPort = gtp.Port

// NewGateway opens the gateway's GTP-U endpoint on its host.
func NewGateway(host *simnet.Host) (*Gateway, error) {
	pc, err := host.ListenPacket(GTPPort)
	if err != nil {
		return nil, fmt.Errorf("epc: gateway: %w", err)
	}
	g := &Gateway{
		host:     host,
		ep:       gtp.NewEndpoint(pc),
		gtpAddr:  fmt.Sprintf("%s:%d", host.Name(), GTPPort),
		sessions: make(map[string]*gwSession),
		drops: GatewayDrops{
			MalformedUser:    &metrics.Counter{},
			BadRemote:        &metrics.Counter{},
			UnboundDownlink:  &metrics.Counter{},
			OversizeDownlink: &metrics.Counter{},
		},
	}
	g.nat.Store(&natCache{m: map[string]net.Addr{}})
	return g, nil
}

// Host reports the gateway's host (its GTP-U address is Host():2152).
func (g *Gateway) Host() string { return g.host.Name() }

// GTPAddr reports the gateway's GTP-U endpoint address string.
func (g *Gateway) GTPAddr() string { return g.gtpAddr }

// Drops exposes the gateway's forwarding drop counters.
func (g *Gateway) Drops() GatewayDrops { return g.drops }

// TunnelDrops exposes the underlying GTP endpoint's demux drop
// counters (malformed G-PDUs, unknown TEIDs).
func (g *Gateway) TunnelDrops() gtp.DropCounters { return g.ep.Drops() }

// allocIP hands out a PDN pool index, preferring released ones so a
// long-lived gateway cycles a bounded address block instead of walking
// off the subnet. Callers hold g.mu.
func (g *Gateway) allocIP() (int, error) {
	if n := len(g.ipFree); n > 0 {
		idx := g.ipFree[n-1]
		g.ipFree = g.ipFree[:n-1]
		return idx, nil
	}
	if g.ipNext >= maxIPIndex {
		return 0, ErrAddressPoolExhausted
	}
	g.ipNext++
	return g.ipNext, nil
}

// releaseIP returns a session's pool index for reuse. Callers hold g.mu.
func (g *Gateway) releaseIP(idx int) { g.ipFree = append(g.ipFree, idx) }

// CreateSession allocates a PDN address and an uplink TEID for imsi.
// The returned TEID is what the eNodeB must stamp on uplink G-PDUs.
// A fresh attach supersedes any existing session for the same
// subscriber (TS 24.301: a new attach implicitly detaches the old
// context) — without this, a client that lost its radio without
// detaching could never come back.
func (g *Gateway) CreateSession(imsi string) (ueIP string, uplinkTEID uint32, err error) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return "", 0, errors.New("epc: gateway closed")
	}
	if old, ok := g.sessions[imsi]; ok {
		delete(g.sessions, imsi)
		g.releaseIP(old.ipIdx)
		g.mu.Unlock()
		g.ep.Release(old.localTEID)
		old.ext.Close()
		g.mu.Lock()
	}
	defer g.mu.Unlock()
	idx, err := g.allocIP()
	if err != nil {
		return "", 0, err
	}

	ext, err := g.host.ListenPacket(0)
	if err != nil {
		g.releaseIP(idx)
		return "", 0, fmt.Errorf("epc: external socket: %w", err)
	}
	s := &gwSession{imsi: imsi, ueIP: ipForIndex(idx), ipIdx: idx, ext: ext}
	s.localTEID = g.ep.AllocateTEID(func(payload []byte, _ net.Addr) {
		g.uplink(s, payload)
	})
	g.sessions[imsi] = s
	// Downlink runs run-to-completion on the network dispatcher: no
	// per-session reader goroutine, nothing to unwind on teardown.
	ext.SetHandler(func(data []byte, from net.Addr) { g.downlink(s, data, from) })
	return s.ueIP, s.localTEID, nil
}

// BindDownlink completes the data path: downlink packets for imsi are
// tunneled to the eNodeB's GTP endpoint enbAddr with enbTEID.
func (g *Gateway) BindDownlink(imsi string, enbAddr net.Addr, enbTEID uint32) error {
	g.mu.Lock()
	s, ok := g.sessions[imsi]
	g.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSession, imsi)
	}
	s.bind.Store(&enbBind{addr: enbAddr, teid: enbTEID})
	// The uplink tunnel's reverse direction targets the eNodeB.
	return g.ep.Bind(s.localTEID, enbTEID, enbAddr)
}

// SwitchPath retargets an existing session's downlink to a new eNodeB
// (the S1 path-switch after an X2 handover in the centralized core).
func (g *Gateway) SwitchPath(imsi string, enbAddr net.Addr, enbTEID uint32) error {
	return g.BindDownlink(imsi, enbAddr, enbTEID)
}

// DeleteSession releases imsi's address, tunnel, and external socket.
func (g *Gateway) DeleteSession(imsi string) error {
	if !g.dropSession(imsi) {
		return fmt.Errorf("%w: %s", ErrNoSession, imsi)
	}
	return nil
}

// dropSession is DeleteSession reporting whether imsi had a session,
// for callers to whom a missing one is not an error.
func (g *Gateway) dropSession(imsi string) bool {
	g.mu.Lock()
	s, ok := g.sessions[imsi]
	if ok {
		delete(g.sessions, imsi)
		g.releaseIP(s.ipIdx)
	}
	g.mu.Unlock()
	if ok {
		g.ep.Release(s.localTEID)
		s.ext.Close()
	}
	return ok
}

// NumSessions reports live session count.
func (g *Gateway) NumSessions() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.sessions)
}

// natDst resolves a wire-form remote endpoint to its boxed address via
// the copy-on-write cache: the steady-state path is one lock-free map
// lookup (keyed by the byte view without conversion cost).
func (g *Gateway) natDst(remote []byte) (net.Addr, bool) {
	if a, ok := g.nat.Load().m[string(remote)]; ok {
		return a, true
	}
	addr, err := simnet.ParseAddr(string(remote))
	if err != nil {
		return nil, false
	}
	g.natMu.Lock()
	old := g.nat.Load().m
	m := make(map[string]net.Addr, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	m[string(remote)] = addr
	g.nat.Store(&natCache{m: m})
	g.natMu.Unlock()
	return addr, true
}

// uplink handles a decapsulated uplink user packet: NAT it out the
// session's external socket toward its Internet peer. payload is a
// view into the GTP receive buffer; the view decode and the socket's
// own interior copy keep the path allocation-free.
func (g *Gateway) uplink(s *gwSession, payload []byte) {
	remote, data, err := DecodeUserPacketView(payload)
	if err != nil {
		g.drops.MalformedUser.Inc()
		return
	}
	addr, ok := g.natDst(remote)
	if !ok {
		g.drops.BadRemote.Inc()
		return
	}
	s.ext.WriteTo(data, addr)
}

// downlink forwards one Internet return packet back through the
// session's tunnel toward the eNodeB. It is the session's dispatch
// handler: data is the dispatcher's pooled delivery buffer, valid only
// for the duration of the call (the user-packet append below consumes
// it before returning). The source-address memo and the pooled
// GTP-headroom build keep steady state allocation-free, as the old
// reader loop did.
func (g *Gateway) downlink(s *gwSession, data []byte, from net.Addr) {
	bind := s.bind.Load()
	if bind == nil {
		g.drops.UnboundDownlink.Inc()
		return
	}
	if from != s.lastFrom {
		s.lastFrom, s.lastRemote = from, from.String()
	}
	buf := gtp.GetBuffer()
	buf, err := AppendUserPacket(buf, s.lastRemote, data)
	if err != nil {
		gtp.PutBuffer(buf)
		g.drops.OversizeDownlink.Inc()
		return
	}
	g.ep.SendBuffer(s.localTEID, buf)
}

// Close tears down all sessions and the GTP endpoint.
func (g *Gateway) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	sessions := make([]*gwSession, 0, len(g.sessions))
	for _, s := range g.sessions {
		sessions = append(sessions, s)
		g.releaseIP(s.ipIdx)
	}
	g.sessions = make(map[string]*gwSession)
	g.mu.Unlock()
	for _, s := range sessions {
		s.ext.Close()
	}
	g.ep.Close()
}
