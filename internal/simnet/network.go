package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Errors returned by Network operations.
var (
	ErrHostExists   = errors.New("simnet: host already exists")
	ErrNoHost       = errors.New("simnet: no such host")
	ErrPortInUse    = errors.New("simnet: port in use")
	ErrConnRefused  = errors.New("simnet: connection refused")
	ErrClosed       = errors.New("simnet: closed")
	ErrLinkDown     = errors.New("simnet: link down")
	ErrDeadline     = errors.New("simnet: deadline exceeded")
	ErrPacketTooBig = errors.New("simnet: packet exceeds MTU")
)

// Link describes one direction of connectivity between two hosts.
type Link struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter) per packet.
	Jitter time.Duration
	// BandwidthBps is the serialization rate in bits/second; 0 means
	// unlimited.
	BandwidthBps float64
	// Loss is the independent per-packet drop probability in [0, 1).
	// Loss applies to packet sends only; stream bytes are reliable
	// (they model TCP over the link).
	Loss float64
	// Down drops everything: packet sends vanish, stream writes fail.
	Down bool
}

// MTU is the maximum datagram size the packet layer accepts, matching a
// typical tunnel-friendly Internet path.
const MTU = 1400

// Network is an in-memory internetwork of named hosts, running on a
// VirtualClock. The zero value is not usable; call NewVirtualNetwork.
type Network struct {
	clock       *VirtualClock
	ownedVC     *VirtualClock // closed with the network when it created the clock
	mu          sync.Mutex
	hosts       map[string]*Host
	links       map[[2]string]*linkState
	conns       map[*Conn]struct{} // live stream conns, closed with the network
	defaultLink Link
	rng         *rand.Rand
	closed      bool

	// disp is the dispatch engine every delivery runs on, created
	// lazily on the first endpoint registration (dispatcherFor).
	disp atomic.Pointer[dispatcher]
}

type linkState struct {
	cfg Link
	// busyUntil models serialization: the time the link's transmitter
	// becomes free. Protected by Network.mu.
	busyUntil time.Time
}

// NewWithClock creates a Network whose links default to the given Link
// parameters, whose randomness is seeded for reproducibility, and whose
// time (link delays, deadlines, delivery instants) is governed by vc.
// Several networks may share one clock; the caller closes it.
func NewWithClock(defaultLink Link, seed int64, vc *VirtualClock) *Network {
	return &Network{
		clock:       vc,
		hosts:       make(map[string]*Host),
		links:       make(map[[2]string]*linkState),
		conns:       make(map[*Conn]struct{}),
		defaultLink: defaultLink,
		rng:         rand.New(rand.NewSource(seed)),
	}
}

// NewVirtualNetwork creates a Network on a fresh VirtualClock owned by
// the network: Close shuts the clock down too. The calling goroutine
// is the clock's registered driver (see NewVirtual).
func NewVirtualNetwork(defaultLink Link, seed int64) *Network {
	vc := NewVirtual()
	n := NewWithClock(defaultLink, seed, vc)
	n.ownedVC = vc
	return n
}

// Clock returns the clock governing this network's time.
func (n *Network) Clock() Clock { return n.clock }

// AddHost creates a host with the given name (its address). Names must
// be unique within the network.
func (n *Network) AddHost(name string) (*Host, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.hosts[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrHostExists, name)
	}
	h := &Host{
		net:       n,
		name:      name,
		listeners: make(map[int]*Listener),
		pktConns:  make(map[int]*PacketConn),
		ephemeral: 49152,
	}
	n.hosts[name] = h
	return h, nil
}

// MustAddHost is AddHost that panics on error; intended for scenario
// construction in tests and examples where names are static.
func (n *Network) MustAddHost(name string) *Host {
	h, err := n.AddHost(name)
	if err != nil {
		panic(err)
	}
	return h
}

// Host returns the named host, if present.
func (n *Network) Host(name string) (*Host, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	h, ok := n.hosts[name]
	return h, ok
}

// SetLink configures both directions between hosts a and b.
func (n *Network) SetLink(a, b string, l Link) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.setLinkLocked(a, b, l)
	n.setLinkLocked(b, a, l)
}

// setLinkLocked reconfigures the src→dst direction and idles its
// transmitter. An existing entry is rewritten in place, never replaced:
// sockets and conns memoize the *linkState they send through, so an
// entry's address is its identity for the network's lifetime.
func (n *Network) setLinkLocked(src, dst string, l Link) {
	ls := n.linkFor(src, dst)
	ls.cfg, ls.busyUntil = l, time.Time{}
}

// SetLinkDown marks both directions between a and b up or down,
// preserving the other link parameters. Used for failure injection.
func (n *Network) SetLinkDown(a, b string, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkFor(a, b).cfg.Down = down
	n.linkFor(b, a).cfg.Down = down
}

// linkFor returns the directional link state from src to dst, creating
// a default entry on first use so busyUntil tracking is stable. Caller
// holds n.mu.
func (n *Network) linkFor(src, dst string) *linkState {
	key := [2]string{src, dst}
	ls, ok := n.links[key]
	if !ok {
		ls = &linkState{cfg: n.defaultLink}
		n.links[key] = ls
	}
	return ls
}

// delayFor computes the delivery delay for size bytes from src to dst
// at the current clock instant, advancing the link's serialization
// state. It returns ok=false when the link is down or the packet is
// randomly lost (lossy true enables random loss).
func (n *Network) delayFor(src, dst string, size int, lossy bool) (time.Duration, bool) {
	return n.delayOn(n.link(src, dst), size, lossy)
}

// link resolves the src→dst link state once, for senders that memoize
// it and then price each packet with delayOn — skipping the two-string
// map hash delayFor pays per call.
func (n *Network) link(src, dst string) *linkState {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.linkFor(src, dst)
}

// delayOn is delayFor on a resolved link.
func (n *Network) delayOn(ls *linkState, size int, lossy bool) (time.Duration, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	cfg := ls.cfg
	if cfg.Down {
		return 0, false
	}
	if lossy && cfg.Loss > 0 && n.rng.Float64() < cfg.Loss {
		return 0, false
	}
	if cfg.BandwidthBps == 0 && ls.busyUntil.IsZero() {
		// Unbounded-capacity link with no queued transmissions: the
		// delay is fully determined without reading the clock, which
		// keeps the per-packet fast path free of time syscalls.
		delay := cfg.Latency
		if cfg.Jitter > 0 {
			delay += time.Duration(n.rng.Int63n(int64(cfg.Jitter)))
		}
		return delay, true
	}
	now := n.clock.Now()
	var txTime time.Duration
	if cfg.BandwidthBps > 0 {
		txTime = time.Duration(float64(size*8) / cfg.BandwidthBps * float64(time.Second))
	}
	start := now
	if ls.busyUntil.After(now) {
		start = ls.busyUntil
	}
	ls.busyUntil = start.Add(txTime)
	delay := start.Add(txTime).Sub(now) + cfg.Latency
	if cfg.Jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(cfg.Jitter)))
	}
	return delay, true
}

// addConn registers a live stream conn so Close can tear it down:
// readers parked on an orphaned conn would otherwise outlive the
// network (and its clock) forever.
func (n *Network) addConn(c *Conn) {
	n.mu.Lock()
	n.conns[c] = struct{}{}
	n.mu.Unlock()
}

// dropConn removes a conn closed by its owner.
func (n *Network) dropConn(c *Conn) {
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
}

// linkUp reports whether the src→dst direction is currently up.
func (n *Network) linkUp(src, dst string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return !n.linkFor(src, dst).cfg.Down
}

// Close tears down the network: all listeners, conns, and packet conns
// are closed.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	hosts := make([]*Host, 0, len(n.hosts))
	for _, h := range n.hosts {
		hosts = append(hosts, h)
	}
	conns := make([]*Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	for _, h := range hosts {
		h.closeAll()
	}
	for _, c := range conns {
		c.closeTeardown()
	}
	if n.ownedVC != nil {
		n.ownedVC.Close()
	}
}

// Addr is the net.Addr implementation for simnet endpoints.
type Addr struct {
	Host string
	Port int
}

// Network implements net.Addr.
func (a Addr) Network() string { return "sim" }

// String implements net.Addr, rendering "host:port". Assembled in a
// stack buffer so the only allocation is the returned string (host
// names beyond the buffer spill to the heap).
func (a Addr) String() string {
	buf := make([]byte, 0, 64)
	buf = append(buf, a.Host...)
	buf = append(buf, ':')
	return string(strconv.AppendInt(buf, int64(a.Port), 10))
}

// ParseAddr splits "host:port". The host part may itself contain no
// colons (simnet host names are flat identifiers). The port must be a
// bare decimal integer in [0, 65535]; trailing garbage is rejected.
func ParseAddr(s string) (Addr, error) {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == ':' {
			portStr := s[i+1:]
			if portStr == "" {
				return Addr{}, fmt.Errorf("simnet: bad address %q: empty port", s)
			}
			for _, c := range portStr {
				// Digits only: Atoi alone would admit signs ("+80").
				if c < '0' || c > '9' {
					return Addr{}, fmt.Errorf("simnet: bad address %q: invalid port %q", s, portStr)
				}
			}
			port, err := strconv.Atoi(portStr)
			if err != nil || port > 65535 {
				return Addr{}, fmt.Errorf("simnet: bad address %q: port %q out of range", s, portStr)
			}
			return Addr{Host: s[:i], Port: port}, nil
		}
	}
	return Addr{}, fmt.Errorf("simnet: bad address %q: missing port", s)
}
