package simnet

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// Host is a named endpoint in a Network. A host can listen for stream
// connections, dial other hosts, and open packet sockets. Hosts model
// the machines of the dLTE world: access points, the registry, OTT
// servers, a centralized EPC, and user equipment.
type Host struct {
	net  *Network
	name string

	mu        sync.Mutex
	listeners map[int]*Listener
	pktConns  map[int]*PacketConn
	ephemeral int
	closed    bool
}

// Name reports the host's network-unique name (its address).
func (h *Host) Name() string { return h.name }

// Network returns the Network the host belongs to.
func (h *Host) Network() *Network { return h.net }

// Clock returns the clock governing the host's network.
func (h *Host) Clock() Clock { return h.net.clock }

func (h *Host) allocEphemeralLocked() int {
	for {
		h.ephemeral++
		if h.ephemeral > 65535 {
			h.ephemeral = 49152
		}
		p := h.ephemeral
		if _, used := h.listeners[p]; used {
			continue
		}
		if _, used := h.pktConns[p]; used {
			continue
		}
		return p
	}
}

// Listen opens a stream listener on the given port (0 allocates an
// ephemeral port).
func (h *Host) Listen(port int) (*Listener, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	if port == 0 {
		port = h.allocEphemeralLocked()
	}
	if _, used := h.listeners[port]; used {
		return nil, fmt.Errorf("%w: %s:%d", ErrPortInUse, h.name, port)
	}
	l := &Listener{
		host:   h,
		addr:   Addr{Host: h.name, Port: port},
		accept: NewMailbox[*Conn](h.net.clock, acceptBacklog),
		done:   make(chan struct{}),
	}
	l.arrive = h.net.NewContinuation(l.arrived)
	h.listeners[port] = l
	return l, nil
}

// Dial opens a stream connection to addr ("host:port"). The connection
// is usable immediately on the dialer side; the SYN-equivalent delivery
// to the listener incurs one link latency — a dispatcher event, not a
// goroutine — and data queued before the accept is preserved (as with a
// real TCP accept queue).
func (h *Host) Dial(addr string) (net.Conn, error) {
	a, err := ParseAddr(addr)
	if err != nil {
		return nil, err
	}
	h.net.mu.Lock()
	remote, ok := h.net.hosts[a.Host]
	h.net.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoHost, a.Host)
	}
	remote.mu.Lock()
	l, ok := remote.listeners[a.Port]
	remote.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, addr)
	}
	if !h.net.linkUp(h.name, a.Host) {
		return nil, fmt.Errorf("dial %s: %w", addr, ErrLinkDown)
	}

	h.mu.Lock()
	localPort := h.allocEphemeralLocked()
	h.mu.Unlock()

	local := Addr{Host: h.name, Port: localPort}
	cliConn, srvConn := newConnPair(h.net, local, a)
	h.net.addConn(cliConn)
	h.net.addConn(srvConn)

	delay, up := h.net.delayFor(h.name, a.Host, 64, false)
	if !up {
		return nil, fmt.Errorf("dial %s: %w", addr, ErrLinkDown)
	}
	l.schedule(srvConn, delay)
	return cliConn, nil
}

// ListenPacket opens a datagram socket on the given port (0 allocates
// an ephemeral port).
func (h *Host) ListenPacket(port int) (*PacketConn, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	if port == 0 {
		port = h.allocEphemeralLocked()
	}
	if _, used := h.pktConns[port]; used {
		return nil, fmt.Errorf("%w: %s:%d (udp)", ErrPortInUse, h.name, port)
	}
	// The dispatch endpoint is registered on first use; a socket that
	// only sends never pays for it.
	pc := &PacketConn{
		host: h,
		addr: Addr{Host: h.name, Port: port},
		done: make(chan struct{}),
	}
	pc.boxedSrc = pc.addr
	h.pktConns[port] = pc
	return pc, nil
}

// NumPacketConns reports the host's open packet sockets.
func (h *Host) NumPacketConns() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.pktConns)
}

func (h *Host) removeListener(port int) {
	h.mu.Lock()
	delete(h.listeners, port)
	h.mu.Unlock()
}

func (h *Host) removePacketConn(port int) {
	h.mu.Lock()
	delete(h.pktConns, port)
	h.mu.Unlock()
}

func (h *Host) closeAll() {
	h.mu.Lock()
	h.closed = true
	ls := make([]*Listener, 0, len(h.listeners))
	for _, l := range h.listeners {
		ls = append(ls, l)
	}
	ps := make([]*PacketConn, 0, len(h.pktConns))
	for _, p := range h.pktConns {
		ps = append(ps, p)
	}
	h.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	for _, p := range ps {
		p.Close()
	}
}

// acceptBacklog bounds the connections a handler-less listener holds
// for blocking Accept calls; arrivals beyond it are refused.
const acceptBacklog = 64

// Listener accepts stream connections on a host port. A dialed
// connection arrives one link latency after the Dial, as an event on
// the network's delivery thread: with an accept handler installed
// (OnAccept) the handler runs inline at that instant; without one the
// connection waits in the backlog for a blocking Accept.
type Listener struct {
	host   *Host
	addr   Addr
	accept *Mailbox[*Conn] // the backlog a blocking Accept waits on
	arrive *Continuation

	mu       sync.Mutex
	handler  func(*Conn)
	inflight []*Conn  // dialed, not yet arrived; indexed by event arg
	free     []uint64 // recycled inflight slots

	closeOnce sync.Once
	done      chan struct{}
}

// schedule books srv's arrival at the listener delay from now.
func (l *Listener) schedule(srv *Conn, delay time.Duration) {
	l.mu.Lock()
	var slot uint64
	if n := len(l.free); n > 0 {
		slot = l.free[n-1]
		l.free = l.free[:n-1]
		l.inflight[slot] = srv
	} else {
		slot = uint64(len(l.inflight))
		l.inflight = append(l.inflight, srv)
	}
	l.mu.Unlock()
	l.arrive.After(delay, slot)
}

// arrived is the arrival event: hand the connection to the accept
// handler, or queue it for a blocking Accept. A listener that closed
// while the connection was in flight (or whose backlog is full) refuses
// it, which the dialer sees as its conn closing.
func (l *Listener) arrived(slot uint64) {
	l.mu.Lock()
	srv := l.inflight[slot]
	l.inflight[slot] = nil
	l.free = append(l.free, slot)
	h := l.handler
	l.mu.Unlock()
	select {
	case <-l.done:
		srv.Close()
		return
	default:
	}
	if h != nil {
		h(srv)
		return
	}
	if !l.accept.Put(srv) {
		srv.Close()
	}
}

// OnAccept switches the listener to run-to-completion accepts: h runs
// inline on the network's delivery thread for every arriving
// connection, at its arrival instant, in (instant, dial order) order.
// h is a dispatch handler (see Conn.OnDeliver for the contract) and
// typically just registers the conn's own delivery handler.
// Connections already waiting in the backlog are handed to h before
// OnAccept returns; blocking Accept must not be used afterwards.
func (l *Listener) OnAccept(h func(*Conn)) {
	l.mu.Lock()
	l.handler = h
	l.mu.Unlock()
	for {
		c, err := l.accept.Recv(0)
		if err != nil {
			return
		}
		h(c)
	}
}

// Accept waits for the next inbound connection, untimed on the backlog
// mailbox: the blocking shim for listeners without an accept handler.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.accept.Wait()
	if err != nil {
		return nil, ErrClosed
	}
	return c, nil
}

// Clock returns the clock governing the listener's network.
func (l *Listener) Clock() Clock { return l.host.net.clock }

// Addr reports the listening address.
func (l *Listener) Addr() net.Addr { return l.addr }

// Close stops the listener. Established connections are unaffected;
// connections still in flight are refused when they arrive.
func (l *Listener) Close() error {
	l.closeOnce.Do(func() {
		close(l.done)
		l.accept.Close()
		l.host.removeListener(l.addr.Port)
	})
	return nil
}
