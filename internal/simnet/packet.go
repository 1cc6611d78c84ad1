package simnet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// PacketConn is a simnet datagram socket. It implements the
// net.PacketConn read/write surface used by the GTP-U and mobility
// transport layers: unreliable, unordered-within-jitter, loss- and
// latency-afflicted delivery.
//
// Like a stream halfPipe, a socket receives every datagram as a
// delivery event on its dispatch endpoint, registered at the first
// datagram, ReadFrom or SetHandler: a handler runs inline, or, on a
// reader endpoint, the datagram waits in the endpoint's mailbox for
// ReadFrom. Both paths drop beyond inboxDepth, modeling kernel
// receive-buffer loss.
type PacketConn struct {
	host     *Host
	addr     Addr
	boxedSrc net.Addr // addr boxed once, stamped on outgoing datagrams

	// dc is the receiver's dispatch endpoint. Written under imu, with
	// its handler; read lock-free on the send fast path.
	imu sync.Mutex
	dc  atomic.Pointer[dconn]

	// lastDst memoizes the most recent resolved destination — the
	// socket and the link toward its host — so a socket streaming to one
	// peer (the common user-plane shape) skips three mutex-guarded map
	// lookups per packet. Invalidated by comparing the address and
	// checking the target's done channel; link entries never move.
	lastDst atomic.Pointer[pktDst]

	readDeadline deadline
	closeOnce    sync.Once
	done         chan struct{}
}

// pktDst is one memoized destination resolution.
type pktDst struct {
	a    Addr
	dst  *PacketConn
	link *linkState
}

// resolveDst finds the destination socket and link for a, consulting
// the memo first. nil means the packet black-holes (unknown host or
// unbound port), matching UDP.
func (p *PacketConn) resolveDst(a Addr) *pktDst {
	if m := p.lastDst.Load(); m != nil && m.a == a {
		select {
		case <-m.dst.done:
			// Socket since closed; fall through and re-resolve (the
			// port may have been rebound).
		default:
			return m
		}
	}
	p.host.net.mu.Lock()
	remote, ok := p.host.net.hosts[a.Host]
	p.host.net.mu.Unlock()
	if !ok {
		return nil
	}
	remote.mu.Lock()
	dst, ok := remote.pktConns[a.Port]
	remote.mu.Unlock()
	if !ok {
		return nil
	}
	m := &pktDst{a: a, dst: dst, link: p.host.net.link(p.host.name, a.Host)}
	p.lastDst.Store(m)
	return m
}

// LocalAddr reports the socket's bound address.
func (p *PacketConn) LocalAddr() net.Addr { return p.addr }

// SetHandler switches the socket to run-to-completion dispatch: h runs
// inline on the network's dispatcher for every delivered datagram, in
// delivery order, at the delivery instant. The buffer is owned by the
// dispatcher and valid only for the duration of the call. Datagrams
// delivered but not yet read reach h first, at the current instant;
// those in flight keep their instants. The same handler contract as
// Conn.OnDeliver applies: install at most once, no clock waits inside
// h, and wakes only through a simnet write or a Mailbox.Put.
func (p *PacketConn) SetHandler(h func(data []byte, from net.Addr)) {
	d := p.host.net.dispatcherFor()
	p.imu.Lock()
	dc := p.dc.Load()
	if dc == nil {
		dc = d.register()
		dc.bounded = true
	}
	d.install(dc, handlers{onPacket: h}, nil)
	p.dc.Store(dc)
	p.imu.Unlock()
}

// endpoint returns the socket's dispatch endpoint, registering a
// reader endpoint if there is none yet — closed if the socket is.
func (p *PacketConn) endpoint() *dconn {
	if dc := p.dc.Load(); dc != nil {
		return dc
	}
	p.imu.Lock()
	defer p.imu.Unlock()
	if dc := p.dc.Load(); dc != nil {
		return dc
	}
	dc := p.host.net.dispatcherFor().registerReader(inboxDepth)
	dc.bounded = true
	select {
	case <-p.done:
		dc.closed.Store(true)
		dc.box.Close()
	default:
	}
	p.dc.Store(dc)
	return dc
}

// coerceAddr normalizes the destination address forms WriteTo accepts.
func coerceAddr(addr net.Addr) (Addr, error) {
	switch v := addr.(type) {
	case Addr:
		return v, nil
	case *Addr:
		return *v, nil
	default:
		return ParseAddr(addr.String())
	}
}

// queueTo hands an owned payload to dst's endpoint after delay.
func (p *PacketConn) queueTo(dst *PacketConn, data []byte, delay time.Duration) {
	dc := dst.endpoint()
	dc.d.send(dc, data, p.boxedSrc, delay)
}

// WriteTo sends a datagram to addr ("host:port" or an Addr). Sends on a
// down link or lost by the link's loss process are silently dropped, as
// with UDP. Sends to unknown hosts or unbound ports are also dropped
// (real networks emit ICMP; our protocols treat both as loss).
func (p *PacketConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	select {
	case <-p.done:
		return 0, ErrClosed
	default:
	}
	if len(b) > MTU {
		return 0, fmt.Errorf("%w: %d > %d", ErrPacketTooBig, len(b), MTU)
	}
	a, err := coerceAddr(addr)
	if err != nil {
		return 0, err
	}

	m := p.resolveDst(a)
	if m == nil {
		return len(b), nil // silently dropped, like UDP into a black hole
	}

	delay, deliver := p.host.net.delayOn(m.link, len(b), true)
	if !deliver {
		return len(b), nil // lost or link down
	}
	p.queueTo(m.dst, payloadClone(b), delay)
	return len(b), nil
}

// WriteToHost is WriteTo with a pre-parsed destination.
func (p *PacketConn) WriteToHost(b []byte, host string, port int) (int, error) {
	return p.WriteTo(b, Addr{Host: host, Port: port})
}

// WriteOwnedTo is WriteTo for a buffer whose ownership transfers to
// the network: b must come from GetPayload (or ReadFromOwned) and is
// consumed on every path — delivered, dropped, or errored — so the
// caller must not touch it after the call. Skipping the interior
// defensive copy is what lets an encapsulation layer build a packet in
// a pooled buffer and send it with zero copies inside simnet.
func (p *PacketConn) WriteOwnedTo(b []byte, addr net.Addr) (int, error) {
	select {
	case <-p.done:
		payloadPut(b)
		return 0, ErrClosed
	default:
	}
	if len(b) > MTU {
		n := len(b)
		payloadPut(b)
		return 0, fmt.Errorf("%w: %d > %d", ErrPacketTooBig, n, MTU)
	}
	a, err := coerceAddr(addr)
	if err != nil {
		payloadPut(b)
		return 0, err
	}

	n := len(b)
	m := p.resolveDst(a)
	if m == nil {
		payloadPut(b)
		return n, nil // silently dropped, like UDP into a black hole
	}

	delay, deliver := p.host.net.delayOn(m.link, n, true)
	if !deliver {
		payloadPut(b)
		return n, nil // lost or link down
	}
	p.queueTo(m.dst, b, delay)
	return n, nil
}

// ReadFrom receives the next datagram, waiting until one is
// deliverable, the socket closes, or the read deadline passes.
func (p *PacketConn) ReadFrom(b []byte) (int, net.Addr, error) {
	data, from, err := p.ReadFromOwned()
	if err != nil {
		return 0, nil, err
	}
	n := copy(b, data)
	payloadPut(data)
	return n, from, nil
}

// ReadFromOwned receives the next datagram and returns its pooled
// delivery buffer directly, avoiding ReadFrom's copy-out. Ownership of
// the returned slice transfers to the caller, who must release it with
// PutPayload (or pass it on via WriteOwnedTo) exactly once. Deadline
// and close behavior match ReadFrom: a deadline before the next
// delivery instant returns ErrDeadline and leaves the datagram queued.
func (p *PacketConn) ReadFromOwned() ([]byte, net.Addr, error) {
	ch, err := p.endpoint().box.recvBy(p.readDeadline.get())
	if err != nil {
		return nil, nil, err
	}
	return ch.data, ch.from, nil
}

// Clock returns the clock governing this socket's network.
func (p *PacketConn) Clock() Clock { return p.host.net.clock }

// Network returns the network the socket lives on, for services that
// schedule their own timers on its dispatcher (NewContinuation).
func (p *PacketConn) Network() *Network { return p.host.net }

// SetReadDeadline bounds future ReadFrom calls. It does not interrupt a
// blocked ReadFrom.
func (p *PacketConn) SetReadDeadline(t time.Time) error {
	p.readDeadline.set(t)
	return nil
}

// Close releases the socket.
func (p *PacketConn) Close() error {
	p.closeOnce.Do(func() {
		close(p.done)
		p.imu.Lock()
		dc := p.dc.Load()
		p.imu.Unlock()
		if dc != nil {
			dc.d.markClosed(dc)
			if dc.box != nil {
				dc.box.Close()
			}
		}
		p.host.removePacketConn(p.addr.Port)
	})
	return nil
}
