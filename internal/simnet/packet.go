package simnet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// datagram is one queued packet with its delivery instant. Under a
// VirtualClock, bar keeps virtual time from jumping past the delivery
// before the receiver parks on it. from carries the sender's pre-boxed
// address so the ReadFrom return costs no interface allocation.
type datagram struct {
	data []byte
	from net.Addr
	at   time.Time
	bar  *vbarrier
}

// PacketConn is a simnet datagram socket. It implements the
// net.PacketConn read/write surface used by the GTP-U and mobility
// transport layers: unreliable, unordered-within-jitter, loss- and
// latency-afflicted delivery.
//
// Like a stream halfPipe, a socket receives through one of three
// paths: prebox buffers packets arriving before the receiver engages,
// inbox is the legacy channel a blocking reader parks on (allocated on
// first ReadFrom), and a registered dispatch handler replaces both.
// The receive buffer is bounded at inboxDepth on every path — overflow
// drops model kernel receive-buffer loss identically in all modes.
type PacketConn struct {
	host     *Host
	addr     Addr
	boxedSrc net.Addr // addr boxed once, stamped on outgoing datagrams

	imu    sync.Mutex
	prebox []datagram
	inbox  chan datagram // legacy path; nil until a reader engages

	// dc is the receiver's dispatch endpoint. Written under imu; read
	// lock-free on the send fast path.
	dc atomic.Pointer[dconn]

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
// dispatcher and valid only for the duration of the call. Packets
// already buffered are re-registered at their original delivery
// instants. The same handler contract as Conn.OnDeliver applies: no
// clock waits inside h, and Poke after waking goroutines through
// channels the clock cannot see (a Mailbox.Put needs none).
func (p *PacketConn) SetHandler(h func(data []byte, from net.Addr)) {
	d := p.host.net.dispatcherFor()
	dc := d.register()
	dc.onPacket = h
	dc.bounded = true
	p.imu.Lock()
	if p.inbox != nil {
	drain:
		for {
			select {
			case dg := <-p.inbox:
				d.migrateDatagram(dc, dg)
			default:
				break drain
			}
		}
	}
	for _, dg := range p.prebox {
		d.migrateDatagram(dc, dg)
	}
	p.prebox = nil
	p.dc.Store(dc)
	p.imu.Unlock()
	d.kickW(dc)
}

// engage returns the legacy inbox, allocating it and draining any
// pre-engagement datagrams into it on first use.
func (p *PacketConn) engage() chan datagram {
	p.imu.Lock()
	if p.inbox == nil {
		p.inbox = make(chan datagram, inboxDepth)
		for _, dg := range p.prebox {
			p.inbox <- dg
		}
		p.prebox = nil
	}
	in := p.inbox
	p.imu.Unlock()
	return in
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

// queueTo hands an owned payload to dst's receive path after delay:
// the dispatch handler when one is registered, otherwise the legacy
// inbox (or prebox). Overflow beyond inboxDepth drops the packet on
// every path.
func (p *PacketConn) queueTo(dst *PacketConn, data []byte, delay time.Duration) {
	// Dispatch fast path: no barrier, no channel.
	if dc := dst.dc.Load(); dc != nil {
		dc.d.send(dc, data, p.boxedSrc, delay)
		return
	}
	clk := p.host.net.clock
	dg := datagram{data: data, from: p.boxedSrc}
	vc, virtual := clk.(*VirtualClock)
	if virtual {
		dg.at = clk.Now().Add(delay)
		dg.bar = vc.addBarrier(dg.at)
	} else if delay > 0 {
		// Wall clock with no link delay leaves at zero: holdUntil
		// skips the clock read entirely for immediate deliveries.
		dg.at = clk.Now().Add(delay)
	}
	// Legacy enqueue, mode-checked under the receive lock so a
	// concurrent SetHandler migration cannot strand the datagram.
	dst.imu.Lock()
	if dc := dst.dc.Load(); dc != nil {
		dst.imu.Unlock()
		if virtual {
			vc.releaseBarrier(dg.bar)
		}
		dc.d.send(dc, data, p.boxedSrc, delay)
		return
	}
	if dst.inbox == nil {
		if len(dst.prebox) < inboxDepth {
			dst.prebox = append(dst.prebox, dg)
			dst.imu.Unlock()
			p.host.net.noteLegacyDelivery()
			return
		}
		dst.imu.Unlock()
	} else {
		select {
		case dst.inbox <- dg:
			dst.imu.Unlock()
			p.host.net.noteLegacyDelivery()
			return
		default:
			dst.imu.Unlock()
		}
	}
	// Receiver queue overflow models receive-buffer drops.
	if virtual {
		vc.releaseBarrier(dg.bar)
	}
	payloadPut(data)
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
	data := payloadGet(len(b))
	copy(data, b)
	p.queueTo(m.dst, data, delay)
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

// ReadFrom receives the next datagram, blocking until one is
// deliverable, the socket closes, or the read deadline fires.
func (p *PacketConn) ReadFrom(b []byte) (int, net.Addr, error) {
	clk := p.host.net.clock
	inbox := p.engage()

	// Fast path: a datagram is already queued; no need to park.
	select {
	case dg := <-inbox:
		p.holdUntil(dg, nil)
		n := copy(b, dg.data)
		payloadPut(dg.data)
		return n, dg.from, nil
	default:
	}

	var deadlineC <-chan time.Time
	if dl := p.readDeadline.get(); !dl.IsZero() {
		wait := clk.Until(dl)
		if wait <= 0 {
			return 0, nil, ErrDeadline
		}
		t := clk.NewTimer(wait)
		deadlineC = t.C
		defer t.Stop()
	}
	clk.Block()
	select {
	case dg := <-inbox:
		clk.Unblock()
		p.holdUntil(dg, deadlineC)
		n := copy(b, dg.data)
		payloadPut(dg.data)
		return n, dg.from, nil
	case <-p.done:
		clk.Unblock()
		return 0, nil, ErrClosed
	case <-deadlineC:
		clk.Unblock()
		return 0, nil, ErrDeadline
	}
}

// ReadFromOwned receives the next datagram and returns its pooled
// delivery buffer directly, avoiding ReadFrom's copy-out. Ownership of
// the returned slice transfers to the caller, who must release it with
// PutPayload (or pass it on via WriteOwnedTo) exactly once. Deadline
// and close behavior match ReadFrom.
func (p *PacketConn) ReadFromOwned() ([]byte, net.Addr, error) {
	clk := p.host.net.clock
	inbox := p.engage()

	// Fast path: a datagram is already queued; no need to park.
	select {
	case dg := <-inbox:
		p.holdUntil(dg, nil)
		return dg.data, dg.from, nil
	default:
	}

	var deadlineC <-chan time.Time
	if dl := p.readDeadline.get(); !dl.IsZero() {
		wait := clk.Until(dl)
		if wait <= 0 {
			return nil, nil, ErrDeadline
		}
		t := clk.NewTimer(wait)
		deadlineC = t.C
		defer t.Stop()
	}
	clk.Block()
	select {
	case dg := <-inbox:
		clk.Unblock()
		p.holdUntil(dg, deadlineC)
		return dg.data, dg.from, nil
	case <-p.done:
		clk.Unblock()
		return nil, nil, ErrClosed
	case <-deadlineC:
		clk.Unblock()
		return nil, nil, ErrDeadline
	}
}

// holdUntil waits out the datagram's remaining link delay. The
// datagram is consumed even if the deadline fires first; a real kernel
// would have buffered it past the deadline too.
func (p *PacketConn) holdUntil(dg datagram, deadlineC <-chan time.Time) {
	if vc, ok := p.host.net.clock.(*VirtualClock); ok {
		vc.holdDelivery(dg.bar, dg.at, deadlineC)
		return
	}
	if dg.at.IsZero() {
		return // immediate delivery; no clock read
	}
	wait := time.Until(dg.at)
	if wait <= 0 {
		return
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
	case <-deadlineC:
	}
}

// Clock returns the clock governing this socket's network.
func (p *PacketConn) Clock() Clock { return p.host.net.clock }

// SetReadDeadline bounds future ReadFrom calls. It does not interrupt a
// blocked ReadFrom.
func (p *PacketConn) SetReadDeadline(t time.Time) error {
	p.readDeadline.set(t)
	return nil
}

// Close releases the socket.
func (p *PacketConn) Close() error {
	p.closeOnce.Do(func() {
		if dc := p.dc.Load(); dc != nil {
			dc.d.markClosed(dc)
		}
		close(p.done)
		p.host.removePacketConn(p.addr.Port)
	})
	return nil
}
