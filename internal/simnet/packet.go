package simnet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// datagram is one queued packet with its delivery instant. bar keeps
// virtual time from jumping past the delivery before the receiver parks
// on it. from carries the sender's pre-boxed
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
// Like a stream halfPipe, a socket receives through one of two paths:
// box is the legacy mailbox a blocking ReadFrom waits on (made on the
// first datagram or ReadFrom), and a registered dispatch handler
// replaces it. The receive buffer is bounded at inboxDepth on both
// paths — overflow drops model kernel receive-buffer loss identically.
type PacketConn struct {
	host     *Host
	addr     Addr
	boxedSrc net.Addr // addr boxed once, stamped on outgoing datagrams

	imu sync.Mutex
	box *Mailbox[datagram] // legacy path; nil until a datagram or ReadFrom needs it

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
// clock waits inside h, and wakes only through a simnet write or a
// Mailbox.Put.
func (p *PacketConn) SetHandler(h func(data []byte, from net.Addr)) {
	d := p.host.net.dispatcherFor()
	dc := d.register()
	dc.onPacket = h
	dc.bounded = true
	p.imu.Lock()
	if p.box != nil {
		for {
			dg, err := p.box.Recv(0)
			if err != nil {
				break
			}
			d.migrate(dc, dg.data, dg.from, dg.at, dg.bar)
		}
	}
	p.dc.Store(dc)
	p.imu.Unlock()
}

// mailboxLocked returns the legacy mailbox, making it on first use —
// already closed if the socket is. Caller holds p.imu.
func (p *PacketConn) mailboxLocked() *Mailbox[datagram] {
	if p.box == nil {
		p.box = NewMailbox[datagram](p.host.net.clock, inboxDepth)
		select {
		case <-p.done:
			p.box.Close()
		default:
		}
	}
	return p.box
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
// mailbox. Overflow beyond inboxDepth drops the packet on both paths.
func (p *PacketConn) queueTo(dst *PacketConn, data []byte, delay time.Duration) {
	// Dispatch fast path: no barrier, no mailbox.
	if dc := dst.dc.Load(); dc != nil {
		dc.d.send(dc, data, p.boxedSrc, delay)
		return
	}
	vc := p.host.net.clock
	at := vc.Now().Add(delay)
	dg := datagram{data: data, from: p.boxedSrc, at: at, bar: vc.addBarrier(at)}
	// Legacy enqueue, mode-checked under the receive lock so a
	// concurrent SetHandler migration cannot strand the datagram.
	dst.imu.Lock()
	if dc := dst.dc.Load(); dc != nil {
		dst.imu.Unlock()
		vc.releaseBarrier(dg.bar)
		dc.d.send(dc, data, p.boxedSrc, delay)
		return
	}
	queued := dst.mailboxLocked().Put(dg)
	dst.imu.Unlock()
	if queued {
		p.host.net.noteLegacyDelivery()
		return
	}
	// A full (or closed) receive buffer drops the packet.
	vc.releaseBarrier(dg.bar)
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
// and close behavior match ReadFrom: a deadline inside the datagram's
// link delay ends the read at the deadline with the datagram consumed
// (a real kernel would have buffered it past the deadline too).
func (p *PacketConn) ReadFromOwned() ([]byte, net.Addr, error) {
	p.imu.Lock()
	box := p.mailboxLocked()
	p.imu.Unlock()
	dl := p.readDeadline.get()
	dg, err := box.recvBy(dl)
	if err != nil {
		return nil, nil, err
	}
	box.hold(dg.bar, dg.at, dl)
	return dg.data, dg.from, nil
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
		p.imu.Lock()
		if p.box != nil {
			p.box.Close()
		}
		p.imu.Unlock()
		p.host.removePacketConn(p.addr.Port)
	})
	return nil
}
