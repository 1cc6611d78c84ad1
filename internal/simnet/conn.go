package simnet

import (
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// chunk is a batch of stream bytes due for delivery at a clock
// instant (its send time plus the link delay at send time). bar holds
// the delivery barrier keeping virtual time from jumping past the
// delivery before the receiver parks on it.
type chunk struct {
	data []byte
	at   time.Time
	bar  *vbarrier
}

// halfPipe is one direction of a stream connection. Bytes written are
// delivered after the link delay; the byte stream is reliable and
// ordered (it models TCP riding the simulated link).
//
// A pipe delivers through one of two paths. The legacy path is box, the
// mailbox a blocking Read waits on, made on the first legacy write or
// the first Read; a reliable stream never drops, so it is unbounded. A
// registered dispatch handler (dc) replaces it and runs deliveries
// run-to-completion on the network's dispatcher.
type halfPipe struct {
	mu         sync.Mutex
	box        *Mailbox[chunk] // legacy path; nil until a write or Read needs it
	pending    []byte          // unread remainder of the last delivered chunk
	pendingBuf []byte          // pending's backing pool buffer, recycled when drained
	closed     atomic.Bool

	// dc is the receiver's dispatch endpoint. Written under mu (so
	// installation can migrate buffered chunks atomically against
	// writers); read lock-free on the write fast path.
	dc atomic.Pointer[dconn]
}

// close marks the pipe closed and closes its mailbox: a parked reader
// drains what is queued, then sees EOF.
func (p *halfPipe) close() {
	if p.closed.Swap(true) {
		return
	}
	p.mu.Lock()
	if p.box != nil {
		p.box.Close()
	}
	p.mu.Unlock()
}

// mailboxLocked returns the legacy mailbox, making it on first use —
// already closed if the pipe is. Caller holds p.mu.
func (p *halfPipe) mailboxLocked(vc *VirtualClock) *Mailbox[chunk] {
	if p.box == nil {
		p.box = NewMailbox[chunk](vc, math.MaxInt)
		if p.closed.Load() {
			p.box.Close()
		}
	}
	return p.box
}

// Conn is a simnet stream connection implementing net.Conn.
type Conn struct {
	network *Network
	local   Addr
	remote  Addr
	// rx is the pipe this side reads from; tx is the pipe it writes to.
	rx, tx *halfPipe
	// link memoizes the local→remote link state on first Write, so the
	// per-write delay skips the network's link-map lookup.
	link atomic.Pointer[linkState]

	readDeadline deadline
}

type deadline struct {
	mu sync.Mutex
	t  time.Time
}

func (d *deadline) set(t time.Time) {
	d.mu.Lock()
	d.t = t
	d.mu.Unlock()
}

func (d *deadline) get() time.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.t
}

// newConnPair wires two Conns back to back across the network's links.
func newConnPair(n *Network, local, remote Addr) (*Conn, *Conn) {
	aToB, bToA := &halfPipe{}, &halfPipe{}
	a := &Conn{network: n, local: local, remote: remote, rx: bToA, tx: aToB}
	b := &Conn{network: n, local: remote, remote: local, rx: aToB, tx: bToA}
	return a, b
}

// OnDeliver switches the conn to run-to-completion dispatch: h runs
// inline on the network's dispatcher for every delivered write, in
// delivery order, at the delivery instant; onClose (optional) runs
// after the final delivery when the peer closes. The buffer passed to
// h is owned by the dispatcher and valid only for the duration of the
// call — copy anything retained.
//
// Anything already buffered (a handshake frame read partially, chunks
// queued before the handler existed) is re-registered with the
// dispatcher at its original delivery instant, so installing a handler
// mid-stream loses nothing and shifts no timestamps. After
// installation the blocking Read path must not be used again. The
// caller must be a clock-registered goroutine, and h must not block on
// clock waits (no Sleep, no blocking simnet reads). h wakes goroutines
// only through a simnet write or a Mailbox.Put, the wakes the clock
// tracks (DESIGN.md §14).
func (c *Conn) OnDeliver(h func(data []byte), onClose func()) {
	d := c.network.dispatcherFor()
	dc := d.register()
	dc.onData = h
	dc.onClose = onClose
	c.installDispatch(d, dc)
}

// StreamHandler is the allocation-free form of OnDeliver: one receiver
// carries both callbacks, so a per-conn registration costs no closure
// allocations — it matters on paths that register a fresh conn per
// protocol event (every attach creates a radio association). The same
// contract as OnDeliver applies to both methods.
type StreamHandler interface {
	HandleDeliver(data []byte) // one delivered write; buffer valid for the call only
	HandleStreamClose()        // peer closed, after the final delivery
}

// OnDeliverHandler is OnDeliver with an interface receiver in place of
// the two closures.
func (c *Conn) OnDeliverHandler(h StreamHandler) {
	d := c.network.dispatcherFor()
	dc := d.register()
	dc.sink = h
	c.installDispatch(d, dc)
}

// closeTeardown is Close for world teardown: if the conn runs a
// dispatch handler, its close callback is scheduled as a forced event
// first, so the handler sees EOF even though the close is
// administrative rather than the peer's — a service goroutine parked
// on a handler-fed queue depends on that callback to exit.
func (c *Conn) closeTeardown() error {
	if dc := c.rx.dc.Load(); dc != nil && (dc.sink != nil || dc.onClose != nil) {
		dc.d.sendClose(dc, true)
	}
	return c.Close()
}

// installDispatch migrates buffered data to the endpoint's dispatcher
// and publishes the registration, preserving original delivery
// instants (see OnDeliver).
func (c *Conn) installDispatch(d *dispatcher, dc *dconn) {
	p := c.rx
	p.mu.Lock()
	if len(p.pending) > 0 {
		// Remainder of a partially-read chunk: already deliverable.
		d.migrate(dc, p.pending, nil, time.Time{}, nil)
		p.pending, p.pendingBuf = nil, nil
	}
	if p.box != nil {
		for {
			ch, err := p.box.Recv(0)
			if err != nil {
				break
			}
			d.migrate(dc, ch.data, nil, ch.at, ch.bar)
		}
	}
	p.dc.Store(dc)
	p.mu.Unlock()
	if p.closed.Load() {
		// Peer closed before the handler existed; its close event was
		// never scheduled, so schedule it now (after migrated data).
		d.sendClose(dc, false)
	}
}

// Read implements net.Conn. It waits on the pipe's mailbox until data
// is deliverable (its link delay has elapsed), the peer closes, or the
// read deadline passes. A deadline inside a delivery's link delay ends
// the read at the deadline with the data consumed (real kernels would
// have buffered it, and our single-reader protocols never rely on
// post-deadline re-reads).
func (c *Conn) Read(b []byte) (int, error) {
	p := c.rx
	p.mu.Lock()
	if len(p.pending) > 0 {
		n := copy(b, p.pending)
		p.pending = p.pending[n:]
		if len(p.pending) == 0 {
			p.pending = nil
			payloadPut(p.pendingBuf)
			p.pendingBuf = nil
		}
		p.mu.Unlock()
		return n, nil
	}
	box := p.mailboxLocked(c.network.clock)
	p.mu.Unlock()

	dl := c.readDeadline.get()
	ch, err := box.recvBy(dl)
	if err == ErrClosed {
		return 0, io.EOF
	} else if err != nil {
		return 0, err
	}
	box.hold(ch.bar, ch.at, dl)

	// Copy out, stashing any remainder as pending. A fully consumed
	// chunk's buffer goes back to the payload pool; a partially consumed
	// one is recycled once the pending remainder drains.
	p.mu.Lock()
	n := copy(b, ch.data)
	if n < len(ch.data) {
		p.pending, p.pendingBuf = ch.data[n:], ch.data
	} else {
		payloadPut(ch.data)
	}
	p.mu.Unlock()
	return n, nil
}

// Write implements net.Conn. Bytes are queued with the link delay
// computed at write time; writes fail if the link is down or the pipe
// has closed, and never block — on either path the receive queue is
// unbounded, as befits a reliable stream.
func (c *Conn) Write(b []byte) (int, error) {
	if c.tx.closed.Load() {
		return 0, ErrClosed
	}
	ls := c.link.Load()
	if ls == nil {
		ls = c.network.link(c.local.Host, c.remote.Host)
		c.link.Store(ls)
	}
	delay, up := c.network.delayOn(ls, len(b), false)
	if !up {
		return 0, ErrLinkDown
	}
	p := c.tx

	// Dispatch fast path: the receiver runs a handler; schedule a
	// delivery event. No mailbox, no barrier.
	if dc := p.dc.Load(); dc != nil {
		data := payloadGet(len(b))
		copy(data, b)
		dc.d.send(dc, data, nil, delay)
		return len(b), nil
	}

	vc := c.network.clock
	data := payloadGet(len(b))
	copy(data, b)
	at := vc.Now().Add(delay)
	ch := chunk{data: data, at: at, bar: vc.addBarrier(at)}

	// Legacy enqueue, mode-checked under the pipe lock so a concurrent
	// OnDeliver migration cannot strand the chunk behind the handler.
	// The unbounded mailbox refuses only once the pipe has closed.
	p.mu.Lock()
	if dc := p.dc.Load(); dc != nil {
		p.mu.Unlock()
		vc.releaseBarrier(ch.bar)
		dc.d.send(dc, data, nil, delay)
		return len(b), nil
	}
	queued := p.mailboxLocked(vc).Put(ch)
	p.mu.Unlock()
	if !queued {
		vc.releaseBarrier(ch.bar)
		payloadPut(data)
		return 0, ErrClosed
	}
	c.network.noteLegacyDelivery()
	return len(b), nil
}

// Close implements net.Conn. It closes both directions, so the peer's
// pending Read returns io.EOF (or its dispatch handler sees onClose)
// after draining delivered data.
func (c *Conn) Close() error {
	if dc := c.rx.dc.Load(); dc != nil {
		dc.d.markClosed(dc) // drop own in-flight deliveries
	}
	if dc := c.tx.dc.Load(); dc != nil {
		dc.d.sendClose(dc, false) // peer's handler sees EOF after queued data
	}
	c.tx.close()
	c.rx.close()
	c.network.dropConn(c)
	return nil
}

// Clock returns the clock governing this connection's network.
func (c *Conn) Clock() Clock { return c.network.clock }

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn. Deadlines apply to reads started
// after the call; they do not interrupt a blocked Read.
func (c *Conn) SetDeadline(t time.Time) error {
	c.readDeadline.set(t)
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.readDeadline.set(t)
	return nil
}

// SetWriteDeadline implements net.Conn. It is accepted and has no
// effect: writes never block, so there is nothing for it to bound.
func (c *Conn) SetWriteDeadline(time.Time) error { return nil }
