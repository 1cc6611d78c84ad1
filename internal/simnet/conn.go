package simnet

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// chunk is a batch of stream bytes due for delivery at a clock
// instant (its send time plus the link delay at send time). Under a
// VirtualClock, bar holds the delivery barrier keeping virtual time
// from jumping past the delivery before the receiver parks on it.
type chunk struct {
	data []byte
	at   time.Time
	bar  *vbarrier
}

// halfPipe is one direction of a stream connection. Bytes written are
// delivered after the link delay; the byte stream is reliable and
// ordered (it models TCP riding the simulated link).
//
// A pipe delivers through exactly one of three paths, in lifecycle
// order: preq buffers writes that arrive before the receiver engages
// (no reader parked yet, no handler installed — typically a dial
// handshake frame in flight); queue is the legacy channel a blocking
// reader parks on, allocated on first Read; a registered dispatch
// handler (dc) replaces both and runs deliveries run-to-completion on
// the network's dispatcher.
type halfPipe struct {
	mu         sync.Mutex
	preq       []chunk    // writes before engagement, in write order
	queue      chan chunk // legacy path; nil until a reader engages
	pending    []byte     // unread remainder of the last delivered chunk
	pendingBuf []byte     // pending's backing pool buffer, recycled when drained
	closed     chan struct{}
	once       sync.Once

	// dc is the receiver's dispatch endpoint. Written under mu (so
	// installation can migrate buffered chunks atomically against
	// writers); read lock-free on the write fast path.
	dc atomic.Pointer[dconn]
}

func newHalfPipe() *halfPipe {
	return &halfPipe{closed: make(chan struct{})}
}

func (p *halfPipe) close() {
	p.once.Do(func() { close(p.closed) })
}

// engage returns the legacy delivery channel, allocating it and
// draining any pre-engagement chunks into it on first use.
func (p *halfPipe) engage() chan chunk {
	p.mu.Lock()
	if p.queue == nil {
		depth := streamQueueDepth
		if len(p.preq) >= depth {
			depth = len(p.preq) + 64
		}
		p.queue = make(chan chunk, depth)
		for _, ch := range p.preq {
			p.queue <- ch
		}
		p.preq = nil
	}
	q := p.queue
	p.mu.Unlock()
	return q
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

	readDeadline  deadline
	writeDeadline deadline
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
	aToB := newHalfPipe()
	bToA := newHalfPipe()
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
// clock waits (no Sleep, no blocking simnet reads); a handler that
// wakes other goroutines through plain channels must call Poke.
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
		dc.d.sendCloseForce(dc)
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
		d.migrateChunk(dc, chunk{data: p.pending}, nil)
		p.pending, p.pendingBuf = nil, nil
	}
	if p.queue != nil {
	drain:
		for {
			select {
			case ch := <-p.queue:
				d.migrateChunk(dc, ch, nil)
			default:
				break drain
			}
		}
	}
	for _, ch := range p.preq {
		d.migrateChunk(dc, ch, nil)
	}
	p.preq = nil
	p.dc.Store(dc)
	p.mu.Unlock()
	d.kickW(dc)
	select {
	case <-p.closed:
		// Peer closed before the handler existed; its close event was
		// never scheduled, so schedule it now (after migrated data).
		d.sendClose(dc)
	default:
	}
}

// Read implements net.Conn. It blocks until data is deliverable (its
// link delay has elapsed), the peer closes, or the read deadline fires.
func (c *Conn) Read(b []byte) (int, error) {
	c.rx.mu.Lock()
	if len(c.rx.pending) > 0 {
		n := copy(b, c.rx.pending)
		c.rx.pending = c.rx.pending[n:]
		if len(c.rx.pending) == 0 {
			c.rx.pending = nil
			payloadPut(c.rx.pendingBuf)
			c.rx.pendingBuf = nil
		}
		c.rx.mu.Unlock()
		return n, nil
	}
	c.rx.mu.Unlock()

	clk := c.network.clock
	queue := c.rx.engage()

	// Fast path: a chunk is already queued; no need to park.
	select {
	case ch := <-queue:
		return c.deliver(ch, b, nil), nil
	default:
	}

	var timer *Timer
	var deadlineC <-chan time.Time
	if dl := c.readDeadline.get(); !dl.IsZero() {
		wait := clk.Until(dl)
		if wait <= 0 {
			return 0, ErrDeadline
		}
		timer = clk.NewTimer(wait)
		deadlineC = timer.C
		defer timer.Stop()
	}

	clk.Block()
	select {
	case ch := <-queue:
		clk.Unblock()
		return c.deliver(ch, b, deadlineC), nil
	case <-c.rx.closed:
		clk.Unblock()
		// Drain anything queued before the close won the race.
		select {
		case ch := <-queue:
			return c.deliver(ch, b, deadlineC), nil
		default:
			return 0, io.EOF
		}
	case <-deadlineC:
		clk.Unblock()
		return 0, ErrDeadline
	}
}

// deliver waits out the chunk's remaining link delay, then copies its
// bytes into b, stashing any remainder as pending. A fully consumed
// chunk's buffer goes back to the payload pool; a partially consumed
// one is recycled once the pending remainder drains.
func (c *Conn) deliver(ch chunk, b []byte, deadlineC <-chan time.Time) int {
	c.holdUntil(ch, deadlineC)
	c.rx.mu.Lock()
	n := copy(b, ch.data)
	if n < len(ch.data) {
		c.rx.pending = ch.data[n:]
		c.rx.pendingBuf = ch.data
	} else {
		payloadPut(ch.data)
	}
	c.rx.mu.Unlock()
	return n
}

// holdUntil sleeps until the delivery instant, or returns early if the
// deadline channel fires (the data stays consumed: real kernels would
// have buffered it, and our single-reader protocols never rely on
// post-deadline re-reads).
func (c *Conn) holdUntil(ch chunk, deadlineC <-chan time.Time) {
	if vc, ok := c.network.clock.(*VirtualClock); ok {
		vc.holdDelivery(ch.bar, ch.at, deadlineC)
		return
	}
	if ch.at.IsZero() {
		return // immediate delivery; no clock read
	}
	wait := time.Until(ch.at)
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

// Write implements net.Conn. Bytes are queued with the link delay
// computed at write time; writes fail if the link is down or the peer
// has closed.
func (c *Conn) Write(b []byte) (int, error) {
	select {
	case <-c.tx.closed:
		return 0, ErrClosed
	default:
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
	// delivery event. No channel, no barrier, no blocking (deadlines
	// are moot — the event queue never exerts backpressure).
	if dc := p.dc.Load(); dc != nil {
		data := payloadGet(len(b))
		copy(data, b)
		dc.d.send(dc, data, nil, delay)
		return len(b), nil
	}

	clk := c.network.clock
	data := payloadGet(len(b))
	copy(data, b)
	ch := chunk{data: data}
	if vc, ok := clk.(*VirtualClock); ok {
		ch.at = clk.Now().Add(delay)
		ch.bar = vc.addBarrier(ch.at)
	} else if delay > 0 {
		ch.at = clk.Now().Add(delay)
	}

	// Legacy enqueue, mode-checked under the pipe lock so a concurrent
	// OnDeliver migration cannot strand the chunk behind the handler.
	p.mu.Lock()
	if dc := p.dc.Load(); dc != nil {
		p.mu.Unlock()
		c.releaseBarrier(ch.bar)
		dc.d.send(dc, data, nil, delay)
		return len(b), nil
	}
	if p.queue == nil {
		// Receiver not engaged yet: buffer in write order.
		p.preq = append(p.preq, ch)
		p.mu.Unlock()
		c.network.noteLegacyDelivery()
		return len(b), nil
	}
	queue := p.queue
	select {
	case queue <- ch:
		p.mu.Unlock()
		c.network.noteLegacyDelivery()
		return len(b), nil
	default:
	}
	p.mu.Unlock()

	var deadlineC <-chan time.Time
	if dl := c.writeDeadline.get(); !dl.IsZero() {
		wait := clk.Until(dl)
		if wait <= 0 {
			c.releaseBarrier(ch.bar)
			payloadPut(data)
			return 0, ErrDeadline
		}
		t := clk.NewTimer(wait)
		deadlineC = t.C
		defer t.Stop()
	}

	clk.Block()
	select {
	case queue <- ch:
		clk.Unblock()
		c.network.noteLegacyDelivery()
		return len(b), nil
	case <-c.tx.closed:
		clk.Unblock()
		c.releaseBarrier(ch.bar)
		payloadPut(data)
		return 0, ErrClosed
	case <-deadlineC:
		clk.Unblock()
		c.releaseBarrier(ch.bar)
		payloadPut(data)
		return 0, ErrDeadline
	}
}

func (c *Conn) releaseBarrier(b *vbarrier) {
	if b == nil {
		return
	}
	if vc, ok := c.network.clock.(*VirtualClock); ok {
		vc.releaseBarrier(b)
	}
}

// Close implements net.Conn. It closes both directions, so the peer's
// pending Read returns io.EOF (or its dispatch handler sees onClose)
// after draining delivered data.
func (c *Conn) Close() error {
	if dc := c.rx.dc.Load(); dc != nil {
		dc.d.markClosed(dc) // drop own in-flight deliveries
	}
	if dc := c.tx.dc.Load(); dc != nil {
		dc.d.sendClose(dc) // peer's handler sees EOF after queued data
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

// SetDeadline implements net.Conn. Deadlines apply to operations
// started after the call; they do not interrupt a blocked operation.
func (c *Conn) SetDeadline(t time.Time) error {
	c.readDeadline.set(t)
	c.writeDeadline.set(t)
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.readDeadline.set(t)
	return nil
}

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.writeDeadline.set(t)
	return nil
}
