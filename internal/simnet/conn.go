package simnet

import (
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// halfPipe is one direction of a stream connection. Bytes written are
// delivered after the link delay; the byte stream is reliable and
// ordered (it models TCP riding the simulated link).
//
// Every write is a delivery event on the receiver's dispatch endpoint
// (dc), registered at the first write, Read or handler install. With a
// handler the event runs it; without one (a reader endpoint) it hands
// the chunk to the endpoint's mailbox, which Read drains. A reliable
// stream never drops, so that mailbox is unbounded.
type halfPipe struct {
	mu         sync.Mutex
	pending    []byte // unread remainder of the last chunk Read took
	pendingBuf []byte // pending's backing pool buffer, recycled when drained
	closed     atomic.Bool

	// dc is the receiver's dispatch endpoint. Written under mu, with
	// its handlers; read lock-free on the write fast path.
	dc atomic.Pointer[dconn]
	// ep is dc's storage: the endpoint lives and dies with its pipe,
	// and takes its conn ID only when dc is first set, so same-instant
	// deliveries order exactly as if it were allocated then.
	ep dconn
}

// endpoint returns the pipe's dispatch endpoint, registering a reader
// endpoint if there is none yet — its mailbox already closed if the
// pipe is.
func (p *halfPipe) endpoint(n *Network) *dconn {
	if dc := p.dc.Load(); dc != nil {
		return dc
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if dc := p.dc.Load(); dc != nil {
		return dc
	}
	dc := n.dispatcherFor().registerReader(&p.ep, math.MaxInt)
	if p.closed.Load() {
		dc.box.Close()
	}
	p.dc.Store(dc)
	return dc
}

// close marks the pipe closed. The reading side's own close (self)
// drops deliveries still in flight and ends a parked Read at once; the
// writing side's close is the peer's, an event after the writes it
// already queued.
func (p *halfPipe) close(self bool) {
	p.mu.Lock()
	p.closed.Store(true)
	dc := p.dc.Load()
	p.mu.Unlock()
	switch {
	case dc == nil:
	case self:
		dc.d.markClosed(dc)
		if dc.box != nil {
			dc.box.Close()
		}
	default:
		dc.d.sendClose(dc, false)
	}
}

// install gives the pipe's endpoint the handlers h (see OnDeliver),
// registering one if there is none yet.
func (p *halfPipe) install(n *Network, h handlers) {
	d := n.dispatcherFor()
	p.mu.Lock()
	dc := p.dc.Load()
	fresh := dc == nil
	if fresh {
		dc = d.register(&p.ep)
	}
	// Move the remainder to the front of its pool buffer, so the
	// handler's delivery recycles it.
	d.install(dc, h, p.pendingBuf[:copy(p.pendingBuf, p.pending)])
	p.pending, p.pendingBuf = nil, nil
	p.dc.Store(dc)
	p.mu.Unlock()
	if fresh && p.closed.Load() {
		// The peer closed before any endpoint existed, so no close
		// event was scheduled.
		d.sendClose(dc, false)
	}
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

// connPair is one stream connection's memory: both ends and both
// directions, each pipe holding its receiver's endpoint, in a single
// allocation that lives as long as either end is reachable.
type connPair struct {
	a, b       Conn
	aToB, bToA halfPipe
}

// newConnPair wires two Conns back to back across the network's links.
func newConnPair(n *Network, local, remote Addr) (*Conn, *Conn) {
	p := new(connPair)
	a, b := &p.a, &p.b
	a.network, a.local, a.remote, a.rx, a.tx = n, local, remote, &p.bToA, &p.aToB
	b.network, b.local, b.remote, b.rx, b.tx = n, remote, local, &p.aToB, &p.bToA
	return a, b
}

// OnDeliver switches the conn to run-to-completion dispatch: h runs
// inline on the network's dispatcher for every delivered write, in
// delivery order, at the delivery instant; onClose (optional) runs
// after the final delivery when the peer closes. The buffer passed to
// h is owned by the dispatcher and valid only for the duration of the
// call — copy anything retained.
//
// Data a blocking Read left unread (the rest of a chunk read
// partially, chunks delivered since) reaches h first, at the current
// instant; writes still in flight keep their delivery instants, so
// installing a handler mid-stream loses nothing and shifts no
// timestamps. Install at most once; the blocking Read path must not be
// used afterwards. The caller must be a clock-registered goroutine,
// and h must not block on clock waits (no Sleep, no blocking simnet
// reads). h wakes goroutines only through a simnet write or a
// Mailbox.Put, the wakes the clock tracks (DESIGN.md §14).
func (c *Conn) OnDeliver(h func(data []byte), onClose func()) {
	c.rx.install(c.network, handlers{onData: h, onClose: onClose})
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
	c.rx.install(c.network, handlers{sink: h})
}

// closeTeardown is Close for world teardown: if the conn runs a
// dispatch handler, its close callback is scheduled as a forced event
// first, so the handler sees EOF even though the close is
// administrative rather than the peer's — a service goroutine parked
// on a handler-fed queue depends on that callback to exit.
func (c *Conn) closeTeardown() error {
	p := c.rx
	p.mu.Lock()
	dc := p.dc.Load()
	handled := dc != nil && (dc.sink != nil || dc.onClose != nil)
	p.mu.Unlock()
	if handled {
		dc.d.sendClose(dc, true)
	}
	return c.Close()
}

// Read implements net.Conn. It waits on the endpoint's mailbox until a
// chunk is delivered (its link delay has elapsed), the peer closes, or
// the read deadline passes. A deadline before the next delivery
// instant returns ErrDeadline and leaves the data for a later Read.
// Each chunk is one Write's copy of its bytes; what b cannot take
// stays pending for the next Read, or for AdoptFrame.
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
	p.mu.Unlock()

	ch, err := p.endpoint(c.network).box.recvBy(c.readDeadline.get())
	if err == ErrClosed {
		return 0, io.EOF
	} else if err != nil {
		return 0, err
	}

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

// AdoptFrame implements wire.FrameAdopter. If the chunk the last Read
// took is over the payload class, that Read took exactly its first 4
// bytes (a frame's length prefix) and exactly n bytes remain, it hands
// those n bytes over: the chunk is exact-fit heap memory only this
// conn held, so the caller owns them outright and the frame needs no
// second buffer. Any other state — nothing pending, a pooled chunk, a
// chunk read partly before the prefix or holding more than one frame —
// returns nil and leaves the pending bytes for Read.
func (c *Conn) AdoptFrame(n int) []byte {
	p := c.rx
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.pending) != n || len(p.pendingBuf) != 4+n || cap(p.pendingBuf) == payloadClassBytes {
		return nil
	}
	b := p.pending[:n:n]
	p.pending, p.pendingBuf = nil, nil
	return b
}

// Write implements net.Conn. The bytes become one delivery event, due
// after the link delay computed at write time; writes fail if the link
// is down or the pipe has closed, and never block — the receive side
// is unbounded, as befits a reliable stream.
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
	dc := c.tx.endpoint(c.network)
	dc.d.send(dc, payloadClone(b), nil, delay)
	return len(b), nil
}

// Close implements net.Conn. It closes both directions, so the peer's
// pending Read returns io.EOF (or its dispatch handler sees onClose)
// after draining delivered data.
func (c *Conn) Close() error {
	c.rx.close(true)
	c.tx.close(false)
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
