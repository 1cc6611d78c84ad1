package simnet

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the run-to-completion dispatch core (DESIGN.md §14),
// and the only way simnet delivers a stream write or a datagram.
//
// Every write becomes a closure-free delivery event on the receiving
// endpoint's dconn. The events live on the timing wheel and the
// VirtualClock's advancer executes each instant's batch in
// deterministic (delivery instant, conn ID) order — the same
// admission-order convention epc's detGate uses. An endpoint with a
// handler runs it inline when the event fires, with no mailbox, no
// park/unpark and no settle round for a handler-to-handler hop. An
// endpoint without one is a reader endpoint: the event hands the
// buffer to its mailbox, which a blocking Read or ReadFrom drains. A
// handler's own writes only enqueue, so a handler may write (even back
// into the conn whose send triggered it) without re-entering
// application locks.

// inboxDepth bounds a packet socket's receive queue: datagrams beyond
// it drop, modeling kernel receive-buffer overflow. The bound applies
// to deliveries in flight and, on a reader socket, again to those
// delivered but not yet read.
const inboxDepth = 1024

// chunk is one delivered write waiting in a reader endpoint's mailbox:
// a stream chunk, or a datagram with its sender's pre-boxed address (so
// the ReadFrom return costs no interface allocation).
type chunk struct {
	data []byte
	from net.Addr
}

// handlers are a dispatch endpoint's callbacks; all nil on a reader
// endpoint.
type handlers struct {
	sink     StreamHandler                    // interface-form stream handler
	onData   func(data []byte)                // stream payload handler
	onPacket func(data []byte, from net.Addr) // datagram handler
	onClose  func()                           // stream EOF handler
}

// dconn is one dispatch endpoint: a stream half-pipe, a packet socket
// or a continuation. The id is assigned at registration time from the
// dispatcher's counter and is the deterministic tie-break for
// same-instant deliveries.
type dconn struct {
	d  *dispatcher
	id uint64
	handlers
	cont func(arg uint64) // continuation endpoint (Continuation)

	// box is a reader endpoint's mailbox, fixed at registration; nil
	// on an endpoint registered with its handler.
	box *Mailbox[chunk]

	// closed marks a self-closed endpoint: deliveries already in
	// flight are dropped when they fire. It is set under the owning
	// dispatcher's mutex and read atomically on the delivery thread,
	// which a goroutine woken mid-batch may be closing the endpoint
	// under. inflight counts events scheduled but not yet run (bounded
	// endpoints, the packet sockets, cap it at inboxDepth); lastAt is
	// the latest delivery instant scheduled, so a close event never
	// overtakes queued data; closeSent dedups the peer close event.
	// Those three are guarded by the dispatcher's mutex.
	closed   atomic.Bool
	inflight int32
	lastAt   time.Duration

	// closeDelivered dedups the close callback itself: a teardown
	// (forced) close event may coexist with the peer's ordinary close
	// event, and the handler must see EOF exactly once. reader is true
	// until a handler adopts the endpoint. After registration both are
	// touched only on the delivery thread. The four flags share one
	// word, which keeps a dconn in the 96 B size class.
	closeSent, closeDelivered, bounded, reader bool
}

// evKind is what a delivery event does when it fires.
type evKind uint8

const (
	evData       evKind = iota // a write's payload (or a continuation's arg)
	evClose                    // the peer closed, after every queued write
	evForceClose               // teardown's close: delivered even to a closed endpoint
	evAdopt                    // a handler takes over a reader endpoint
)

// vrec is one virtual-clock delivery record. Records live in a slab
// indexed by the wheel event's arg, so scheduling a delivery allocates
// nothing at steady state.
type vrec struct {
	data []byte
	from net.Addr
	arg  uint64 // continuation argument
	dc   *dconn
	kind evKind
}

// dispatcher is the per-Network run-to-completion engine: the clock's
// advancer runs its delivery batches.
type dispatcher struct {
	n  *Network
	vc *VirtualClock

	// Guarded by mu.
	mu      sync.Mutex
	sched   *Scheduler
	recs    []vrec
	freeRec []uint32
	batch   []uint32
	scratch []vrec
	pending atomic.Int64

	connSeq atomic.Uint64

	dispatches atomic.Uint64 // handler deliveries run (ExecStats)
	readerPuts atomic.Uint64 // deliveries handed to reader mailboxes (ExecStats)
}

// dispatcherFor returns the network's dispatcher, creating it on first
// use.
func (n *Network) dispatcherFor() *dispatcher {
	if d := n.disp.Load(); d != nil {
		return d
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if d := n.disp.Load(); d != nil {
		return d
	}
	d := &dispatcher{n: n, vc: n.clock, sched: NewScheduler()}
	n.clock.attachDispatcher(d)
	n.disp.Store(d)
	return d
}

// register creates a dispatch endpoint with the next conn ID.
func (d *dispatcher) register() *dconn {
	return &dconn{d: d, id: d.connSeq.Add(1)}
}

// registerReader creates a reader endpoint whose mailbox holds at most
// depth delivered-but-unread writes.
func (d *dispatcher) registerReader(depth int) *dconn {
	dc := d.register()
	dc.box, dc.reader = NewMailbox[chunk](d.vc, depth), true
	return dc
}

// install gives endpoint dc the handlers h; the caller holds the
// endpoint's receive lock and publishes dc. A reader endpoint keeps
// its dconn, so writes in flight keep their instants and FIFO, but it
// takes a fresh conn ID, as a new registration would, and an adopt
// event at the current instant hands h the unread remainder rest, then
// whatever the mailbox holds by the time it fires.
func (d *dispatcher) install(dc *dconn, h handlers, rest []byte) {
	dc.handlers = h
	if dc.box == nil {
		return
	}
	d.mu.Lock()
	dc.id = d.connSeq.Add(1)
	d.mu.Unlock()
	d.enqueueV(dc, rest, nil, 0, d.vc.nowDur(), evAdopt)
}

// enqueueV schedules one delivery at virtual instant at (duration since
// the clock's base). Caller must not hold d.mu.
func (d *dispatcher) enqueueV(dc *dconn, data []byte, from net.Addr, arg uint64, at time.Duration, kind evKind) {
	d.mu.Lock()
	if (dc.closed.Load() && kind != evForceClose) || (kind == evData && dc.bounded && dc.inflight >= inboxDepth) {
		d.mu.Unlock()
		payloadPut(data)
		return
	}
	dc.inflight++
	var idx uint32
	if n := len(d.freeRec); n > 0 {
		idx = d.freeRec[n-1]
		d.freeRec = d.freeRec[:n-1]
	} else {
		d.recs = append(d.recs, vrec{})
		idx = uint32(len(d.recs) - 1)
	}
	d.recs[idx] = vrec{data: data, from: from, arg: arg, dc: dc, kind: kind}
	// Per-endpoint FIFO: a delivery never overtakes an earlier one on
	// the same conn. Jitter can draw a smaller delay for a later write;
	// it is serialized at the running max instant, as stream byte order
	// requires. Continuation events are timers, not a byte stream: each
	// fires at its own instant. An adopt event runs now, ahead of the
	// instants in flight, and leaves the running max alone.
	if dc.cont == nil && kind != evAdopt {
		if at < dc.lastAt {
			at = dc.lastAt
		} else {
			dc.lastAt = at
		}
	}
	d.sched.AtIndexed(at, uint64(idx))
	d.pending.Add(1)
	d.mu.Unlock()
}

// next reports the earliest instant at or after the wheel's position
// that may hold a delivery. The bound is exact when it comes from the
// wheel's run or its level-0 wheel; an upper-level bound is a lower
// bound only, and the advancer resolves it by advancing the clock (and
// wheel) to the bound and asking again. The wheel flattens the slot
// into its run on that step, so the second answer is exact.
func (d *dispatcher) next() (time.Duration, bool) {
	if d.pending.Load() == 0 {
		return 0, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sched.peekBound()
}

// flush runs every event still queued, instant by instant. Called
// once at clock shutdown: conns closed during world teardown schedule
// their close events here, and with the advancer gone nothing else
// would ever run them — leaving whoever a handler feeds (an
// association's teardown, a goroutine parked on a handler-filled queue)
// waiting for an EOF that never comes. The step cap only guards against
// a pathological handler loop re-scheduling forever at shutdown.
func (d *dispatcher) flush() {
	for i := 0; i < 1<<16 && d.pending.Load() > 0; i++ {
		at, ok := d.next()
		if !ok {
			return
		}
		d.runAt(at)
	}
}

// runAt executes every delivery due at virtual instant `at`,
// run-to-completion: each sub-batch is sorted by conn ID (write order
// within a conn is already preserved by wheel seq order), handlers run
// in that order, and deliveries they schedule for the same instant form
// the next sub-batch until the instant drains. Called by the advancer
// with the clock's mutex released and virtual time already at `at`.
func (d *dispatcher) runAt(at time.Duration) {
	for {
		d.mu.Lock()
		d.batch = d.batch[:0]
		for {
			k, ok := d.sched.popDue(at, true)
			if !ok {
				break
			}
			d.batch = append(d.batch, uint32(k.arg))
			d.sched.live--
		}
		n := len(d.batch)
		if n == 0 {
			d.mu.Unlock()
			break
		}
		d.pending.Add(-int64(n))
		// Copy the records out (and free their slots) so handlers can
		// enqueue — growing d.recs — while we iterate. Stable sort by
		// conn ID; within a conn, wheel seq order (= write order) holds.
		d.scratch = d.scratch[:0]
		for _, idx := range d.batch {
			r := d.recs[idx]
			r.dc.inflight--
			d.scratch = append(d.scratch, r)
			d.recs[idx] = vrec{}
			d.freeRec = append(d.freeRec, idx)
		}
		stableSortByConn(d.scratch)
		d.mu.Unlock()
		for i := range d.scratch {
			d.deliver(&d.scratch[i])
		}
	}
}

// stableSortByConn orders a sub-batch by conn ID, preserving input
// (write) order within each conn. Insertion sort: sub-batches are
// small and usually already sorted.
func stableSortByConn(recs []vrec) {
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j].dc.id < recs[j-1].dc.id; j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
}

// deliver runs one record. The payload buffer is valid only for the
// duration of the handler call.
func (d *dispatcher) deliver(r *vrec) {
	d.run(r.dc, r.dc.closed.Load() && r.kind != evForceClose, r.data, r.from, r.arg, r.kind)
}

// run executes one matured event on its endpoint, on the advancer's
// delivery thread. Only conn and packet deliveries count, as handler
// dispatches or reader puts; continuation events (timers, connection
// arrivals) do not. drop is the endpoint's closed flag as read at
// delivery.
func (d *dispatcher) run(dc *dconn, drop bool, data []byte, from net.Addr, arg uint64, kind evKind) {
	switch {
	case drop: // endpoint closed itself while the event was in flight
		payloadPut(data)
	case dc.cont != nil:
		dc.cont(arg)
	case kind == evAdopt:
		d.adopt(dc, data)
	case dc.reader && kind != evData:
		dc.box.Close() // EOF once the reader drains what is queued
	case dc.reader:
		// The mailbox takes ownership: no copy.
		if dc.box.Put(chunk{data: data, from: from}) {
			d.readerPuts.Add(1)
		} else {
			payloadPut(data)
		}
	case kind != evData:
		d.closeHandler(dc)
	default:
		d.handle(dc, data, from)
	}
}

// handle runs dc's handler on one delivery and recycles the buffer.
func (d *dispatcher) handle(dc *dconn, data []byte, from net.Addr) {
	d.dispatches.Add(1)
	if dc.onPacket != nil {
		dc.onPacket(data, from)
	} else if dc.sink != nil {
		dc.sink.HandleDeliver(data)
	} else {
		dc.onData(data)
	}
	payloadPut(data)
}

// closeHandler tells dc's handler the peer closed, once.
func (d *dispatcher) closeHandler(dc *dconn) {
	if dc.closeDelivered {
		return
	}
	dc.closeDelivered = true
	if dc.sink != nil {
		dc.sink.HandleStreamClose()
	} else if f := dc.onClose; f != nil {
		f()
	}
}

// adopt switches a reader endpoint to the handler install gave it: the
// handler gets the unread remainder rest, then the mailbox's backlog,
// then — if a peer close already closed the mailbox — EOF. Every
// later event on the endpoint finds the handler.
func (d *dispatcher) adopt(dc *dconn, rest []byte) {
	dc.reader = false
	if len(rest) > 0 {
		d.handle(dc, rest, nil)
	}
	for {
		ch, err := dc.box.Recv(0)
		if err != nil {
			if err == ErrClosed && !dc.closed.Load() {
				d.closeHandler(dc)
			}
			return
		}
		d.handle(dc, ch.data, ch.from)
	}
}

// send schedules one delivery to dc after the link delay. data
// ownership transfers to the dispatcher (it is recycled after the
// handler returns, or handed to a reader).
func (d *dispatcher) send(dc *dconn, data []byte, from net.Addr, delay time.Duration) {
	d.sendArg(dc, data, from, 0, delay)
}

// sendArg is send carrying a continuation argument.
func (d *dispatcher) sendArg(dc *dconn, data []byte, from net.Addr, arg uint64, delay time.Duration) {
	d.enqueueV(dc, data, from, arg, d.vc.nowDur()+delay, evData)
}

// sendClose schedules the endpoint's close notification after every
// already-scheduled delivery (a close never overtakes data). An
// ordinary close is sent once. A forced close — world teardown's —
// fires even after the endpoint itself is marked closed: teardown
// closes both ends of every conn administratively, and without the
// force bit the first end's markClosed would drop the second end's
// close event, so a goroutine parked on a handler-fed queue would never
// learn its conn died. It is scheduled before markClosed so it passes
// the enqueue-side closed check.
func (d *dispatcher) sendClose(dc *dconn, force bool) {
	d.mu.Lock()
	if dc.closeSent && !force {
		d.mu.Unlock()
		return
	}
	dc.closeSent = true
	at := dc.lastAt
	d.mu.Unlock()
	if now := d.vc.nowDur(); now > at {
		at = now
	}
	kind := evClose
	if force {
		kind = evForceClose
	}
	d.enqueueV(dc, nil, nil, 0, at, kind)
}

// markClosed marks a self-closed endpoint so deliveries already in
// flight are dropped when they fire.
func (d *dispatcher) markClosed(dc *dconn) {
	d.mu.Lock()
	dc.closed.Store(true)
	d.mu.Unlock()
}

// ExecStats are a world's execution-model counters: how many deliveries
// ran as run-to-completion handler dispatches, how many went to a
// reader endpoint's mailbox for a blocking Read or ReadFrom (the legacy
// receive path), and how many times a registered goroutine parked in
// the virtual clock (sleeps, mailbox receives, blocking reads). The
// dispatches/parks ratio is the direct measure of what the dispatch
// conversion bought.
type ExecStats struct {
	HandlerDispatches uint64
	LegacyDeliveries  uint64
	GoroutineParks    uint64
}

// ExecStats reports the network's execution counters since creation.
func (n *Network) ExecStats() ExecStats {
	var s ExecStats
	if d := n.disp.Load(); d != nil {
		s.HandlerDispatches = d.dispatches.Load()
		s.LegacyDeliveries = d.readerPuts.Load()
	}
	s.GoroutineParks = n.clock.parks.Load()
	return s
}
