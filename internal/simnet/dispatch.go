package simnet

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the run-to-completion dispatch core (DESIGN.md §14).
//
// A Conn or PacketConn with a registered handler no longer delivers
// through a mailbox to a parked reader goroutine: each write
// becomes a closure-free delivery event and the receiver's handler runs
// inline when the event fires. Under a VirtualClock the events live on
// the PR 7 timing wheel and the clock's advancer executes each
// instant's batch in deterministic (delivery instant, conn ID) order —
// the same admission-order convention epc's detGate uses — with no
// mailbox, no barrier, no park/unpark, and no settle round for pure
// handler-to-handler hops. Under the wall clock, delivery is a per-conn
// FIFO drained inline by whichever goroutine finds the dispatcher idle;
// nested writes from inside a handler flatten into the active drain
// loop instead of recursing, so a handler may write (even back into the
// conn whose send triggered it) without re-entering application locks.

// inboxDepth bounds a packet socket's receive queue: datagrams beyond
// it drop, modeling kernel receive-buffer overflow. Handler-mode
// sockets deliver through the dispatcher and never queue.
const inboxDepth = 1024

// dconn is one registered dispatch endpoint: a stream half-pipe or a
// packet socket whose deliveries run through handlers. The id is
// assigned at registration time from the dispatcher's counter and is
// the deterministic tie-break for same-instant deliveries.
type dconn struct {
	d  *dispatcher
	id uint64

	sink     StreamHandler                    // interface-form stream handler
	onData   func(data []byte)                // stream payload handler
	onPacket func(data []byte, from net.Addr) // datagram handler
	onClose  func()                           // stream EOF handler
	cont     func(arg uint64)                 // continuation endpoint (Continuation)

	// closed marks a self-closed endpoint: deliveries already in
	// flight are dropped when they fire. closeSent dedups the peer
	// close event. lastAt is the latest delivery instant scheduled to
	// this endpoint, so a close event never overtakes queued data.
	// All three are guarded by the owning dispatcher's mutexes.
	closed    bool
	closeSent bool
	lastAt    time.Duration

	// closeDelivered dedups the close callback itself: a teardown
	// (forced) close event may coexist with the peer's ordinary close
	// event, and the handler must see EOF exactly once. Touched only
	// on the engine's single delivery thread.
	closeDelivered bool

	// bounded endpoints (packet sockets) cap scheduled-but-undelivered
	// datagrams at inboxDepth, preserving the legacy inbox's
	// receive-buffer overflow drops. inflight is guarded by the active
	// engine's mutex.
	bounded  bool
	inflight int

	// Wall-clock engine state: the per-conn FIFO and its scheduling
	// flags, guarded by dispatcher.wmu. wtimer is the conn's reusable
	// head-of-line maturity timer — allocated once, re-armed with Reset,
	// so a future-dated delivery costs no timer allocation at steady
	// state.
	wq         []wrec
	ready      bool
	timerArmed bool
	wtimer     *time.Timer
}

// wrec is one wall-clock delivery: payload, source, and the wall
// instant it matures (zero = deliverable immediately).
type wrec struct {
	data    []byte
	from    net.Addr
	arg     uint64 // continuation argument
	at      time.Time
	isClose bool
	force   bool // teardown close: deliver even to a closed endpoint
}

// vrec is one virtual-clock delivery record. Records live in a slab
// indexed by the wheel event's arg, so scheduling a delivery allocates
// nothing at steady state.
type vrec struct {
	data    []byte
	from    net.Addr
	arg     uint64 // continuation argument
	dc      *dconn
	isClose bool
	force   bool // teardown close: deliver even to a closed endpoint
}

// dispatcher is the per-Network run-to-completion engine. Exactly one
// of the two engines is active: the virtual engine (vc != nil) runs
// delivery batches from the clock's advancer; the wall engine drains
// per-conn FIFOs inline on writer goroutines.
type dispatcher struct {
	n  *Network
	vc *VirtualClock // nil = wall engine

	// Virtual engine, guarded by mu.
	mu      sync.Mutex
	sched   *Scheduler
	recs    []vrec
	freeRec []uint32
	batch   []uint32
	scratch []vrec
	pending atomic.Int64

	// woke notes that a delivery batch did something the quiescence
	// detector cannot see on its own — an explicit Poke — so the
	// advancer must run a settle round before moving time again.
	woke atomic.Bool

	connSeq atomic.Uint64

	dispatches atomic.Uint64 // handler deliveries run (ExecStats)

	// Wall engine, guarded by wmu.
	wmu      sync.Mutex
	readyQ   []*dconn
	draining bool
}

// dispatcherFor returns the network's dispatcher, creating it on first
// handler registration.
func (n *Network) dispatcherFor() *dispatcher {
	if d := n.disp.Load(); d != nil {
		return d
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if d := n.disp.Load(); d != nil {
		return d
	}
	d := &dispatcher{n: n}
	if vc, ok := n.clock.(*VirtualClock); ok {
		d.vc = vc
		d.sched = NewScheduler()
		vc.attachDispatcher(d)
	}
	n.disp.Store(d)
	return d
}

// register creates a dispatch endpoint with the next conn ID.
func (d *dispatcher) register() *dconn {
	return &dconn{d: d, id: d.connSeq.Add(1)}
}

// --- Virtual engine --------------------------------------------------

// enqueueV schedules one delivery at virtual instant at (duration since
// the clock's base). Caller must not hold d.mu.
func (d *dispatcher) enqueueV(dc *dconn, data []byte, from net.Addr, arg uint64, at time.Duration, isClose, force bool) {
	d.mu.Lock()
	if (dc.closed && !force) || (dc.bounded && dc.inflight >= inboxDepth) {
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
	d.recs[idx] = vrec{data: data, from: from, arg: arg, dc: dc, isClose: isClose, force: force}
	// Per-endpoint FIFO: a delivery never overtakes an earlier one on
	// the same conn. Jitter can draw a smaller delay for a later write;
	// the legacy queue serialized those at the running max instant, and
	// stream byte order (and differential equivalence) depends on the
	// dispatcher doing the same. Continuation events are timers, not a
	// byte stream: each fires at its own instant.
	if dc.cont == nil {
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
// wheel) to the bound and asking again — exactly how delivery barriers
// already move time without firing anything. The wheel flattens the
// slot into its run on that step, so the second answer is exact.
func (d *dispatcher) next() (time.Duration, bool) {
	if d.pending.Load() == 0 {
		return 0, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sched.peekBound()
}

// flush runs every event still queued on the virtual engine, instant
// by instant. Called once at clock shutdown: conns closed during world
// teardown schedule their close events here, and with the advancer
// gone nothing else would ever run them — leaving whoever a handler
// feeds (an association's teardown, a goroutine parked on a
// handler-filled queue) waiting for an EOF that never comes. The step
// cap only guards against a pathological handler loop re-scheduling
// forever at shutdown.
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
// the next sub-batch until the instant drains. It reports whether the
// batch might have made a registered goroutine runnable behind the
// clock's back (a Poke happened), which tells the advancer whether the
// next step needs a settle round. Called by the advancer with the clock's
// mutex released and virtual time already at `at`.
func (d *dispatcher) runAt(at time.Duration) bool {
	d.woke.Store(false)
	for {
		d.mu.Lock()
		d.batch = d.batch[:0]
		for {
			e := d.sched.popDue(at, true)
			if e == nil {
				break
			}
			d.batch = append(d.batch, uint32(e.arg))
			d.sched.live--
			d.sched.recycle(e)
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
	return d.woke.Load()
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

// deliver runs one virtual-engine record. The payload buffer is valid
// only for the duration of the handler call.
func (d *dispatcher) deliver(r *vrec) {
	d.run(r.dc, r.dc.closed && !r.force, r.data, r.from, r.arg, r.isClose)
}

// run executes one matured event on its endpoint — both engines funnel
// here, on their single delivery thread. Only conn and packet
// deliveries count as handler dispatches; continuation events (timers,
// connection arrivals) do not. drop is the endpoint's closed flag as
// read under the engine's lock.
func (d *dispatcher) run(dc *dconn, drop bool, data []byte, from net.Addr, arg uint64, isClose bool) {
	switch {
	case drop: // endpoint closed itself while the event was in flight
		payloadPut(data)
	case dc.cont != nil:
		dc.cont(arg)
	case isClose:
		if dc.closeDelivered {
			return
		}
		dc.closeDelivered = true
		if dc.sink != nil {
			dc.sink.HandleStreamClose()
		} else if f := dc.onClose; f != nil {
			f()
		}
	default:
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
}

// Poke tells a virtual clock that the calling handler made a goroutine
// runnable through something other than a simnet write — a send on an
// application channel, a cond broadcast — so the clock must settle the
// scheduler before advancing time. Handlers that only write simnet
// conns never need it; it is a no-op on wall clocks.
func Poke(clk Clock) {
	if vc, ok := clk.(*VirtualClock); ok {
		vc.Poke()
	}
}

// --- Wall engine -----------------------------------------------------

// enqueueW appends one delivery to the endpoint's FIFO and drains the
// dispatcher if no goroutine is already draining. Deliveries mature in
// write order per conn; a head-of-line delivery with a future instant
// arms a real timer rather than stalling the drain loop.
//
// A continuation endpoint's events are timers rather than a stream, so
// they queue in maturity order instead of write order.
func (d *dispatcher) enqueueW(dc *dconn, data []byte, from net.Addr, arg uint64, at time.Time, isClose, force bool) {
	d.wmu.Lock()
	d.queueW(dc, data, from, arg, at, isClose, force)
	d.scheduleW(dc)
}

// queueW is the append half of enqueueW; caller holds d.wmu. Split out
// so handler installation can migrate buffered data under the pipe's
// own lock without running handlers there (kickW drains afterwards).
func (d *dispatcher) queueW(dc *dconn, data []byte, from net.Addr, arg uint64, at time.Time, isClose, force bool) {
	if (dc.closed && !force) || (dc.bounded && dc.inflight >= inboxDepth) {
		payloadPut(data)
		return
	}
	dc.inflight++
	if dc.wq == nil {
		dc.wq = make([]wrec, 0, 8)
	}
	dc.wq = append(dc.wq, wrec{data: data, from: from, arg: arg, at: at, isClose: isClose, force: force})
	if dc.cont != nil {
		i := len(dc.wq) - 1
		for ; i > 0 && dc.wq[i-1].at.After(at); i-- {
			dc.wq[i], dc.wq[i-1] = dc.wq[i-1], dc.wq[i]
		}
		if i == 0 && dc.timerArmed {
			// The armed timer covers the old head; the new one is earlier.
			dc.wtimer.Reset(time.Until(at))
		}
	}
}

// kickW drains whatever migration queued on dc. No-op on the virtual
// engine, whose advancer finds the events on the wheel.
func (d *dispatcher) kickW(dc *dconn) {
	if d.vc == nil {
		d.wmu.Lock()
		d.scheduleW(dc)
	}
}

// armTimerW arms dc's reusable maturity timer for the given wait.
// Caller holds d.wmu; timerArmed must be false.
func (d *dispatcher) armTimerW(dc *dconn, wait time.Duration) {
	dc.timerArmed = true
	if dc.wtimer == nil {
		dc.wtimer = time.AfterFunc(wait, func() {
			d.wmu.Lock()
			dc.timerArmed = false
			d.scheduleW(dc)
		})
		return
	}
	dc.wtimer.Reset(wait)
}

// scheduleW marks dc ready (or arms its maturity timer) and drains if
// idle. Caller holds d.wmu; released on return.
func (d *dispatcher) scheduleW(dc *dconn) {
	if !dc.ready && len(dc.wq) > 0 {
		head := dc.wq[0]
		if head.at.IsZero() || !head.at.After(time.Now()) {
			dc.ready = true
			d.readyQ = append(d.readyQ, dc)
		} else if !dc.timerArmed {
			d.armTimerW(dc, time.Until(head.at))
		}
	}
	if d.draining || len(d.readyQ) == 0 {
		d.wmu.Unlock()
		return
	}
	d.draining = true
	d.drainW()
}

// drainW runs ready deliveries until none remain. Caller holds d.wmu
// with draining set; released on return. Handlers run with the lock
// dropped, so a handler writing to any conn — including the one whose
// send started this drain — only enqueues; the loop here picks the
// write up after the handler returns, flattening what would otherwise
// be recursion through application locks.
func (d *dispatcher) drainW() {
	for len(d.readyQ) > 0 {
		dc := d.readyQ[0]
		copy(d.readyQ, d.readyQ[1:])
		d.readyQ = d.readyQ[:len(d.readyQ)-1]
		for len(dc.wq) > 0 {
			head := dc.wq[0]
			if !head.at.IsZero() && head.at.After(time.Now()) {
				break
			}
			copy(dc.wq, dc.wq[1:])
			dc.wq = dc.wq[:len(dc.wq)-1]
			dc.inflight--
			drop := dc.closed && !head.force
			d.wmu.Unlock()
			d.run(dc, drop, head.data, head.from, head.arg, head.isClose)
			d.wmu.Lock()
		}
		dc.ready = false
		if len(dc.wq) > 0 {
			d.scheduleTimerW(dc)
		}
	}
	d.draining = false
	d.wmu.Unlock()
}

// scheduleTimerW arms dc's head-of-line maturity timer. Caller holds
// d.wmu.
func (d *dispatcher) scheduleTimerW(dc *dconn) {
	if dc.timerArmed || len(dc.wq) == 0 {
		return
	}
	head := dc.wq[0]
	if head.at.IsZero() || !head.at.After(time.Now()) {
		// Already mature (delivered next drain round): re-ready.
		dc.ready = true
		d.readyQ = append(d.readyQ, dc)
		return
	}
	d.armTimerW(dc, time.Until(head.at))
}

// --- Shared entry points ---------------------------------------------

// send schedules one delivery to dc after the link delay, dispatching
// to whichever engine the network runs on. data ownership transfers to
// the dispatcher (it is recycled after the handler returns).
func (d *dispatcher) send(dc *dconn, data []byte, from net.Addr, delay time.Duration) {
	d.sendArg(dc, data, from, 0, delay)
}

// sendArg is send carrying a continuation argument.
func (d *dispatcher) sendArg(dc *dconn, data []byte, from net.Addr, arg uint64, delay time.Duration) {
	if d.vc != nil {
		d.enqueueV(dc, data, from, arg, d.vc.nowDur()+delay, false, false)
		return
	}
	var at time.Time
	if delay > 0 {
		at = time.Now().Add(delay)
	}
	d.enqueueW(dc, data, from, arg, at, false, false)
}

// migrateChunk re-registers a delivery that was buffered on the legacy
// path before the handler existed, preserving its original delivery
// instant (and releasing its delivery barrier — the dispatcher's
// pending count now holds time back instead). Callers are running
// goroutines, so a virtual clock cannot advance mid-migration. It only
// queues: the caller holds the pipe's lock, which a handler writing
// back into the pipe would need, so the wall engine's inline drain
// waits for kickW after the lock is dropped.
func (d *dispatcher) migrateChunk(dc *dconn, ch chunk, from net.Addr) {
	if d.vc != nil {
		at := d.vc.nowDur()
		if !ch.at.IsZero() {
			if t := ch.at.Sub(d.vc.base); t > at {
				at = t
			}
		}
		d.enqueueV(dc, ch.data, from, 0, at, false, false)
		d.vc.releaseBarrier(ch.bar)
		return
	}
	d.wmu.Lock()
	d.queueW(dc, ch.data, from, 0, ch.at, false, false)
	d.wmu.Unlock()
}

// migrateDatagram is migrateChunk for a packet socket's buffered
// datagrams.
func (d *dispatcher) migrateDatagram(dc *dconn, dg datagram) {
	if d.vc != nil {
		at := d.vc.nowDur()
		if !dg.at.IsZero() {
			if t := dg.at.Sub(d.vc.base); t > at {
				at = t
			}
		}
		d.enqueueV(dc, dg.data, dg.from, 0, at, false, false)
		d.vc.releaseBarrier(dg.bar)
		return
	}
	d.wmu.Lock()
	d.queueW(dc, dg.data, dg.from, 0, dg.at, false, false)
	d.wmu.Unlock()
}

// sendClose schedules the endpoint's close notification after every
// already-scheduled delivery (a close never overtakes data).
func (d *dispatcher) sendClose(dc *dconn) {
	if d.vc != nil {
		d.mu.Lock()
		if dc.closeSent {
			d.mu.Unlock()
			return
		}
		dc.closeSent = true
		at := dc.lastAt
		d.mu.Unlock()
		if now := d.vc.nowDur(); now > at {
			at = now
		}
		d.enqueueV(dc, nil, nil, 0, at, true, false)
		return
	}
	d.wmu.Lock()
	if dc.closeSent {
		d.wmu.Unlock()
		return
	}
	dc.closeSent = true
	d.wmu.Unlock()
	d.enqueueW(dc, nil, nil, 0, time.Time{}, true, false)
}

// sendCloseForce schedules a close notification that fires even after
// the endpoint itself is marked closed. World teardown closes both
// ends of every conn administratively; without the force bit the first
// end's markClosed would drop the second end's close event, and a
// goroutine parked on a handler-fed queue would never learn its conn
// died. Scheduled before markClosed so it passes the enqueue-side
// closed check regardless of engine.
func (d *dispatcher) sendCloseForce(dc *dconn) {
	if d.vc != nil {
		d.mu.Lock()
		dc.closeSent = true
		at := dc.lastAt
		d.mu.Unlock()
		if now := d.vc.nowDur(); now > at {
			at = now
		}
		d.enqueueV(dc, nil, nil, 0, at, true, true)
		return
	}
	d.wmu.Lock()
	dc.closeSent = true
	d.wmu.Unlock()
	d.enqueueW(dc, nil, nil, 0, time.Time{}, true, true)
}

// markClosed marks a self-closed endpoint so deliveries already in
// flight are dropped when they fire.
func (d *dispatcher) markClosed(dc *dconn) {
	if d.vc != nil {
		d.mu.Lock()
		dc.closed = true
		d.mu.Unlock()
		return
	}
	d.wmu.Lock()
	dc.closed = true
	d.wmu.Unlock()
}

// ExecStats are a world's execution-model counters: how many deliveries
// ran as run-to-completion handler dispatches, how many took the legacy
// mailbox path to a blocking reader, and how many times a registered
// goroutine parked in the virtual clock (sleeps, blocking reads,
// delivery holds). The dispatches/parks ratio is the direct measure of
// what the dispatch conversion bought.
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
	}
	s.LegacyDeliveries = n.legacyDeliveries.Load()
	if vc, ok := n.clock.(*VirtualClock); ok {
		s.GoroutineParks = vc.parks.Load()
	}
	return s
}

// noteLegacyDelivery counts a legacy mailbox enqueue. The wake of a
// parked reader is the mailbox's, tracked by the clock.
func (n *Network) noteLegacyDelivery() { n.legacyDeliveries.Add(1) }
