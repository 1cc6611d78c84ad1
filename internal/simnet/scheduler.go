// Package simnet provides the two simulation substrates every dLTE
// experiment runs on:
//
//   - Scheduler: a single-threaded virtual-time discrete-event engine
//     used by the radio/PHY simulations and the compact million-UE
//     worlds (E13), where wall-clock time is irrelevant and
//     determinism is mandatory.
//
//   - Network: an in-memory packet/stream network with per-link latency,
//     bandwidth, loss, and failure injection, exposing net.Conn-style
//     endpoints so the real protocol stacks (NAS, S1AP, GTP, X2,
//     registry, transport) run unmodified over simulated WANs and over
//     real sockets.
package simnet

import (
	"math/bits"
	"slices"
	"time"
	"unsafe"
)

// The scheduler is a hierarchical timing wheel: wheelLevels wheels of
// wheelSlots slots each, where a level-k slot spans 64^k nanoseconds of
// virtual time. Level 0 resolves single instants; an event whose
// deadline is further out parks in the coarsest wheel that still
// separates it from the current time. When the clock reaches its slot's
// span the slot is flattened — its few records move straight into the
// sorted run that fires next (see flatten) — or, when the slot is
// crowded or shares its start with another level, cascades down one
// level. Schedule, cancel, and fire are all O(1) amortized (a sparse
// timer is moved twice over its lifetime, a cascading one at most
// wheelLevels times), versus O(log n) per operation for the old
// container/heap queue — and cancellation reclaims the event slot
// immediately instead of pinning it in the heap until its deadline.
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64
	wheelMask   = wheelSlots - 1
	wheelLevels = 11 // 64^11 ns > max time.Duration: any deadline fits

	// flattenMax bounds the run: a slot with more records cascades
	// instead of being insertion-sorted, and a full run sends further
	// inserts back to the wheel. It is also the run buffer's capacity,
	// so the buffer is allocated once per wheel.
	flattenMax = 64

	maxDuration = time.Duration(1<<63 - 1)

	// Events are arena-allocated in slabs and recycled through a free
	// list, so a million parked timers cost one allocation per
	// eventSlab and zero per event at steady state.
	eventSlab = 512
)

// wevent is the wheel's internal event record. It lives in a slab and
// is recycled (generation-bumped) after firing or cancellation; user
// code only ever holds the Event value handle.
type wevent struct {
	at   time.Duration
	seq  uint64
	gen  uint64 // bumped on recycle; stale Event handles check it
	prev *wevent
	next *wevent
	// armed is the queued chain link of an Every control record; nil
	// for ordinary events.
	armed *wevent
	fn    func()
	arg   uint64 // payload for fn == nil (indexed) events
	level uint8
	slot  uint8
	flags uint8
}

const (
	wfLinked uint8 = 1 << iota // on a wheel slot list
	wfDue                      // queued in the run, not yet fired
	wfDead                     // canceled while due or firing; skip and recycle
)

// EventBytes is the in-memory size of one parked event record — the
// per-timer cost a compact world accounts per idle UE.
var EventBytes = int(unsafe.Sizeof(wevent{}))

// Event is a cancelable handle to a scheduled callback. It is a value:
// the zero Event is valid and Cancel/At on it are no-ops. Handles stay
// safe after the event fires — the scheduler recycles the underlying
// record and a generation check turns stale cancels into no-ops.
type Event struct {
	s   *Scheduler
	e   *wevent
	gen uint64
	at  time.Duration
}

// Cancel prevents the event from firing. Canceling an already-fired,
// already-canceled, or zero Event is a no-op. The event's record is
// reclaimed immediately (or, mid-dispatch, as soon as the current
// instant finishes) instead of lingering until its deadline.
func (ev Event) Cancel() {
	if ev.s == nil || ev.e == nil || ev.e.gen != ev.gen {
		return
	}
	ev.s.cancelEvent(ev.e)
}

// At reports the virtual time the event was scheduled for.
func (ev Event) At() time.Duration { return ev.at }

// slotList is an intrusive doubly-linked list threaded through wevent
// prev/next pointers; one per wheel slot.
type slotList struct {
	head, tail *wevent
}

// Scheduler is a deterministic virtual-time event loop. It is not safe
// for concurrent use: all events run on the caller's goroutine, in
// timestamp order with FIFO tie-breaking.
type Scheduler struct {
	now  time.Duration
	seq  uint64
	live int // queued, non-canceled events

	slots    [wheelLevels][wheelSlots]slotList
	occupied [wheelLevels]uint64 // bitmap of non-empty slots per level

	// due is the run: records taken off the wheel and not yet fired,
	// sorted by (at, seq); dueIdx is the dispatch cursor. It holds either
	// one instant's batch (a level-0 slot) or a flattened upper slot's
	// records. The wheel holds nothing before spanEnd, so the run's head
	// is the next event and an insert before spanEnd joins the run.
	due     []*wevent
	dueIdx  int
	spanEnd time.Duration

	free  *wevent
	slabs int // slabs ever allocated (diagnostic; see storeCap)

	// OnIndexed dispatches events scheduled with AtIndexed: closure-free
	// timers for compact worlds, where arg encodes the target endpoint.
	// It must be set before the first such event fires.
	OnIndexed func(arg uint64)
}

// NewScheduler returns a Scheduler at virtual time zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now reports the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

func (s *Scheduler) alloc() *wevent {
	e := s.free
	if e == nil {
		slab := make([]wevent, eventSlab)
		s.slabs++
		for i := range slab {
			slab[i].next = s.free
			s.free = &slab[i]
		}
		e = s.free
	}
	s.free = e.next
	e.next = nil
	return e
}

// recycle returns a record to the free list, bumping its generation so
// outstanding handles go stale.
func (s *Scheduler) recycle(e *wevent) {
	e.gen++
	e.fn = nil
	e.arg = 0
	e.prev = nil
	e.armed = nil
	e.flags = 0
	e.next = s.free
	s.free = e
}

// enqueue queues e (with at/seq set, at >= s.now): in the run when its
// instant lies inside the open span, on the wheel otherwise.
func (s *Scheduler) enqueue(e *wevent) {
	if e.at < s.spanEnd {
		s.joinRun(e)
	} else {
		s.insert(e)
	}
	s.live++
}

// joinRun places e in the run after every entry at or before its
// instant — e carries the largest seq issued so far. A full run instead
// closes the span at e's instant: e and the entries after it go (back)
// to the wheel, which keeps an insert O(flattenMax) however many land
// inside one span.
func (s *Scheduler) joinRun(e *wevent) {
	run := s.due[s.dueIdx:]
	// The first entry after e's instant: the comparison never reports a
	// match, so equal instants sort before e.
	lo, _ := slices.BinarySearchFunc(run, e.at, func(r *wevent, at time.Duration) int {
		if r.at > at {
			return 1
		}
		return -1
	})
	if len(run) >= flattenMax {
		for _, r := range run[lo:] {
			if r.flags&wfDead != 0 {
				s.recycle(r)
				continue
			}
			r.flags &^= wfDue
			s.insert(r)
		}
		clear(run[lo:])
		s.due = s.due[:s.dueIdx+lo]
		s.spanEnd = e.at
		s.insert(e)
		return
	}
	if s.dueIdx > 0 && len(s.due) == cap(s.due) {
		n := copy(s.due, run)
		clear(s.due[n:])
		s.due, s.dueIdx = s.due[:n], 0
	}
	s.due = append(s.due, nil)
	run = s.due[s.dueIdx:]
	copy(run[lo+1:], run[lo:])
	run[lo] = e
	e.flags |= wfDue
}

// insert links e (with at/seq set, at >= s.now) into the wheel.
func (s *Scheduler) insert(e *wevent) {
	at, now := uint64(e.at), uint64(s.now)
	k := 0
	if delta := at - now; delta > 0 {
		k = (bits.Len64(delta) - 1) / wheelBits
	}
	// A delta just under a level's span can still land on that level's
	// current position (a full revolution ahead, which would fire one
	// revolution late); bump such events one level up, where their slot
	// is strictly ahead. A single bump always suffices.
	for k < wheelLevels-1 && (at>>(uint(k)*wheelBits))-(now>>(uint(k)*wheelBits)) >= wheelSlots {
		k++
	}
	slot := int((at >> (uint(k) * wheelBits)) & wheelMask)
	e.level, e.slot = uint8(k), uint8(slot)
	e.flags |= wfLinked
	l := &s.slots[k][slot]
	e.prev = l.tail
	e.next = nil
	if l.tail != nil {
		l.tail.next = e
	} else {
		l.head = e
	}
	l.tail = e
	s.occupied[k] |= 1 << uint(slot)
}

func (s *Scheduler) unlink(e *wevent) {
	l := &s.slots[e.level][e.slot]
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
	e.flags &^= wfLinked
	if l.head == nil {
		s.occupied[e.level] &^= 1 << uint(e.slot)
	}
}

// At schedules fn to run at virtual time t. Scheduling in the past runs
// the event at the current time (it will still fire after all events
// already due). The returned Event may be used to cancel.
func (s *Scheduler) At(t time.Duration, fn func()) Event {
	if fn == nil {
		panic("simnet: Scheduler.At with nil fn")
	}
	if t < s.now {
		t = s.now
	}
	e := s.alloc()
	s.seq++
	e.at, e.seq, e.fn = t, s.seq, fn
	s.enqueue(e)
	return Event{s: s, e: e, gen: e.gen, at: t}
}

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn func()) Event {
	return s.At(s.now+d, fn)
}

// AtIndexed schedules a closure-free event: when it fires, the
// scheduler calls OnIndexed(arg). There is no handle — the record is
// recycled on firing — so compact worlds pay EventBytes per parked
// timer and zero allocations per schedule at steady state. A timer
// that must stop firing is skipped by the handler (the arg encodes
// enough state to tell), not canceled.
func (s *Scheduler) AtIndexed(t time.Duration, arg uint64) {
	if t < s.now {
		t = s.now
	}
	e := s.alloc()
	s.seq++
	e.at, e.seq, e.arg = t, s.seq, arg
	s.enqueue(e)
}

// Every schedules fn to run at t, t+period, t+2·period, … until the
// returned Event is canceled.
func (s *Scheduler) Every(start, period time.Duration, fn func()) Event {
	if fn == nil {
		panic("simnet: Scheduler.Every with nil fn")
	}
	// One chain link and one closure serve the whole chain: each firing
	// requeues the same record instead of allocating per period — the
	// dominant allocation in long PHY simulations. The control record
	// exists only to give Cancel a stable target; it is never queued.
	ctl := s.alloc()
	link := s.alloc()
	ctl.armed = link
	ctl.at = 0
	ctlGen := ctl.gen
	next := start
	link.fn = func() {
		if ctl.gen != ctlGen || ctl.flags&wfDead != 0 {
			return
		}
		fn()
		if ctl.gen != ctlGen || ctl.flags&wfDead != 0 {
			return // fn canceled the chain; do not re-arm
		}
		next += period
		t := next
		if t < s.now {
			t = s.now
		}
		s.seq++
		link.at, link.seq = t, s.seq
		s.enqueue(link)
	}
	// Clamp only the queued time: `next` keeps the raw chain phase, so a
	// past start still yields firings at start+period, start+2·period, …
	t0 := next
	if t0 < s.now {
		t0 = s.now
	}
	s.seq++
	link.at, link.seq = t0, s.seq
	s.enqueue(link)
	return Event{s: s, e: ctl, gen: ctlGen, at: 0}
}

// cancelEvent handles a live (generation-matched) cancel.
func (s *Scheduler) cancelEvent(e *wevent) {
	if e.flags&wfDead != 0 {
		return
	}
	if l := e.armed; l != nil {
		// Every control: kill the queued chain link, reclaim the
		// control record.
		e.armed = nil
		e.flags |= wfDead // closure may observe this before the gen bump
		s.cancelQueued(l)
		s.recycle(e)
		return
	}
	s.cancelQueued(e)
}

// cancelQueued cancels an event in whatever dispatch state it is in:
// parked in the wheel (unlink and reclaim now), queued in the run (flag
// dead; popDue reclaims it when it reaches the head), or currently
// firing (flag dead; runEvent reclaims it after fn returns).
func (s *Scheduler) cancelQueued(e *wevent) {
	switch {
	case e.flags&wfLinked != 0:
		s.unlink(e)
		s.live--
		s.recycle(e)
	case e.flags&wfDue != 0:
		e.flags |= wfDead
		s.live--
	default:
		e.flags |= wfDead
	}
}

// pullSlot drains level-0 slot (all events share at == s.now) into the
// run in seq order.
func (s *Scheduler) pullSlot(slot int) {
	l := &s.slots[0][slot]
	for e := l.head; e != nil; {
		n := e.next
		e.prev, e.next = nil, nil
		e.flags = e.flags&^wfLinked | wfDue
		s.due = append(s.due, e)
		e = n
	}
	l.head, l.tail = nil, nil
	s.occupied[0] &^= 1 << uint(slot)
	if len(s.due) > 1 {
		slices.SortFunc(s.due, func(a, b *wevent) int {
			switch {
			case a.seq < b.seq:
				return -1
			case a.seq > b.seq:
				return 1
			}
			return 0
		})
	}
}

// cascade empties an upper-level slot whose span the clock has reached;
// every event re-inserts at a strictly lower level.
func (s *Scheduler) cascade(level, slot int) {
	l := &s.slots[level][slot]
	head := l.head
	l.head, l.tail = nil, nil
	s.occupied[level] &^= 1 << uint(slot)
	for e := head; e != nil; {
		n := e.next
		e.prev, e.next = nil, nil
		e.flags &^= wfLinked
		s.insert(e)
		e = n
	}
}

// flatten moves an upper-level slot's records straight into the run,
// insertion-sorted by (at, seq), instead of re-linking them one level
// down at a time. The caller has established (scan's alone) that the
// rest of the wheel holds nothing before the end of the slot's span, so
// the sorted run is exactly the wheel's next events. A slot of more
// than flattenMax records is left in place for cascade; flatten then
// reports false.
func (s *Scheduler) flatten(level, slot int) bool {
	l := &s.slots[level][slot]
	run := s.due[:0]
	for e := l.head; e != nil; e = e.next {
		if len(run) == flattenMax {
			clear(run)
			return false
		}
		i := len(run)
		run = append(run, e)
		for ; i > 0 && (run[i-1].at > e.at || run[i-1].at == e.at && run[i-1].seq > e.seq); i-- {
			run[i] = run[i-1]
		}
		run[i] = e
	}
	// prev/next go stale here: nothing reads them off a wfDue record,
	// and insert and recycle overwrite them.
	for _, e := range run {
		e.flags = e.flags&^wfLinked | wfDue
	}
	l.head, l.tail = nil, nil
	s.occupied[level] &^= 1 << uint(slot)
	s.due = run
	return true
}

// scan finds the wheel's earliest occupied position at or after now:
// an exact instant on level 0, or an upper-level slot's span start.
// level is -1 when the wheel is empty. An upper slot wins a tie with a
// level-0 instant: it may hold same-instant events with smaller seq,
// which must merge into the batch before it fires. alone reports that
// the rest of the wheel holds nothing before the end of the chosen
// upper slot's span — every level below it is empty and no other
// level's slot starts at the same instant (slots further up start on
// multiples of this level's span, so the next one is a whole span on).
func (s *Scheduler) scan() (level int, start time.Duration, alone bool) {
	now := uint64(s.now)
	level = -1
	for k := 1; k < wheelLevels; k++ {
		bm := s.occupied[k]
		if bm == 0 {
			continue
		}
		shift := uint(k) * wheelBits
		pos := int((now >> shift) & wheelMask)
		// Distance 0 is valid: once the clock lands on an occupied
		// slot's span start (common when several levels share one
		// boundary), that slot is next. Inserts never target the current
		// position (the bump rule keeps them strictly ahead), so an
		// emptied slot stays empty and the wheel always descends.
		d := bits.TrailingZeros64(bits.RotateLeft64(bm, -pos))
		st := time.Duration(((now >> shift) + uint64(d)) << shift)
		switch {
		case level < 0:
			level, start, alone = k, st, true
		case st < start:
			level, start, alone = k, st, false // the lower level is occupied
		case st == start:
			alone = false
		}
	}
	if bm := s.occupied[0]; bm != 0 {
		pos := int(now & wheelMask)
		d := bits.TrailingZeros64(bits.RotateLeft64(bm, -pos))
		if cand := s.now + time.Duration(d); level < 0 || cand < start {
			return 0, cand, false
		}
		alone = false
	}
	return level, start, alone
}

// peekBound is the read-only half of popDue: the instant of the next
// event, exactly, when the run holds one; otherwise scan's bound — exact
// from level 0, a lower bound (the slot's span start) from an upper
// level. ok=false means nothing is queued.
func (s *Scheduler) peekBound() (time.Duration, bool) {
	for _, e := range s.due[s.dueIdx:] {
		if e.flags&wfDead == 0 {
			return e.at, true
		}
	}
	level, start, _ := s.scan()
	return start, level >= 0
}

// nextDue refills the empty run from the wheel's next occupied position
// at or before limit, advancing the clock to it, and reports whether it
// found one. A level-0 slot yields one instant's batch. An upper-level
// slot is flattened into a run over its whole span when it is alone and
// small; otherwise it cascades one level down — before any level-0
// instant at the same time fires, so same-instant events always merge
// into one seq-sorted batch — and the search repeats.
func (s *Scheduler) nextDue(limit time.Duration) bool {
	if s.due == nil {
		s.due = make([]*wevent, 0, flattenMax) // the wheel's one run buffer
	}
	for {
		level, start, alone := s.scan()
		if level < 0 || start > limit {
			return false
		}
		if start > s.now {
			s.now = start
		}
		shift := uint(level) * wheelBits
		slot := int((uint64(start) >> shift) & wheelMask)
		switch {
		case level == 0:
			s.pullSlot(slot)
			return true
		case alone && s.flatten(level, slot):
			s.spanEnd = start + 1<<shift
			if s.spanEnd < start {
				// The last span before the horizon. An insert at
				// maxDuration itself then parks on the wheel, which is
				// still in order: its seq follows every run entry's.
				s.spanEnd = maxDuration
			}
			return true
		default:
			s.cascade(level, slot)
		}
	}
}

// popDue returns the next live event at or before limit, moving the
// clock to its instant, or nil. With nothing left by limit the clock
// moves to limit if advance is set (safe: the run's head and every
// occupied slot's span then lie after limit).
func (s *Scheduler) popDue(limit time.Duration, advance bool) *wevent {
	for {
		if s.dueIdx == len(s.due) {
			s.due, s.dueIdx = s.due[:0], 0
			if !s.nextDue(limit) {
				break
			}
		}
		e := s.due[s.dueIdx]
		if e.at > limit {
			break
		}
		s.due[s.dueIdx] = nil
		s.dueIdx++
		e.flags &^= wfDue
		if e.flags&wfDead != 0 {
			s.recycle(e)
			continue
		}
		s.now = e.at
		return e
	}
	if advance && limit > s.now {
		s.now = limit
	}
	return nil
}

// runEvent dispatches one popped event and reclaims its record unless
// it re-queued itself (an Every chain link, back on the wheel or in the
// run).
func (s *Scheduler) runEvent(e *wevent) {
	s.live--
	if e.fn == nil {
		arg := e.arg
		s.recycle(e)
		if h := s.OnIndexed; h != nil {
			h(arg)
		}
		return
	}
	e.fn()
	if e.flags&(wfLinked|wfDue) == 0 {
		s.recycle(e)
	}
}

// Step runs the single next event, if any, advancing virtual time to it.
// It reports whether an event ran.
func (s *Scheduler) Step() bool {
	e := s.popDue(maxDuration, false)
	if e == nil {
		return false
	}
	s.runEvent(e)
	return true
}

// RunUntil runs events in order until the queue is empty or the next
// event is later than t, then advances time to exactly t.
func (s *Scheduler) RunUntil(t time.Duration) {
	for {
		e := s.popDue(t, true)
		if e == nil {
			return
		}
		s.runEvent(e)
	}
}

// Run drains the event queue completely. Use RunUntil for simulations
// with self-perpetuating periodic events.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// Pending reports the number of live queued events.
func (s *Scheduler) Pending() int { return s.live }

// storeCap reports the event-record capacity ever allocated; storeFree
// walks the free list. Together they let tests assert that cancellation
// actually reclaims records (live + free == cap, with free growing on
// cancel) instead of pinning them until their deadline.
func (s *Scheduler) storeCap() int { return s.slabs * eventSlab }

func (s *Scheduler) storeFree() int {
	n := 0
	for e := s.free; e != nil; e = e.next {
		n++
	}
	return n
}
