// Package simnet provides the two simulation substrates every dLTE
// experiment runs on:
//
//   - Scheduler: a single-threaded virtual-time discrete-event engine
//     — the timing wheel under the virtual clock's delivery dispatcher
//     and the compact million-UE world (E13) — where wall-clock time
//     is irrelevant and determinism is mandatory.
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
// span the slot is flattened — its few keys move straight into the
// sorted run that fires next (see flatten) — or, when the slot is
// crowded or shares its start with another level, cascades down one
// level. Schedule, cancel, and fire are all O(1) amortized (a sparse
// timer is moved twice over its lifetime, a cascading one at most
// wheelLevels times), versus O(log n) per operation for the old
// container/heap queue.
//
// Events are stored by value: a slot is a chain of fixed-size blocks
// of (at, seq, arg) keys, so every wheel walk reads contiguous keys and
// chases one link per blockKeys events. An event is its key and nothing
// else. An At event's key names its slot in a closure table beside the
// wheel; Cancel empties that slot at once, and the wheel drops the key,
// freeing the slot, wherever it next moves it.
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64
	wheelMask   = wheelSlots - 1
	wheelLevels = 11 // 64^11 ns > max time.Duration: any deadline fits

	// flattenMax bounds the run: a slot with more keys cascades instead
	// of being insertion-sorted, and a full run sends further inserts
	// back to the wheel. It is also the run buffer's capacity, so the
	// buffer is allocated once per wheel.
	flattenMax = 64

	maxDuration = time.Duration(1<<63 - 1)

	// Key blocks are carved from slabs of slabBlocks and recycled
	// through a free list, so a million parked timers cost one
	// allocation per slab and zero per event at steady state. 63 blocks
	// of 24-byte keys, with their links, fit one 24 KiB size class.
	blockKeys  = 16
	slabBlocks = 63

	// A wheel's first inlineSlabs slab pointers live in the Scheduler
	// itself, so a small wheel allocates no slab table; past them the
	// table grows by append.
	inlineSlabs = 4

	// fnSlab is the closure table's first capacity, so a wheel that
	// uses At grows it a few times, not once per doubling from one.
	fnSlab = 512
)

// wkey is one queued event, stored by value in a slot's block chain
// and in the run: its firing key (at, seq) and its payload. seq steps
// by 2 per event and its low bit marks an At event, whose arg is its
// slot in Scheduler.fns; an AtIndexed event's arg is the OnIndexed
// payload, all 64 bits of it. A key holds no pointer, so key slabs are
// never scanned by the GC.
type wkey struct {
	at  time.Duration
	seq uint64
	arg uint64
}

// blockSlab is one allocation of key blocks. Block references are
// uint32s, slab<<6 | (i+1), so the zero reference ends a chain and
// marks an empty slot.
type blockSlab struct {
	keys [slabBlocks][blockKeys]wkey
	next [slabBlocks]uint32 // chain link toward older blocks; free-list link while vacant
}

// slotChain is one wheel slot: a chain of key blocks, newest first.
// The head block holds n keys; every block behind it is full, so a
// chain's key count needs no key reads.
type slotChain struct {
	head uint32
	n    uint32
}

// fnSlot is one closure-table entry: a queued At event's callback, nil
// once canceled. The slot stays taken until the wheel fires or drops
// the event's key; user code only ever holds the Event value handle.
type fnSlot struct {
	fn   func()
	gen  uint64 // bumped when the slot is freed; stale Event handles check it
	next uint32 // free-list link while vacant
}

// EventBytes is the in-memory size of one parked indexed event — the
// per-timer cost a compact world accounts per idle UE.
var EventBytes = int(unsafe.Sizeof(wkey{}))

// Event is a cancelable handle to a scheduled callback. It is a value:
// the zero Event is valid and Cancel/At on it are no-ops. Handles stay
// safe after the event fires — the scheduler recycles the table slot
// and a generation check turns stale cancels into no-ops.
type Event struct {
	s    *Scheduler
	at   time.Duration
	gen  uint64
	slot uint32
}

// Cancel prevents the event from firing. Canceling an already-fired,
// already-canceled, or zero Event is a no-op. The callback is released
// at once; the event's key and table slot are reclaimed when the wheel
// next moves the key, at the latest when it passes the event's instant.
func (ev Event) Cancel() {
	if ev.s == nil {
		return
	}
	if f := &ev.s.fns[ev.slot]; f.gen == ev.gen && f.fn != nil {
		f.fn = nil
		ev.s.live--
		ev.s.canceled++
	}
}

// At reports the virtual time the event was scheduled for.
func (ev Event) At() time.Duration { return ev.at }

// Scheduler is a deterministic virtual-time event loop. It is not safe
// for concurrent use: all events run on the caller's goroutine, in
// timestamp order with FIFO tie-breaking.
type Scheduler struct {
	now      time.Duration
	seq      uint64
	live     int // queued, non-canceled events
	canceled int // queued keys of canceled At events

	slots    [wheelLevels][wheelSlots]slotChain
	occupied [wheelLevels]uint64 // bitmap of non-empty slots per level

	// due is the run: keys taken off the wheel and not yet fired, sorted
	// by (at, seq); dueIdx is the dispatch cursor. It holds either one
	// instant's batch (a level-0 slot) or a flattened upper slot's keys.
	// The wheel holds nothing before spanEnd, so the run's head is the
	// next event and an insert before spanEnd joins the run.
	due     []wkey
	dueIdx  int
	spanEnd time.Duration

	slabs     []*blockSlab
	slabs0    [inlineSlabs]*blockSlab // slabs' first backing array
	freeBlock uint32

	fns    []fnSlot // fns[0] is never handed out: 0 ends the free list
	freeFn uint32

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

// block resolves a block reference to its slab and index there.
func (s *Scheduler) block(b uint32) (*blockSlab, uint32) {
	return s.slabs[b>>6], b&63 - 1
}

// newBlock takes a vacant key block, carving a fresh slab when none is
// left.
func (s *Scheduler) newBlock() uint32 {
	if s.freeBlock == 0 {
		if s.slabs == nil {
			s.slabs = s.slabs0[:0]
		}
		sl := new(blockSlab)
		base := uint32(len(s.slabs)) << 6
		s.slabs = append(s.slabs, sl)
		for i := slabBlocks; i > 0; i-- { // hand out ascending references
			sl.next[i-1] = s.freeBlock
			s.freeBlock = base | uint32(i)
		}
	}
	b := s.freeBlock
	sl, i := s.block(b)
	s.freeBlock = sl.next[i]
	return b
}

// releaseBlock returns block b to the free list and reports the block
// after it in its chain.
func (s *Scheduler) releaseBlock(b uint32) uint32 {
	sl, i := s.block(b)
	next := sl.next[i]
	sl.next[i] = s.freeBlock
	s.freeBlock = b
	return next
}

// newFn takes a vacant closure-table slot for fn.
func (s *Scheduler) newFn(fn func()) uint32 {
	i := s.freeFn
	if i == 0 {
		if s.fns == nil {
			s.fns = make([]fnSlot, 1, fnSlab)
		}
		s.fns = append(s.fns, fnSlot{fn: fn})
		return uint32(len(s.fns) - 1)
	}
	f := &s.fns[i]
	s.freeFn, f.fn, f.next = f.next, fn, 0
	return i
}

// releaseFn returns table slot i to the free list, bumping its generation
// so outstanding handles go stale.
func (s *Scheduler) releaseFn(i uint32) {
	f := &s.fns[i]
	*f = fnSlot{gen: f.gen + 1, next: s.freeFn}
	s.freeFn = i
}

// dead reports the key of a canceled At event.
func (s *Scheduler) dead(k wkey) bool {
	return k.seq&1 != 0 && s.fns[k.arg].fn == nil
}

// keep reports whether k stays queued. A canceled At event's key is
// dropped instead, its table slot freed.
func (s *Scheduler) keep(k wkey) bool {
	if !s.dead(k) {
		return true
	}
	s.releaseFn(uint32(k.arg))
	s.canceled--
	return false
}

// enqueue queues an event at t (>= s.now) with a fresh seq carrying
// mark in its low bit: in the run when its instant lies inside the open
// span, on the wheel otherwise.
func (s *Scheduler) enqueue(t time.Duration, mark, arg uint64) {
	s.seq += 2
	k := wkey{at: t, seq: s.seq | mark, arg: arg}
	if k.at < s.spanEnd {
		s.joinRun(k)
	} else {
		s.insert(k)
	}
	s.live++
}

// joinRun places k in the run after every entry at or before its
// instant — k carries the largest seq issued so far. A full run instead
// closes the span at k's instant: k and the entries after it go (back)
// to the wheel, which keeps an insert O(flattenMax) however many land
// inside one span.
func (s *Scheduler) joinRun(k wkey) {
	run := s.due[s.dueIdx:]
	// The first entry after k's instant: the comparison never reports a
	// match, so equal instants sort before k.
	lo, _ := slices.BinarySearchFunc(run, k.at, func(r wkey, at time.Duration) int {
		if r.at > at {
			return 1
		}
		return -1
	})
	if len(run) >= flattenMax {
		for _, r := range run[lo:] {
			if s.keep(r) {
				s.insert(r)
			}
		}
		s.due = s.due[:s.dueIdx+lo]
		s.spanEnd = k.at
		s.insert(k)
		return
	}
	if s.dueIdx > 0 && len(s.due) == cap(s.due) {
		n := copy(s.due, run)
		s.due, s.dueIdx = s.due[:n], 0
	}
	s.due = append(s.due, wkey{})
	run = s.due[s.dueIdx:]
	copy(run[lo+1:], run[lo:])
	run[lo] = k
}

// insert files k (at >= s.now) on the wheel, at the tail of its slot's
// head block.
func (s *Scheduler) insert(k wkey) {
	at, now := uint64(k.at), uint64(s.now)
	lv := 0
	if delta := at - now; delta > 0 {
		lv = (bits.Len64(delta) - 1) / wheelBits
	}
	// A delta just under a level's span can still land on that level's
	// current position (a full revolution ahead, which would fire one
	// revolution late); bump such events one level up, where their slot
	// is strictly ahead. A single bump always suffices.
	for lv < wheelLevels-1 && (at>>(uint(lv)*wheelBits))-(now>>(uint(lv)*wheelBits)) >= wheelSlots {
		lv++
	}
	slot := int((at >> (uint(lv) * wheelBits)) & wheelMask)
	l := &s.slots[lv][slot]
	if l.head == 0 || l.n == blockKeys {
		b := s.newBlock()
		sl, i := s.block(b)
		sl.next[i] = l.head
		l.head, l.n = b, 0
	}
	sl, i := s.block(l.head)
	sl.keys[i][l.n] = k
	l.n++
	s.occupied[lv] |= 1 << uint(slot)
}

// At schedules fn to run at virtual time t. Scheduling in the past runs
// the event at the current time (it will still fire after all events
// already due). The returned Event may be used to cancel.
func (s *Scheduler) At(t time.Duration, fn func()) Event {
	if fn == nil {
		panic("simnet: Scheduler.At with nil fn")
	}
	t = max(t, s.now)
	i := s.newFn(fn)
	s.enqueue(t, 1, uint64(i))
	return Event{s: s, at: t, gen: s.fns[i].gen, slot: i}
}

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn func()) Event {
	return s.At(s.now+d, fn)
}

// AtIndexed schedules a closure-free event: when it fires, the
// scheduler calls OnIndexed(arg). There is no handle and no table slot
// — the event is its key — so compact worlds pay EventBytes per parked
// timer and zero allocations per schedule at steady state. A timer
// that must stop firing is skipped by the handler (the arg encodes
// enough state to tell), not canceled.
func (s *Scheduler) AtIndexed(t time.Duration, arg uint64) {
	s.enqueue(max(t, s.now), 0, arg)
}

// nextOf reports the block after b in its chain.
func (s *Scheduler) nextOf(b uint32) uint32 {
	sl, i := s.block(b)
	return sl.next[i]
}

// pullSlot drains level-0 slot (all keys share at == s.now) into the
// run in seq order.
func (s *Scheduler) pullSlot(slot int) {
	l := &s.slots[0][slot]
	for b, n := l.head, l.n; b != 0; b, n = s.releaseBlock(b), blockKeys {
		sl, i := s.block(b)
		for _, k := range sl.keys[i][:n] {
			if s.keep(k) {
				s.due = append(s.due, k)
			}
		}
	}
	*l = slotChain{}
	s.occupied[0] &^= 1 << uint(slot)
	if len(s.due) > 1 {
		slices.SortFunc(s.due, func(a, b wkey) int {
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
// every live key re-inserts at a strictly lower level.
func (s *Scheduler) cascade(level, slot int) {
	l := &s.slots[level][slot]
	head, n := l.head, l.n
	*l = slotChain{}
	s.occupied[level] &^= 1 << uint(slot)
	for b := head; b != 0; b, n = s.releaseBlock(b), blockKeys {
		sl, i := s.block(b)
		for _, k := range sl.keys[i][:n] {
			if s.keep(k) {
				s.insert(k)
			}
		}
	}
}

// purge empties a slot that holds only canceled keys, and reports
// whether it did. The clock must not move to such a slot: time only
// ever advances to an event that fires (or to a RunUntil limit), and
// a later past-time At clamps to wherever it stands.
func (s *Scheduler) purge(level, slot int) bool {
	l := &s.slots[level][slot]
	for b, n := l.head, l.n; b != 0; b, n = s.nextOf(b), blockKeys {
		sl, i := s.block(b)
		for _, k := range sl.keys[i][:n] {
			if !s.dead(k) {
				return false
			}
		}
	}
	s.cascade(level, slot) // drops every key, re-inserts none
	return true
}

// flatten moves an upper-level slot's keys straight into the run,
// insertion-sorted by (at, seq), instead of re-filing them one level
// down at a time. The caller has established (scan's alone) that the
// rest of the wheel holds nothing before the end of the slot's span, so
// the sorted run is exactly the wheel's next events. A slot of more
// than flattenMax keys is left in place for cascade; flatten then
// reports false, having counted the chain by its links alone.
func (s *Scheduler) flatten(level, slot int) bool {
	l := &s.slots[level][slot]
	count := int(l.n)
	for b := s.nextOf(l.head); b != 0; b = s.nextOf(b) {
		if count += blockKeys; count > flattenMax {
			return false
		}
	}
	run := s.due[:0]
	for b, n := l.head, l.n; b != 0; b, n = s.releaseBlock(b), blockKeys {
		sl, i := s.block(b)
		for _, k := range sl.keys[i][:n] {
			if !s.keep(k) {
				continue
			}
			j := len(run)
			run = append(run, k)
			for ; j > 0 && (run[j-1].at > k.at || run[j-1].at == k.at && run[j-1].seq > k.seq); j-- {
				run[j] = run[j-1]
			}
			run[j] = k
		}
	}
	*l = slotChain{}
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
// event, exactly, when the run holds one; otherwise scan's bound — a
// lower bound, exact from level 0 unless canceled keys sit there.
// ok=false means no live event is queued.
func (s *Scheduler) peekBound() (time.Duration, bool) {
	if s.live == 0 {
		return 0, false
	}
	for _, k := range s.due[s.dueIdx:] {
		if !s.dead(k) {
			return k.at, true
		}
	}
	_, start, _ := s.scan()
	return start, true
}

// nextDue refills the empty run from the wheel's next occupied position
// at or before limit, advancing the clock to it, and reports whether it
// found one. A level-0 slot yields one instant's batch. An upper-level
// slot is flattened into a run over its whole span when it is alone and
// small; otherwise it cascades one level down — before any level-0
// instant at the same time fires, so same-instant events always merge
// into one seq-sorted batch — and the search repeats. A slot of
// canceled keys only is purged where it stands.
func (s *Scheduler) nextDue(limit time.Duration) bool {
	if s.due == nil {
		s.due = make([]wkey, 0, flattenMax) // the wheel's one run buffer
	}
	for {
		level, start, alone := s.scan()
		if level < 0 || start > limit {
			return false
		}
		shift := uint(level) * wheelBits
		slot := int((uint64(start) >> shift) & wheelMask)
		if s.canceled > 0 && s.purge(level, slot) {
			continue
		}
		if start > s.now {
			s.now = start
		}
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
// clock to its instant; ok is false when there is none. With nothing
// left by limit the clock moves to limit if advance is set (safe: the
// run's head and every occupied slot's span then lie after limit).
func (s *Scheduler) popDue(limit time.Duration, advance bool) (k wkey, ok bool) {
	for {
		if s.dueIdx == len(s.due) {
			s.due, s.dueIdx = s.due[:0], 0
			if !s.nextDue(limit) {
				break
			}
		}
		k = s.due[s.dueIdx]
		if k.at > limit {
			break
		}
		s.dueIdx++
		if !s.keep(k) {
			continue
		}
		s.now = k.at
		return k, true
	}
	if advance && limit > s.now {
		s.now = limit
	}
	return wkey{}, false
}

// runEvent dispatches one popped event. An At event's table slot is
// freed before its callback runs, so the callback may schedule into it
// and its own handle is already stale.
func (s *Scheduler) runEvent(k wkey) {
	s.live--
	if k.seq&1 == 0 {
		if h := s.OnIndexed; h != nil {
			h(k.arg)
		}
		return
	}
	fn := s.fns[k.arg].fn
	s.releaseFn(uint32(k.arg))
	fn()
}

// Step runs the single next event, if any, advancing virtual time to it.
// It reports whether an event ran.
func (s *Scheduler) Step() bool {
	k, ok := s.popDue(maxDuration, false)
	if ok {
		s.runEvent(k)
	}
	return ok
}

// RunUntil runs events in order until the queue is empty or the next
// event is later than t, then advances time to exactly t.
func (s *Scheduler) RunUntil(t time.Duration) {
	for {
		k, ok := s.popDue(t, true)
		if !ok {
			return
		}
		s.runEvent(k)
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
