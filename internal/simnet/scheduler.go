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
// span the slot is flattened — its few keys move straight into the
// sorted run that fires next (see flatten) — or, when the slot is
// crowded or shares its start with another level, cascades down one
// level. Schedule, cancel, and fire are all O(1) amortized (a sparse
// timer is moved twice over its lifetime, a cascading one at most
// wheelLevels times), versus O(log n) per operation for the old
// container/heap queue — and cancellation reclaims the event slot
// immediately instead of pinning it in the heap until its deadline.
//
// Events are stored by value: a slot is a chain of fixed-size blocks
// of (at, seq, arg, rec) keys, so every wheel walk reads contiguous
// keys and chases one link per blockKeys events. An AtIndexed event is
// its key and nothing else; only closure events (At, Every) keep a
// record, for their func and their cancel handle.
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
	// of 16 keys, with their links, fill one 32 KiB size class.
	blockKeys  = 16
	slabBlocks = 63

	// A wheel's first inlineSlabs slab pointers live in the Scheduler
	// itself, so a small wheel allocates no slab table; past them the
	// table grows by append.
	inlineSlabs = 4

	// recSlab is the closure-record table's first capacity, so a wheel
	// that uses At or Every grows it a few times, not once per doubling
	// from one.
	recSlab = 512
)

// wkey is one queued event, stored by value in a slot's block chain
// and in the run: its firing key (at, seq) and either the OnIndexed
// payload or the closure record it belongs to. It holds no pointer, so
// key slabs are never scanned by the GC.
type wkey struct {
	at  time.Duration
	seq uint64
	arg uint64 // OnIndexed payload when rec == 0
	rec uint32 // closure event's record in Scheduler.recs; 0 for an indexed event
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

// wrec is a closure event's record: what its key cannot carry by
// value. Records live in Scheduler.recs, indexed by wkey.rec, and are
// recycled (generation-bumped) after firing or cancellation; user code
// only ever holds the Event value handle.
type wrec struct {
	fn  func()
	gen uint64 // bumped on recycle; stale Event handles check it
	// armed is the queued chain link of an Every control record; 0 for
	// ordinary events.
	armed uint32
	// blk and pos locate the key while wfLinked, with level and slot
	// naming its slot. blk is the free-list link while vacant.
	blk   uint32
	pos   uint8
	level uint8
	slot  uint8
	flags uint8
}

const (
	wfLinked uint8 = 1 << iota // key on a wheel slot
	wfDue                      // key queued in the run, not yet fired
	wfDead                     // canceled while due or firing; skip and recycle
)

// EventBytes is the in-memory size of one parked indexed event — the
// per-timer cost a compact world accounts per idle UE.
var EventBytes = int(unsafe.Sizeof(wkey{}))

// Event is a cancelable handle to a scheduled callback. It is a value:
// the zero Event is valid and Cancel/At on it are no-ops. Handles stay
// safe after the event fires — the scheduler recycles the underlying
// record and a generation check turns stale cancels into no-ops.
type Event struct {
	s   *Scheduler
	at  time.Duration
	gen uint64
	rec uint32
}

// Cancel prevents the event from firing. Canceling an already-fired,
// already-canceled, or zero Event is a no-op. The event's slot is
// reclaimed immediately (or, mid-dispatch, as soon as the current
// instant finishes) instead of lingering until its deadline.
func (ev Event) Cancel() {
	if ev.s == nil || ev.s.recs[ev.rec].gen != ev.gen {
		return
	}
	ev.s.cancelEvent(ev.rec)
}

// At reports the virtual time the event was scheduled for.
func (ev Event) At() time.Duration { return ev.at }

// Scheduler is a deterministic virtual-time event loop. It is not safe
// for concurrent use: all events run on the caller's goroutine, in
// timestamp order with FIFO tie-breaking.
type Scheduler struct {
	now  time.Duration
	seq  uint64
	live int // queued, non-canceled events

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

	recs    []wrec // recs[0] is never handed out: rec 0 marks an indexed key
	freeRec uint32

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

// newRec takes a vacant closure record.
func (s *Scheduler) newRec() uint32 {
	r := s.freeRec
	if r == 0 {
		if s.recs == nil {
			s.recs = make([]wrec, 1, recSlab)
		}
		s.recs = append(s.recs, wrec{})
		return uint32(len(s.recs) - 1)
	}
	s.freeRec = s.recs[r].blk
	s.recs[r].blk = 0
	return r
}

// recycle returns a record to the free list, bumping its generation so
// outstanding handles go stale.
func (s *Scheduler) recycle(r uint32) {
	rc := &s.recs[r]
	*rc = wrec{gen: rc.gen + 1, blk: s.freeRec}
	s.freeRec = r
}

// dead reports a closure key whose event was canceled after it reached
// the run.
func (s *Scheduler) dead(k wkey) bool {
	return k.rec != 0 && s.recs[k.rec].flags&wfDead != 0
}

// markDue moves a closure key's record from the wheel to the run.
func (s *Scheduler) markDue(k wkey) {
	if k.rec != 0 {
		rc := &s.recs[k.rec]
		rc.flags = rc.flags&^wfLinked | wfDue
	}
}

// enqueue queues k (at >= s.now): in the run when its instant lies
// inside the open span, on the wheel otherwise.
func (s *Scheduler) enqueue(k wkey) {
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
			if s.dead(r) {
				s.recycle(r.rec)
				continue
			}
			if r.rec != 0 {
				s.recs[r.rec].flags &^= wfDue
			}
			s.insert(r)
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
	if k.rec != 0 {
		s.recs[k.rec].flags |= wfDue
	}
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
	if k.rec != 0 {
		rc := &s.recs[k.rec]
		rc.blk, rc.pos, rc.level, rc.slot = l.head, uint8(l.n), uint8(lv), uint8(slot)
		rc.flags |= wfLinked
	}
	l.n++
	s.occupied[lv] |= 1 << uint(slot)
}

// unlink takes closure record r's key off its wheel slot: the slot's
// last key (the head block's tail) moves into the hole, so Cancel stays
// O(1) and the chain keeps every block but its head full.
func (s *Scheduler) unlink(r uint32) {
	rc := &s.recs[r]
	l := &s.slots[rc.level][rc.slot]
	hs, hi := s.block(l.head)
	last := l.n - 1
	if rc.blk != l.head || uint32(rc.pos) != last {
		moved := hs.keys[hi][last]
		sl, i := s.block(rc.blk)
		sl.keys[i][rc.pos] = moved
		if moved.rec != 0 {
			m := &s.recs[moved.rec]
			m.blk, m.pos = rc.blk, rc.pos
		}
	}
	l.n = last
	if last == 0 {
		l.head, l.n = s.releaseBlock(l.head), blockKeys
		if l.head == 0 {
			l.n = 0
			s.occupied[rc.level] &^= 1 << uint(rc.slot)
		}
	}
	rc.flags &^= wfLinked
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
	r := s.newRec()
	s.recs[r].fn = fn
	s.requeue(r, t)
	return Event{s: s, rec: r, gen: s.recs[r].gen, at: t}
}

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn func()) Event {
	return s.At(s.now+d, fn)
}

// AtIndexed schedules a closure-free event: when it fires, the
// scheduler calls OnIndexed(arg). There is no handle and no record —
// the event is its key — so compact worlds pay EventBytes per parked
// timer and zero allocations per schedule at steady state. A timer
// that must stop firing is skipped by the handler (the arg encodes
// enough state to tell), not canceled.
func (s *Scheduler) AtIndexed(t time.Duration, arg uint64) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.enqueue(wkey{at: t, seq: s.seq, arg: arg})
}

// requeue queues closure record r at t (clamped to now) with a fresh seq.
func (s *Scheduler) requeue(r uint32, t time.Duration) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.enqueue(wkey{at: t, seq: s.seq, rec: r})
}

// Every schedules fn to run at t, t+period, t+2·period, … until the
// returned Event is canceled. period must be positive.
func (s *Scheduler) Every(start, period time.Duration, fn func()) Event {
	if fn == nil {
		panic("simnet: Scheduler.Every with nil fn")
	}
	if period <= 0 {
		// It would re-arm at the instant it fires, forever.
		panic("simnet: Scheduler.Every with non-positive period")
	}
	// One chain link and one closure serve the whole chain: each firing
	// requeues the same record instead of allocating per period — the
	// dominant allocation in long PHY simulations. The control record
	// exists only to give Cancel a stable target; it is never queued.
	ctl, link := s.newRec(), s.newRec()
	s.recs[ctl].armed = link
	ctlGen := s.recs[ctl].gen
	next := start
	s.recs[link].fn = func() {
		if !s.chainLive(ctl, ctlGen) {
			return
		}
		fn()
		if !s.chainLive(ctl, ctlGen) {
			return // fn canceled the chain; do not re-arm
		}
		next += period
		s.requeue(link, next)
	}
	// Clamp only the queued time: `next` keeps the raw chain phase, so a
	// past start still yields firings at start+period, start+2·period, …
	s.requeue(link, next)
	return Event{s: s, rec: ctl, gen: ctlGen}
}

// chainLive reports that the Every control record ctl is still the
// uncanceled generation gen.
func (s *Scheduler) chainLive(ctl uint32, gen uint64) bool {
	c := &s.recs[ctl]
	return c.gen == gen && c.flags&wfDead == 0
}

// cancelEvent handles a live (generation-matched) cancel.
func (s *Scheduler) cancelEvent(r uint32) {
	rc := &s.recs[r]
	if rc.flags&wfDead != 0 {
		return
	}
	if l := rc.armed; l != 0 {
		// Every control: kill the queued chain link, reclaim the
		// control record.
		rc.armed = 0
		rc.flags |= wfDead // closure may observe this before the gen bump
		s.cancelQueued(l)
		s.recycle(r)
		return
	}
	s.cancelQueued(r)
}

// cancelQueued cancels an event in whatever dispatch state it is in:
// parked in the wheel (unlink and reclaim now), queued in the run (flag
// dead; popDue reclaims it when it reaches the head), or currently
// firing (flag dead; runEvent reclaims it after fn returns).
func (s *Scheduler) cancelQueued(r uint32) {
	rc := &s.recs[r]
	switch {
	case rc.flags&wfLinked != 0:
		s.unlink(r)
		s.live--
		s.recycle(r)
	case rc.flags&wfDue != 0:
		rc.flags |= wfDead
		s.live--
	default:
		rc.flags |= wfDead
	}
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
			s.markDue(k)
			s.due = append(s.due, k)
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
// every key re-inserts at a strictly lower level.
func (s *Scheduler) cascade(level, slot int) {
	l := &s.slots[level][slot]
	head, n := l.head, l.n
	*l = slotChain{}
	s.occupied[level] &^= 1 << uint(slot)
	for b := head; b != 0; b, n = s.releaseBlock(b), blockKeys {
		sl, i := s.block(b)
		for _, k := range sl.keys[i][:n] {
			s.insert(k)
		}
	}
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
			j := len(run)
			run = append(run, k)
			for ; j > 0 && (run[j-1].at > k.at || run[j-1].at == k.at && run[j-1].seq > k.seq); j-- {
				run[j] = run[j-1]
			}
			run[j] = k
			s.markDue(k)
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
// event, exactly, when the run holds one; otherwise scan's bound — exact
// from level 0, a lower bound (the slot's span start) from an upper
// level. ok=false means nothing is queued.
func (s *Scheduler) peekBound() (time.Duration, bool) {
	for _, k := range s.due[s.dueIdx:] {
		if !s.dead(k) {
			return k.at, true
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
		s.due = make([]wkey, 0, flattenMax) // the wheel's one run buffer
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
		if k.rec != 0 {
			rc := &s.recs[k.rec]
			rc.flags &^= wfDue
			if rc.flags&wfDead != 0 {
				s.recycle(k.rec)
				continue
			}
		}
		s.now = k.at
		return k, true
	}
	if advance && limit > s.now {
		s.now = limit
	}
	return wkey{}, false
}

// runEvent dispatches one popped event and reclaims a closure event's
// record unless it re-queued itself (an Every chain link, back on the
// wheel or in the run).
func (s *Scheduler) runEvent(k wkey) {
	s.live--
	if k.rec == 0 {
		if h := s.OnIndexed; h != nil {
			h(k.arg)
		}
		return
	}
	s.recs[k.rec].fn()
	if s.recs[k.rec].flags&(wfLinked|wfDue) == 0 {
		s.recycle(k.rec)
	}
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

// storeCap reports the closure-record capacity ever allocated;
// storeFree walks the free list. Together they let tests assert that
// cancellation actually reclaims records (live + free == cap, with free
// growing on cancel) instead of pinning them until their deadline.
// blocksInUse does the same for key blocks.
func (s *Scheduler) storeCap() int { return max(len(s.recs)-1, 0) }

func (s *Scheduler) storeFree() int {
	n := 0
	for r := s.freeRec; r != 0; r = s.recs[r].blk {
		n++
	}
	return n
}

func (s *Scheduler) blocksInUse() int {
	n := len(s.slabs) * slabBlocks
	for b := s.freeBlock; b != 0; b = s.nextOf(b) {
		n--
	}
	return n
}
