package simnet

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"dlte/internal/leaktest"
)

// ---- differential property test: wheel vs reference heap ----------------

const (
	opAt = iota
	opAtIndexed
	opEvery
	opCancel
	opRunUntil
	opStep
	numOpKinds
)

type schedOp struct {
	kind      int
	t         time.Duration // absolute: At/AtIndexed target, Every start, RunUntil limit
	period    time.Duration
	stopAfter int // Every: self-cancel from inside fn after this many fires
	cancelIdx int
	kids      []kidOp // At/AtIndexed: what the callback does when it fires
}

// A kidOp is one action of a firing callback. Scheduling from inside a
// callback is what reaches the wheel's open-span states: the leaf lands
// in the run when the parent was flattened, on the wheel otherwise.
const (
	kidAfter    = iota // schedule a leaf d after the firing instant (0: the instant itself)
	kidBlockEnd        // schedule a leaf d after the last nanosecond of the aligned 64^level ns block holding the firing instant — the open span's edge when the parent came off that level
	kidCancel          // cancel top-level handle idx, fired or not
	numKidKinds
)

type kidOp struct {
	kind    int
	d       time.Duration
	level   int
	idx     int
	indexed bool // the leaf is an AtIndexed record
}

// farOffset draws a delay that parks on wheel level 2..6 (4 µs .. 73 min).
func farOffset(rng *rand.Rand) time.Duration {
	span := int64(1) << (uint(2+rng.Intn(5)) * wheelBits)
	return time.Duration(span + rng.Int63n(63*span))
}

// genSchedOps builds a deterministic randomized workload mixing every
// scheduler operation across time scales that exercise all wheel
// levels (ns .. hundreds of seconds), including past-time clamps,
// external cancels in every dispatch state, self-canceling chains,
// callbacks that schedule into (and past the edges of) an open span and
// cancel records that have not fired yet, closure-free records, Step
// between RunUntils, limits a few ns either side of a scheduled
// instant, and bursts of flattenMax±1 records in one slot. sparse
// scripts schedule little and run often, so most slots hold one record
// and take the flattened path; dense ones mostly cascade.
func genSchedOps(seed int64, n int, sparse bool) []schedOp {
	rng := rand.New(rand.NewSource(seed))
	scales := []time.Duration{
		time.Nanosecond, time.Microsecond, time.Millisecond,
		time.Second, 100 * time.Second,
	}
	var ops []schedOp
	var targets []time.Duration
	now := time.Duration(0)
	handles := 0
	off := func() time.Duration {
		if sparse {
			return farOffset(rng)
		}
		d := time.Duration(rng.Int63n(200)) * scales[rng.Intn(len(scales))]
		if rng.Intn(8) == 0 {
			d = -d // past target: exercises the clamp-to-now path
		}
		return d
	}
	kids := func() []kidOp {
		if rng.Intn(3) != 0 {
			return nil
		}
		m := 1 + rng.Intn(3)
		if rng.Intn(16) == 0 {
			m = flattenMax + rng.Intn(8) // overflow the run
		}
		ks := make([]kidOp, m)
		for j := range ks {
			k := kidOp{indexed: rng.Intn(2) == 0}
			switch r := rng.Intn(8); {
			case r < 4:
				k.kind = kidAfter
				if rng.Intn(4) != 0 {
					k.d = time.Duration(rng.Int63n(100_000) + 1)
				}
			case r < 6:
				k.kind, k.level, k.d = kidBlockEnd, 1+rng.Intn(6), time.Duration(rng.Intn(2))
			default:
				k.kind, k.idx = kidCancel, rng.Intn(handles+4) // may name a handle made later
			}
			ks[j] = k
		}
		return ks
	}
	schedule := func(kind int, t time.Duration, ks []kidOp) {
		ops = append(ops, schedOp{kind: kind, t: t, kids: ks})
		targets = append(targets, t)
		if kind == opAt {
			handles++
		}
	}
	for i := 0; i < n; i++ {
		k := rng.Intn(16)
		if sparse && k < 8 && rng.Intn(2) == 0 {
			k = 15 // run more, schedule less
		}
		switch {
		case k < 3:
			schedule(opAt, now+off(), kids())
		case k < 5:
			schedule(opAtIndexed, now+off(), kids())
		case k < 7:
			period := time.Duration(rng.Int63n(50*int64(scales[rng.Intn(len(scales))])) + 1)
			ops = append(ops, schedOp{
				kind: opEvery, t: now + off(), period: period,
				stopAfter: 1 + rng.Intn(8), // always bounded: chains self-cancel
			})
			handles++
		case k == 7:
			// One slot's worth of records around the flatten bound; the
			// first cancels a few of its slot-mates when it fires.
			base, step := now+farOffset(rng), time.Duration(1+rng.Intn(3))
			m := flattenMax - 1 + rng.Intn(3)
			mates := []kidOp{
				{kind: kidCancel, idx: handles + 1},
				{kind: kidCancel, idx: handles + 1 + rng.Intn(m-1)},
			}
			for j := 0; j < m; j++ {
				schedule(opAt, base+time.Duration(j)*step, mates)
				mates = nil
			}
		case k < 11 && handles > 0:
			ops = append(ops, schedOp{kind: opCancel, cancelIdx: rng.Intn(handles)})
		case k == 11:
			ops = append(ops, schedOp{kind: opStep})
		case k == 12 && len(targets) > 0:
			// A limit within 2 µs of a scheduled instant: inside its span.
			if t := targets[rng.Intn(len(targets))] + time.Duration(rng.Int63n(4001)-2000); t > now {
				now = t
				ops = append(ops, schedOp{kind: opRunUntil, t: now})
			}
		default:
			now += time.Duration(rng.Int63n(100*int64(scales[rng.Intn(len(scales))])) + 1)
			ops = append(ops, schedOp{kind: opRunUntil, t: now})
		}
	}
	ops = append(ops, schedOp{kind: opRunUntil, t: now + 2*time.Hour})
	return ops
}

// schedDriver adapts one scheduler implementation to the op script.
type schedDriver struct {
	now       func() time.Duration
	at        func(t time.Duration, fn func()) func()
	atIndexed func(t time.Duration, arg uint64)
	onIndexed func(h func(arg uint64))
	every     func(start, period time.Duration, fn func()) func()
	runUntil  func(t time.Duration)
	step      func() bool
	pending   func() int
	peek      func() peekRec
}

type fireRec struct {
	at time.Duration
	id int // op index; a callback's k-th leaf is -(op*256+k+1)
}

// peekRec is what a scheduler says about its next event between ops.
// exact marks a bound promised to be the next firing instant itself.
type peekRec struct {
	bound time.Duration
	exact bool
	ok    bool
}

type schedTrace struct {
	fires []fireRec
	pend  []int
	peeks []peekRec
}

func driveSchedOps(ops []schedOp, d schedDriver) schedTrace {
	var tr schedTrace
	var cancels []func()
	fire := func(id int) { tr.fires = append(tr.fires, fireRec{d.now(), id}) }
	runKids := func(id int) {
		for k, kid := range ops[id].kids {
			var at time.Duration
			switch kid.kind {
			case kidCancel:
				if kid.idx < len(cancels) {
					cancels[kid.idx]()
				}
				continue
			case kidAfter:
				at = d.now() + kid.d
			case kidBlockEnd:
				at = (d.now() | (1<<(uint(kid.level)*wheelBits) - 1)) + kid.d
			}
			leaf := -(id*256 + k + 1)
			if kid.indexed {
				d.atIndexed(at, uint64(int64(leaf)))
			} else {
				d.at(at, func() { fire(leaf) })
			}
		}
	}
	d.onIndexed(func(arg uint64) {
		id := int(int64(arg))
		fire(id)
		if id >= 0 {
			runKids(id)
		}
	})
	for id, op := range ops {
		id := id
		switch op.kind {
		case opAt:
			c := d.at(op.t, func() { fire(id); runKids(id) })
			cancels = append(cancels, c)
		case opAtIndexed:
			d.atIndexed(op.t, uint64(id))
		case opEvery:
			count := 0
			stop := op.stopAfter
			var self func()
			self = d.every(op.t, op.period, func() {
				count++
				fire(id)
				if count == stop {
					self()
				}
			})
			cancels = append(cancels, self)
		case opCancel:
			if op.cancelIdx < len(cancels) {
				cancels[op.cancelIdx]()
			}
		case opRunUntil:
			d.runUntil(op.t)
			tr.pend = append(tr.pend, d.pending())
		case opStep:
			d.step()
			tr.pend = append(tr.pend, d.pending())
		}
		tr.peeks = append(tr.peeks, d.peek())
	}
	return tr
}

func wheelDriver() schedDriver {
	s := NewScheduler()
	return schedDriver{
		now: s.Now,
		at: func(t time.Duration, fn func()) func() {
			return s.At(t, fn).Cancel
		},
		atIndexed: s.AtIndexed,
		onIndexed: func(h func(uint64)) { s.OnIndexed = h },
		every: func(start, period time.Duration, fn func()) func() {
			return s.Every(start, period, fn).Cancel
		},
		runUntil: s.RunUntil,
		step:     s.Step,
		pending:  s.Pending,
		peek: func() peekRec {
			p := peekRec{}
			p.bound, p.ok = s.peekBound()
			for _, k := range s.due[s.dueIdx:] {
				p.exact = p.exact || !s.dead(k)
			}
			return p
		},
	}
}

func refDriver() schedDriver {
	s := newRefScheduler()
	var onIndexed func(uint64)
	return schedDriver{
		now: s.Now,
		at: func(t time.Duration, fn func()) func() {
			return s.At(t, fn).Cancel
		},
		atIndexed: func(t time.Duration, arg uint64) { s.At(t, func() { onIndexed(arg) }) },
		onIndexed: func(h func(uint64)) { onIndexed = h },
		every: func(start, period time.Duration, fn func()) func() {
			return s.Every(start, period, fn).Cancel
		},
		runUntil: s.RunUntil,
		step:     s.Step,
		pending:  s.Pending,
		peek: func() peekRec {
			p := peekRec{exact: true}
			for _, e := range s.heap {
				if !e.dead && (!p.ok || e.at < p.bound) {
					p.bound, p.ok = e.at, true
				}
			}
			return p
		},
	}
}

// diffSchedOps drives the timing wheel and the old container/heap
// scheduler with one script and requires identical firing order,
// identical pending counts at every quiescent point, and a peekBound
// that is the heap's next firing instant whenever the wheel's run holds
// it, and never later than it otherwise.
func diffSchedOps(t *testing.T, label string, ops []schedOp) {
	t.Helper()
	w := driveSchedOps(ops, wheelDriver())
	r := driveSchedOps(ops, refDriver())
	if len(w.fires) != len(r.fires) {
		t.Fatalf("%s: wheel fired %d events, heap %d", label, len(w.fires), len(r.fires))
	}
	for i := range w.fires {
		if w.fires[i] != r.fires[i] {
			t.Fatalf("%s: firing %d diverges: wheel %v heap %v", label, i, w.fires[i], r.fires[i])
		}
	}
	if len(w.pend) != len(r.pend) {
		t.Fatalf("%s: pending snapshots %d vs %d", label, len(w.pend), len(r.pend))
	}
	for i := range w.pend {
		if w.pend[i] != r.pend[i] {
			t.Fatalf("%s: pending snapshot %d diverges: wheel %d heap %d", label, i, w.pend[i], r.pend[i])
		}
	}
	for i, wp := range w.peeks {
		rp := r.peeks[i]
		if wp.ok != rp.ok || wp.bound > rp.bound || wp.exact && wp.bound != rp.bound {
			t.Fatalf("%s: after op %d (%+v) peekBound = %+v, heap's next event %+v", label, i, ops[i], wp, rp)
		}
	}
}

func TestSchedulerDifferentialVsRefHeap(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		diffSchedOps(t, "dense", genSchedOps(seed, 600, false))
		diffSchedOps(t, "sparse", genSchedOps(seed, 600, true))
	}
}

// schedScripts are hand-written scripts, one per open-span state the
// random generator reaches only by luck. They also seed the fuzzer.
var schedScripts = map[string][]schedOp{
	// The runEvent recycle regression: a chain link that re-arms into
	// the open run is wfDue, not wfLinked, when fn returns.
	"every-inside-span": {
		{kind: opEvery, t: 2500 * time.Millisecond, period: 10 * time.Microsecond, stopAfter: 5},
		{kind: opRunUntil, t: 10 * time.Second},
	},
	"every-canceled-in-run": {
		{kind: opEvery, t: 2500 * time.Millisecond, period: 10 * time.Microsecond, stopAfter: 8},
		{kind: opRunUntil, t: 2500*time.Millisecond + 15*time.Microsecond},
		{kind: opCancel, cancelIdx: 0},
		{kind: opRunUntil, t: 10 * time.Second},
	},
	// Inserts at the current instant, one ns on, and either side of the
	// span's last nanosecond at every level the parent can come off.
	"span-edges": {
		{kind: opAtIndexed, t: 2500 * time.Millisecond, kids: []kidOp{
			{kind: kidAfter}, {kind: kidAfter, d: 1, indexed: true},
			{kind: kidBlockEnd, level: 3}, {kind: kidBlockEnd, level: 3, d: 1},
			{kind: kidBlockEnd, level: 4, indexed: true}, {kind: kidBlockEnd, level: 4, d: 1},
			{kind: kidBlockEnd, level: 5}, {kind: kidBlockEnd, level: 5, d: 1, indexed: true},
		}},
		{kind: opRunUntil, t: 2500*time.Millisecond + 50*time.Microsecond}, // inside the span
		{kind: opStep},
		{kind: opAt, t: 2500*time.Millisecond + 60*time.Microsecond},
		{kind: opRunUntil, t: 10 * time.Second},
	},
	"cancel-run-mate": {
		{kind: opAt, t: time.Second, kids: []kidOp{{kind: kidCancel, idx: 2}, {kind: kidCancel, idx: 0}}},
		{kind: opAt, t: time.Second + 10},
		{kind: opAt, t: time.Second + 20},
		{kind: opAt, t: time.Second + 30},
		{kind: opRunUntil, t: time.Second + 10},
		{kind: opCancel, cancelIdx: 3},
		{kind: opRunUntil, t: 2 * time.Second},
	},
	// A callback that floods the open span: the run fills, closes at the
	// overflowing insert, and sends its tail back to the wheel.
	"run-overflow": {
		{kind: opAt, t: 2500 * time.Millisecond, kids: func() []kidOp {
			ks := make([]kidOp, flattenMax+12)
			for i := range ks {
				ks[i] = kidOp{kind: kidAfter, d: time.Duration((i*37)%len(ks)+1) * time.Microsecond, indexed: i%3 == 0}
			}
			return ks
		}()},
		{kind: opRunUntil, t: 10 * time.Second},
	},
	// The last spans before the horizon, whose end does not fit a Duration.
	"horizon": {
		{kind: opAt, t: maxDuration - 5, kids: []kidOp{{kind: kidAfter, d: 2}, {kind: kidAfter, d: 5}, {kind: kidAfter, d: 9}}},
		{kind: opAtIndexed, t: maxDuration},
		{kind: opAt, t: maxDuration - 1<<54, kids: []kidOp{{kind: kidBlockEnd, level: 9}, {kind: kidBlockEnd, level: 10}}},
		{kind: opRunUntil, t: maxDuration},
	},
	// Cancel swap-removes a key with the last key of its slot's head
	// block. Twenty keys in one slot are a full block (handles 0–15) and
	// a head of four (handles 16–18, then an indexed key). The cancels
	// move the indexed key into the full block, handle 17 to the head's
	// front and, once the emptied head block is released, handles 15, 14
	// and 13 to the full block's front; 17, 15 and 14 are then canceled
	// through their handles where they moved to.
	"cancel-mid-block": func() []schedOp {
		var ops []schedOp
		for j := 0; j < blockKeys+4; j++ {
			kind := opAt
			if j == blockKeys+3 {
				kind = opAtIndexed
			}
			ops = append(ops, schedOp{kind: kind, t: 3*time.Second + time.Duration(j*7%(blockKeys+4))})
		}
		for _, h := range []int{5, blockKeys + 2, blockKeys, blockKeys + 1, 0, blockKeys - 1, blockKeys - 2} {
			ops = append(ops, schedOp{kind: opCancel, cancelIdx: h})
		}
		return append(ops, schedOp{kind: opRunUntil, t: 3*time.Second + 9}, schedOp{kind: opRunUntil, t: 4 * time.Second})
	}(),
	// A crowded slot spanning seven blocks, with cancels that swap keys
	// across its blocks, cascades through several levels.
	"cascade-multi-block": func() []schedOp {
		var ops []schedOp
		for j := 0; j < 6*blockKeys+4; j++ {
			ops = append(ops, schedOp{kind: opAt + j%2, t: 3*time.Second + time.Duration(j*37%100)*time.Microsecond})
		}
		for _, h := range []int{3, 20, 49, 31} {
			ops = append(ops, schedOp{kind: opCancel, cancelIdx: h})
		}
		return append(ops, schedOp{kind: opRunUntil, t: 3*time.Second + 40*time.Microsecond}, schedOp{kind: opRunUntil, t: 4 * time.Second})
	}(),
}

// slotOfCancel is m closure keys alone in one slot, one of which is
// canceled before the slot comes due.
func slotOfCancel(m int) []schedOp {
	var ops []schedOp
	for j := 0; j < m; j++ {
		ops = append(ops, schedOp{kind: opAt, t: 3*time.Second + time.Duration(m-j)})
	}
	return append(ops, schedOp{kind: opCancel, cancelIdx: blockKeys + 3}, schedOp{kind: opRunUntil, t: 4 * time.Second})
}

func init() {
	// A slot one key short of, at and one past a block, and one short
	// of, at and one past the flatten bound, alone in one slot.
	for _, m := range []int{blockKeys - 1, blockKeys, blockKeys + 1, flattenMax - 1, flattenMax, flattenMax + 1} {
		var ops []schedOp
		for j := 0; j < m; j++ {
			ops = append(ops, schedOp{kind: opAt + j%2, t: 3*time.Second + time.Duration(m-j)})
		}
		ops = append(ops, schedOp{kind: opRunUntil, t: 3*time.Second + 5}, schedOp{kind: opRunUntil, t: 4 * time.Second})
		schedScripts[fmt.Sprintf("slot-of-%d", m)] = ops
	}
	// 66 keys over five blocks, canceled down to 65 (four full blocks
	// and one key): flatten refuses the slot and it cascades. 65 keys
	// canceled down to 64 empty the head block: the slot flattens.
	schedScripts["flatten-refuses-65-keys"] = slotOfCancel(flattenMax + 2)
	schedScripts["flatten-takes-64-keys"] = slotOfCancel(flattenMax + 1)
}

func TestSchedulerScriptsVsRefHeap(t *testing.T) {
	for name, ops := range schedScripts {
		diffSchedOps(t, name, ops)
		// The byte form the fuzzer mutates must describe the same script.
		diffSchedOps(t, name+" (decoded)", decodeSchedOps(encodeSchedOps(ops)))
	}
}

// The fuzzer's script encoding: fixed-width little-endian records, so a
// mutation changes one field of one op. Decoding clamps every field to
// a script that terminates (chains self-cancel within 8 fires, at most
// maxFuzzOps ops of at most maxFuzzKids actions each).
const (
	maxFuzzOps  = 256
	maxFuzzKids = flattenMax + 16
	opBytes     = 21
	kidBytes    = 13
)

func encodeSchedOps(ops []schedOp) []byte {
	var b []byte
	for _, op := range ops {
		b = append(b, byte(op.kind))
		b = binary.LittleEndian.AppendUint64(b, uint64(op.t))
		b = binary.LittleEndian.AppendUint64(b, uint64(op.period))
		b = append(b, byte(op.stopAfter-1))
		b = binary.LittleEndian.AppendUint16(b, uint16(op.cancelIdx))
		b = append(b, byte(len(op.kids)))
		for _, k := range op.kids {
			flags := byte(0)
			if k.indexed {
				flags = 1
			}
			b = append(b, byte(k.kind), flags, byte(k.level))
			b = binary.LittleEndian.AppendUint16(b, uint16(k.idx))
			b = binary.LittleEndian.AppendUint64(b, uint64(k.d))
		}
	}
	return b
}

func decodeSchedOps(b []byte) []schedOp {
	var ops []schedOp
	for len(b) >= opBytes && len(ops) < maxFuzzOps {
		op := schedOp{
			kind:      int(b[0]) % numOpKinds,
			t:         time.Duration(binary.LittleEndian.Uint64(b[1:]) & uint64(maxDuration)),
			period:    time.Duration(binary.LittleEndian.Uint64(b[9:]) & uint64(maxDuration)),
			stopAfter: 1 + int(b[17])%8,
			cancelIdx: int(binary.LittleEndian.Uint16(b[18:])),
		}
		if op.period == 0 {
			op.period = 1
		}
		nkids := int(b[20]) % (maxFuzzKids + 1)
		b = b[opBytes:]
		for ; nkids > 0 && len(b) >= kidBytes; nkids-- {
			op.kids = append(op.kids, kidOp{
				kind:    int(b[0]) % numKidKinds,
				indexed: b[1]&1 != 0,
				level:   int(b[2]) % wheelLevels,
				idx:     int(binary.LittleEndian.Uint16(b[3:])),
				d:       time.Duration(binary.LittleEndian.Uint64(b[5:]) & uint64(maxDuration)),
			})
			b = b[kidBytes:]
		}
		ops = append(ops, op)
	}
	return append(ops, schedOp{kind: opRunUntil, t: maxDuration})
}

// FuzzSchedulerVsRefHeap mutates op scripts, seeded from the
// hand-written scripts and a few generated ones.
func FuzzSchedulerVsRefHeap(f *testing.F) {
	for _, ops := range schedScripts {
		f.Add(encodeSchedOps(ops))
	}
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(encodeSchedOps(genSchedOps(seed, 120, seed%2 == 0)))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		diffSchedOps(t, "fuzz", decodeSchedOps(b))
	})
}

// ---- wheel-specific regressions ------------------------------------------

// TestSchedulerCancelReclaimsStore is the regression for the heap
// scheduler's memory pinning: canceled events stayed in the queue
// until their deadline. The wheel must return every record of 100k
// canceled periodic chains, and every key block their keys sat in, to
// the free lists immediately, and reuse them for later events instead
// of growing the store.
func TestSchedulerCancelReclaimsStore(t *testing.T) {
	s := NewScheduler()
	const n = 100_000
	ctls := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		ctls = append(ctls, s.Every(time.Duration(i)*time.Microsecond, time.Hour, func() {}))
	}
	inUse := s.storeCap() - s.storeFree()
	if inUse != 2*n { // one control + one chain link per Every
		t.Fatalf("in-use records = %d, want %d", inUse, 2*n)
	}
	for _, c := range ctls {
		c.Cancel()
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending after mass cancel = %d, want 0", got)
	}
	if free, cap := s.storeFree(), s.storeCap(); free != cap {
		t.Fatalf("canceled events still pin %d of %d records", cap-free, cap)
	}
	if inUse := s.blocksInUse(); inUse != 0 {
		t.Fatalf("canceled events still pin %d key blocks", inUse)
	}
	// The reclaimed store is reused: n fresh timers at the chains' first
	// instants, half closures and half indexed, fill the same slots key
	// for key, so they must not grow the record table or carve a slab.
	capBefore, slabsBefore := s.storeCap(), len(s.slabs)
	for i := 0; i < n; i++ {
		at := time.Duration(i) * time.Microsecond
		if i%2 == 0 {
			s.At(at, func() {})
		} else {
			s.AtIndexed(at, uint64(i))
		}
	}
	if s.storeCap() != capBefore {
		t.Fatalf("store grew %d -> %d records despite %d free", capBefore, s.storeCap(), capBefore)
	}
	if len(s.slabs) != slabsBefore {
		t.Fatalf("key slabs grew %d -> %d despite every block free", slabsBefore, len(s.slabs))
	}
	s.RunUntil(time.Hour)
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending after drain = %d, want 0", got)
	}
	if inUse := s.blocksInUse(); inUse != 0 {
		t.Fatalf("%d key blocks still in use after the drain", inUse)
	}
}

// TestSchedulerFreshWorldAllocs pins the key slab's allocation shape:
// a fresh wheel parking n indexed timers over 64 slots on four levels
// allocates itself, whole slabs and the slab table's append growth past
// its inline slots — never anything per slot or per event — so a world
// costs about one allocation per slabBlocks·blockKeys keys however its
// timers spread.
func TestSchedulerFreshWorldAllocs(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("the race runtime allocates on the wheel's behalf")
	}
	const n = 50_000
	var s *Scheduler
	// The first collection starts the runtime's mark workers, whose
	// allocations are not the wheel's: get it over with.
	runtime.GC()
	allocs := testing.AllocsPerRun(3, func() {
		s = NewScheduler()
		for j := 0; j < n; j++ {
			level, slot := 1+j%4, 1+(j/4)%16
			span := time.Duration(1) << (uint(level) * wheelBits)
			s.AtIndexed(time.Duration(slot)*span+time.Duration(j)%span, uint64(j))
		}
	})
	slabs := (n + slabBlocks*blockKeys - 1) / (slabBlocks * blockKeys)
	// The Scheduler, its slabs, and one table growth per doubling past
	// inlineSlabs.
	limit := 1 + slabs + bits.Len(uint((slabs-1)/inlineSlabs))
	if allocs > float64(limit) {
		t.Errorf("a fresh wheel parking %d timers made %v allocations, want ≤ %d", n, allocs, limit)
	}
	for level := 1; level <= 4; level++ {
		if got := bits.OnesCount64(s.occupied[level]); got != 16 {
			t.Fatalf("level %d has %d occupied slots, want 16", level, got)
		}
	}
	fired := 0
	s.OnIndexed = func(uint64) { fired++ }
	s.Run()
	if fired != n || s.blocksInUse() != 0 {
		t.Fatalf("fired %d of %d; %d blocks still in use after the drain", fired, n, s.blocksInUse())
	}
}

// TestSchedulerIndexedZeroAlloc: scheduling and firing indexed timers
// allocates nothing once the wheel's slabs and run buffer are warm.
func TestSchedulerIndexedZeroAlloc(t *testing.T) {
	const n = 1_000
	s := NewScheduler()
	fired := 0
	s.OnIndexed = func(uint64) { fired++ }
	round := func() {
		base := s.Now()
		for j := 0; j < n; j++ {
			s.AtIndexed(base+timerOffset(j, n), uint64(j))
		}
		s.RunUntil(base + n*100)
	}
	round()
	if got := testing.AllocsPerRun(20, round); got != 0 {
		t.Errorf("%d indexed timers allocate %v per round, want 0", n, got)
	}
	// AllocsPerRun adds one warm-up round of its own.
	if fired != 22*n || s.Pending() != 0 {
		t.Fatalf("fired %d, want %d; pending %d", fired, 22*n, s.Pending())
	}
}

// TestSchedulerLoneTimerSingleDescent pins the flattened path by its
// mechanism, not the clock: a lone timer 2.5 s out parks five levels up,
// and one refill must take it from that slot straight into the run —
// scheduled, flattened, fired: three touches — where cascading re-linked
// it on every level in between (eleven).
func TestSchedulerLoneTimerSingleDescent(t *testing.T) {
	s := NewScheduler()
	const at = 2500 * time.Millisecond
	fired := 0
	s.OnIndexed = func(uint64) { fired++ }
	s.AtIndexed(at, 1)
	if s.occupied[5] == 0 {
		t.Fatalf("a +2.5 s timer should park on level 5; occupied = %v", s.occupied)
	}
	if !s.nextDue(maxDuration) {
		t.Fatal("nextDue found nothing")
	}
	if s.occupied != [wheelLevels]uint64{} {
		t.Fatalf("record still on the wheel after one refill: occupied = %v", s.occupied)
	}
	if len(s.due) != 1 || s.due[0] != (wkey{at: at, seq: 1, arg: 1}) {
		t.Fatalf("run after one refill = %v", s.due)
	}
	// The clock stands at the slot's span start with the run open over
	// the span — had the record cascaded, the clock would be at its
	// instant and no span would be open.
	if s.now >= at || s.spanEnd <= at {
		t.Fatalf("now = %v, spanEnd = %v: no open span around %v", s.now, s.spanEnd, at)
	}
	if got, ok := s.peekBound(); !ok || got != at {
		t.Fatalf("peekBound = %v, %v; want the instant itself", got, ok)
	}
	s.RunUntil(3 * time.Second)
	if fired != 1 || s.Pending() != 0 {
		t.Fatalf("fired %d, pending %d", fired, s.Pending())
	}
}

// TestSchedulerWheelLevels pins ordering across every time scale a
// world uses — events parked many wheel levels apart must still fire
// in (at, seq) order as they cascade down.
func TestSchedulerWheelLevels(t *testing.T) {
	s := NewScheduler()
	targets := []time.Duration{
		1, 63, 64, 65, // around the level-0/1 boundary
		4095, 4096, 4097, // level-1/2 boundary
		5 * time.Microsecond, 3 * time.Millisecond, 450 * time.Millisecond,
		7 * time.Second, 90 * time.Minute, 300 * time.Hour,
	}
	var fired []time.Duration
	for i := len(targets) - 1; i >= 0; i-- { // schedule in reverse
		at := targets[i]
		s.At(at, func() {
			if s.Now() != at {
				t.Errorf("event for %v fired at %v", at, s.Now())
			}
			fired = append(fired, at)
		})
	}
	s.Run()
	if len(fired) != len(targets) {
		t.Fatalf("fired %d of %d events", len(fired), len(targets))
	}
	for i, at := range targets {
		if fired[i] != at {
			t.Fatalf("firing order %v, want %v", fired, targets)
		}
	}
}

// TestSchedulerSameInstantCrossLevel pins the cascade-before-fire tie
// rule: an early-scheduled event parked in an upper wheel and a
// late-scheduled event already on level 0 share one deadline; the
// earlier seq must fire first even though it has further to cascade.
func TestSchedulerSameInstantCrossLevel(t *testing.T) {
	s := NewScheduler()
	const deadline = 100 * time.Millisecond
	var order []string
	s.At(deadline, func() { order = append(order, "early-seq") }) // parks high
	s.At(deadline-time.Nanosecond, func() {
		// Runs just before the deadline: this sibling lands on level 0.
		s.At(deadline, func() { order = append(order, "late-seq") })
	})
	s.Run()
	if len(order) != 2 || order[0] != "early-seq" || order[1] != "late-seq" {
		t.Fatalf("same-instant order = %v", order)
	}
}

// TestSchedulerIndexedEvents covers the closure-free timer path used
// by compact worlds.
func TestSchedulerIndexedEvents(t *testing.T) {
	s := NewScheduler()
	var got []uint64
	s.OnIndexed = func(arg uint64) {
		got = append(got, arg)
		if arg == 7 {
			s.AtIndexed(s.Now()+time.Millisecond, 8) // reschedule from handler
		}
	}
	s.AtIndexed(2*time.Millisecond, 7)
	s.AtIndexed(time.Millisecond, 3)
	s.Run()
	want := []uint64{3, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("indexed fires = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("indexed fires = %v, want %v", got, want)
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", s.Pending())
	}
}

// TestSchedulerStaleHandleCancel pins the generation guard: a handle
// kept past its event's firing must not cancel whatever event reuses
// the record.
func TestSchedulerStaleHandleCancel(t *testing.T) {
	s := NewScheduler()
	stale := s.At(time.Millisecond, func() {})
	s.Run() // fires and recycles the record
	fired := false
	fresh := s.At(2*time.Millisecond, func() { fired = true }) // reuses it
	stale.Cancel()                                             // must be a no-op
	s.Run()
	if !fired {
		t.Fatal("stale Cancel killed an innocent reused event")
	}
	fresh.Cancel() // already fired: no-op
}

// ---- sharded scheduler ----------------------------------------------------

// TestShardedSchedulerDeterministicAcrossWorkers runs the same
// per-region workload serially and with more workers than CPUs and
// requires identical per-region logs and clocks.
func TestShardedSchedulerDeterministicAcrossWorkers(t *testing.T) {
	const horizon = 100 * time.Millisecond
	run := func(workers int) [][]time.Duration {
		ss := NewShardedScheduler(8, workers)
		logs := make([][]time.Duration, ss.Regions())
		for i := 0; i < ss.Regions(); i++ {
			i := i
			r := ss.Region(i)
			r.Every(time.Duration(i+1)*time.Millisecond, 7*time.Millisecond, func() {
				logs[i] = append(logs[i], r.Now())
			})
		}
		ss.RunUntil(horizon)
		for i := 0; i < ss.Regions(); i++ {
			if now := ss.Region(i).Now(); now != horizon {
				t.Fatalf("workers=%d region %d: Now = %v, want %v", workers, i, now, horizon)
			}
		}
		return logs
	}
	serial := run(1)
	for _, workers := range []int{3, 8} {
		par := run(workers)
		for i := range serial {
			if fmt.Sprint(serial[i]) != fmt.Sprint(par[i]) {
				t.Fatalf("region %d: workers=1 fired at %v, workers=%d at %v", i, serial[i], workers, par[i])
			}
		}
	}
}

// shardFire is one entry of a region's fire log: when, and which event.
type shardFire struct {
	at  time.Duration
	tag uint64
}

// Fire-log tags: the low bits of an indexed arg name its chain; these
// high bits mark the closure events.
const (
	shardTagAt    = 1 << 62
	shardTagEvery = 1 << 63
)

// shardWindow is the step of the windowed twin drain.
const shardWindow = 10 * time.Millisecond

// shardDelay draws a follow-up delay that lands at the firing instant,
// exactly on one of the next window boundaries, or anywhere up to four
// windows on — so follow-ups hit and cross many boundaries.
func shardDelay(rng *rand.Rand, now time.Duration) time.Duration {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return (now/shardWindow+1+time.Duration(rng.Intn(3)))*shardWindow - now
	default:
		return time.Duration(rng.Int63n(int64(4 * shardWindow)))
	}
}

// seedShardedWorkload gives every region of ss its own mix of At, Every
// and AtIndexed events. Each indexed chain re-arms itself from its
// handler and now and then schedules a closure; Every firings schedule
// a closure on the next boundary. Each region draws from its own rng in
// its own event order, so its log is a function of the region alone.
func seedShardedWorkload(ss *ShardedScheduler, horizon time.Duration) [][]shardFire {
	logs := make([][]shardFire, ss.Regions())
	for i := 0; i < ss.Regions(); i++ {
		i := i
		r := ss.Region(i)
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		logAt := func(tag uint64) func() {
			return func() { logs[i] = append(logs[i], shardFire{r.Now(), tag}) }
		}
		r.OnIndexed = func(arg uint64) {
			now := r.Now()
			logs[i] = append(logs[i], shardFire{now, arg})
			if now < horizon {
				r.AtIndexed(now+shardDelay(rng, now), arg)
			}
			if rng.Intn(4) == 0 {
				r.At(now+shardDelay(rng, now), logAt(shardTagAt|arg))
			}
		}
		r.Every(time.Duration(i)*time.Millisecond, 7*time.Millisecond, func() {
			logAt(shardTagEvery)()
			now := r.Now()
			r.At((now/shardWindow+1)*shardWindow, logAt(shardTagEvery|shardTagAt))
		})
		for k := 0; k < 40; k++ {
			at := time.Duration(rng.Int63n(int64(horizon / 2)))
			if k%5 == 0 {
				at = at / shardWindow * shardWindow // on a boundary
			}
			r.AtIndexed(at, uint64(k))
			if k%8 == 0 {
				r.At(at, logAt(shardTagAt|uint64(k)))
			}
		}
	}
	return logs
}

// drainWindowed is the slow twin of ShardedScheduler.RunUntil: it stops
// every region at each shardWindow boundary before any region enters the
// next window.
func drainWindowed(ss *ShardedScheduler, t time.Duration) {
	for end := shardWindow; ; end += shardWindow {
		end = min(end, t)
		for i := 0; i < ss.Regions(); i++ {
			ss.Region(i).RunUntil(end)
		}
		if end == t {
			return
		}
	}
}

// TestShardedDrainMatchesWindowed is the drain-order oracle: running
// each region straight to the horizon, at one worker or eight, must
// fire exactly what the windowed drain fires, in the same order, with
// the same clocks and the same events left parked.
func TestShardedDrainMatchesWindowed(t *testing.T) {
	const regions, horizon = 16, 300 * time.Millisecond
	ref := NewShardedScheduler(regions, 1)
	want := seedShardedWorkload(ref, horizon)
	drainWindowed(ref, horizon)
	fires, onBoundary := 0, 0
	for _, log := range want {
		fires += len(log)
		for _, f := range log {
			if f.at%shardWindow == 0 {
				onBoundary++
			}
		}
	}
	if onBoundary < regions*int(horizon/shardWindow) {
		t.Fatalf("workload too thin: %d of %d fires on window boundaries", onBoundary, fires)
	}
	t.Logf("%d fires, %d on window boundaries", fires, onBoundary)
	for _, workers := range []int{1, 8} {
		ss := NewShardedScheduler(regions, workers)
		got := seedShardedWorkload(ss, horizon)
		ss.RunUntil(horizon)
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("workers=%d region %d: %d fires, windowed %d", workers, i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("workers=%d region %d fire %d: %+v, windowed %+v", workers, i, j, got[i][j], want[i][j])
				}
			}
			if g, w := ss.Region(i).Now(), ref.Region(i).Now(); g != w {
				t.Fatalf("workers=%d region %d: Now %v, windowed %v", workers, i, g, w)
			}
			if g, w := ss.Region(i).Pending(), ref.Region(i).Pending(); g != w {
				t.Fatalf("workers=%d region %d: %d pending, windowed %d", workers, i, g, w)
			}
		}
	}
}

func TestMergeRegions(t *testing.T) {
	type rec struct {
		at  time.Duration
		seq uint64
		val string
	}
	parts := [][]rec{
		{{1, 1, "a1"}, {5, 2, "a2"}, {5, 9, "a3"}},
		{{2, 1, "b1"}, {5, 3, "b2"}},
		{},
		{{1, 1, "d1"}, {9, 1, "d2"}},
	}
	got := MergeRegions(parts, func(r rec) (time.Duration, uint64) { return r.at, r.seq })
	want := []string{"a1", "d1", "b1", "a2", "b2", "a3", "d2"}
	if len(got) != len(want) {
		t.Fatalf("merged %d records, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].val != w {
			t.Fatalf("merge order %v, want %v at %d", got[i].val, w, i)
		}
	}
}
