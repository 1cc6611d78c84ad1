package phy

import "math/bits"

// coexEngine is the event-driven contention core behind SimulateDCF and
// SimulateCoex (DESIGN.md §13). Instead of ticking every 9 µs slot it
// jumps straight to the next state-changing slot: the earliest
// transmission end or the earliest start (a backoff expiry of an
// unblocked contender, or a scheduled LTE-U burst boundary). Sense sets
// are uint64 bitmask words, and so is the contention state: blocked is
// the union of the active transmitters' transposed sense rows (OR-ed in
// at each start, rebuilt from the few still active after each finish),
// so the ready set — idle contenders sensing nothing, the only nodes
// whose backoff moves or that can start — is three word operations, and
// each pass of an event visits those nodes, the active set and the duty
// nodes, never all n. All state is preallocated at construction, in one
// backing array per element type; reset+run performs zero heap
// allocations.
//
// The engine reproduces the slot-stepped reference loop (refdcf_test.go)
// bit for bit. The equivalences it relies on:
//
//   - A transmission started at slot s with L frame slots occupies
//     slots [s, s+L-1] and blocks phase-1 starts of sensing stations
//     during [s+1, s+L] (the slot-start snapshot the oracle takes).
//     Since blocking only ever increases when transmissions start and
//     decreases when they end, the medium state seen by any node is
//     piecewise constant between start/end events.
//   - Corruption is symmetric and decided by overlap: two concurrently
//     active transmissions corrupt each other from the later start
//     onward. Marking both parties at every start event is equivalent
//     to the oracle's per-slot "≥2 active → all corrupted" sweep.
//   - Backoff decrements happen once per slot for contenders that are
//     idle, saturated, and sense no active transmitter. Between events
//     that is a bulk subtraction; at a transmission-end slot e the
//     oracle's index-ordered phase 3 adds one subtlety: an ender j
//     blocks station i's decrement at slot e iff j > i (a j < i ender
//     has already reset to txRemaining 0 when i is examined).
//
// Backoff draws come from splitmix64 keyed by (seed, node, draw index),
// so each node's trajectory is a pure function of the seed and the
// engine and oracle consume identical randomness with no shared-stream
// ordering coupling.
type coexEngine struct {
	seed       int64
	n, nw      int // total nodes, WiFi station count
	words      int
	totalSlots int
	lastSlot   int

	// Immutable per-node shape.
	kind        []uint8  // nodeWiFi, nodeDuty, nodeLBT
	contenders  []uint64 // bitset: draws backoff and senses before transmitting
	frameSlots  []int    // TX length in slots (frame, burst, or TXOP)
	periodSlots []int    // duty: cycle length
	offsetSlots []int    // duty: first burst start
	payloadBits []float64
	bitsPerSlot []float64 // LTE: delivered bits per clean burst slot
	cwFixed     []int     // LBT: fixed contention window
	sense       []uint64  // n rows of words (see row): bit j of row i iff i senses j
	sensedBy    []uint64  // the transpose: bit i of row j iff i senses j
	duty        []uint64  // bitset of nodeDuty nodes

	// Mutable simulation state (cleared by reset).
	active       []uint64
	nActive      int
	blocked      []uint64 // nodes that sense an active transmitter
	endSlot      []int
	corrupt      []bool // WiFi: any overlap during current TX
	corruptSlots []int  // LTE: overlapped slots in current burst
	corruptCover []int  // LTE: first slot not yet counted corrupt
	backoff      []int
	cw           []int
	retries      []int
	draws        []uint32
	nextBurst    []int
	delivered    []float64
	attempts     []int
	collisions   []int
	drops        []int

	busySlots, busyCover           int
	lteBurstSlots, lteCorruptSlots int

	starters, enders []int
	endersMask       []uint64
}

const (
	nodeWiFi = iota
	nodeDuty
	nodeLBT
)

const maxSlot = int(^uint(0) >> 1)

func newCoexEngine(cfg CoexConfig, seconds float64) *coexEngine {
	nw := len(cfg.WiFi)
	n := nw + len(cfg.LTE)
	words := (n + 63) / 64
	ints := make([]int, 16*n)
	u64s := make([]uint64, (5+2*n)*words)
	f64s := make([]float64, 3*n)
	e := &coexEngine{
		seed:       cfg.Seed,
		n:          n,
		nw:         nw,
		words:      words,
		totalSlots: int(seconds * 1e6 / dcfSlotUs),

		kind:        make([]uint8, n),
		contenders:  carve(&u64s, words),
		frameSlots:  carve(&ints, n),
		periodSlots: carve(&ints, n),
		offsetSlots: carve(&ints, n),
		payloadBits: carve(&f64s, n),
		bitsPerSlot: carve(&f64s, n),
		cwFixed:     carve(&ints, n),
		sense:       carve(&u64s, n*words),
		sensedBy:    carve(&u64s, n*words),
		duty:        carve(&u64s, words),

		active:       carve(&u64s, words),
		blocked:      carve(&u64s, words),
		endSlot:      carve(&ints, n),
		corrupt:      make([]bool, n),
		corruptSlots: carve(&ints, n),
		corruptCover: carve(&ints, n),
		backoff:      carve(&ints, n),
		cw:           carve(&ints, n),
		retries:      carve(&ints, n),
		draws:        make([]uint32, n),
		nextBurst:    carve(&ints, n),
		delivered:    carve(&f64s, n),
		attempts:     carve(&ints, n),
		collisions:   carve(&ints, n),
		drops:        carve(&ints, n),

		starters:   carve(&ints, n)[:0],
		enders:     carve(&ints, n)[:0],
		endersMask: carve(&u64s, words),
	}
	e.lastSlot = e.totalSlots - 1

	for i, st := range cfg.WiFi {
		e.kind[i] = nodeWiFi
		if st.Saturated {
			e.contenders[i>>6] |= 1 << uint(i&63)
		}
		e.frameSlots[i], e.payloadBits[i] = dcfFrameSlots(st)
	}
	msSlots := func(ms, def float64) int {
		if ms <= 0 {
			ms = def
		}
		s := int(ms * 1e3 / dcfSlotUs)
		if s < 2 {
			s = 2
		}
		return s
	}
	for k, nd := range cfg.LTE {
		i := nw + k
		e.bitsPerSlot[i] = nd.RateBps * dcfSlotUs * 1e-6
		switch nd.Kind {
		case LTEUDuty:
			e.kind[i] = nodeDuty
			e.frameSlots[i] = msSlots(nd.OnMs, 20)
			e.periodSlots[i] = msSlots(nd.PeriodMs, 40)
			if e.periodSlots[i] < e.frameSlots[i] {
				e.periodSlots[i] = e.frameSlots[i]
			}
			if nd.OffsetMs > 0 {
				e.offsetSlots[i] = int(nd.OffsetMs * 1e3 / dcfSlotUs)
			}
			e.duty[i>>6] |= 1 << uint(i&63)
		case LTELBT:
			e.kind[i] = nodeLBT
			e.contenders[i>>6] |= 1 << uint(i&63)
			e.frameSlots[i] = msSlots(nd.TXOPMs, 4)
			cw := nd.CW
			if cw <= 0 {
				cw = dcfCWMin
			}
			e.cwFixed[i] = cw
		}
	}

	// Sense rows: bit j of row i set iff node i carrier-senses node j.
	// Self bits stay clear so "active ∩ sense[i]" tests other nodes
	// only. Rows share one backing array. With no explicit matrix,
	// everyone senses everyone except duty-cycled LTE-U bursts: CSAT
	// transmits no WiFi-detectable preamble and typically sits below
	// the −62 dBm energy-detection threshold, so to a WiFi station (and
	// to LBT's clear-channel check) a duty burst is a hidden
	// transmitter — the asymmetry at the heart of the LTE-U coexistence
	// papers. Pass an explicit Sense matrix to override.
	for i := 0; i < n; i++ {
		row := e.row(e.sense, i)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			sensed := cfg.Sense == nil && e.kind[j] != nodeDuty
			if cfg.Sense != nil {
				sensed = cfg.Sense[i][j]
			}
			if sensed {
				row[j>>6] |= 1 << uint(j&63)
				e.row(e.sensedBy, j)[i>>6] |= 1 << uint(i&63)
			}
		}
	}

	e.reset()
	return e
}

// row is node i's row of a sense matrix.
func (e *coexEngine) row(m []uint64, i int) []uint64 {
	return m[i*e.words : (i+1)*e.words]
}

// carve cuts the next n elements off *buf, so the engine's per-node
// arrays share one allocation per element type.
func carve[T any](buf *[]T, n int) []T {
	s := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return s
}

// reset restores post-construction state so one engine can run the same
// configuration repeatedly (benchmarks, differential tests) without
// allocating.
func (e *coexEngine) reset() {
	clear(e.active)
	clear(e.blocked)
	e.nActive = 0
	e.busySlots, e.busyCover = 0, 0
	e.lteBurstSlots, e.lteCorruptSlots = 0, 0
	e.starters = e.starters[:0]
	e.enders = e.enders[:0]
	for i := 0; i < e.n; i++ {
		e.endSlot[i] = 0
		e.corrupt[i] = false
		e.corruptSlots[i] = 0
		e.corruptCover[i] = 0
		e.retries[i] = 0
		e.nextBurst[i] = 0
		e.delivered[i] = 0
		e.attempts[i] = 0
		e.collisions[i] = 0
		e.drops[i] = 0
		e.draws[i] = 0
		switch e.kind[i] {
		case nodeLBT:
			e.cw[i] = e.cwFixed[i]
		default:
			e.cw[i] = dcfCWMin
		}
		e.backoff[i] = 0
		if e.contenders[i>>6]&(1<<uint(i&63)) != 0 {
			e.backoff[i] = backoffDraw(e.seed, i, 0, e.cw[i])
			e.draws[i] = 1
		}
	}
}

// run simulates the configured span. A roster of at most 64 nodes has
// one-word bitsets and takes runWord; larger rosters take the
// multi-word loop. Both hand every per-node decision to the same
// helpers (burstAt, due, begin, markOverlap, complete), so they
// differ only in how they walk the sets.
func (e *coexEngine) run() {
	if e.words == 1 {
		e.runWord()
		return
	}
	e.runWords()
}

// runWord is the event loop for rosters that fit one word: active,
// blocked, ready and the enders are plain uint64s held in locals, and
// each transposed sense row is the single word sensedBy[i]. Starters
// fall out of the backoff advance instead of a scan of their own, and
// the boundary decrement holds back the contenders that sense a
// higher-indexed ender by OR-ing the enders' rows, where the multi-word
// loop tests each contender's row.
func (e *coexEngine) runWord() {
	contenders, duty := e.contenders[0], e.duty[0]
	sensedBy := e.sensedBy[:e.n]
	var active, blocked uint64
	for now := 0; now <= e.lastSlot; {
		tEnd := maxSlot
		for w := active; w != 0; w &= w - 1 {
			tEnd = min(tEnd, e.endSlot[bits.TrailingZeros64(w)])
		}
		ready := contenders &^ active &^ blocked
		tStart := maxSlot
		for w := ready; w != 0; w &= w - 1 {
			tStart = min(tStart, now+e.backoff[bits.TrailingZeros64(w)])
		}
		for w := duty &^ active; w != 0; w &= w - 1 {
			tStart = min(tStart, e.burstAt(bits.TrailingZeros64(w)))
		}
		t := min(tStart, tEnd)
		if t > e.lastSlot {
			break
		}
		// Advance the ready backoffs by the gap, collecting those that
		// expire at t (a zero backoff means t == now), and the duty
		// bursts due at t: together, the starters.
		var starting uint64
		for w := ready; w != 0; w &= w - 1 {
			i := bits.TrailingZeros64(w)
			if e.backoff[i] -= t - now; e.backoff[i] == 0 {
				starting |= 1 << uint(i)
			}
		}
		for w := duty &^ active; w != 0; w &= w - 1 {
			if i := bits.TrailingZeros64(w); e.due(i, t) {
				starting |= 1 << uint(i)
			}
		}
		// Starts, in index order against the slot-start sets.
		for w := starting; w != 0; w &= w - 1 {
			i := bits.TrailingZeros64(w)
			e.begin(i, t)
			for a := active; a != 0; a &= a - 1 {
				e.markOverlap(i, bits.TrailingZeros64(a), t)
			}
			active |= 1 << uint(i)
			blocked |= sensedBy[i]
		}
		if tStart < tEnd {
			now = t
			continue
		}
		// End slot: completions, the blocked set rebuilt from the
		// transmitters still on the air, then the boundary decrement.
		var enders uint64
		for w := active; w != 0; w &= w - 1 {
			if i := bits.TrailingZeros64(w); e.endSlot[i] == t {
				enders |= 1 << uint(i)
			}
		}
		active &^= enders
		var held uint64 // nodes that sense a higher-indexed ender
		for w := enders; w != 0; w &= w - 1 {
			j := bits.TrailingZeros64(w)
			e.complete(j)
			held |= sensedBy[j] & (1<<uint(j) - 1)
		}
		blocked = 0
		for w := active; w != 0; w &= w - 1 {
			blocked |= sensedBy[bits.TrailingZeros64(w)]
		}
		// The boundary decrement, as in boundaryDecrement.
		for w := contenders &^ active &^ blocked &^ enders &^ held; w != 0; w &= w - 1 {
			if i := bits.TrailingZeros64(w); e.backoff[i] != 0 {
				e.backoff[i]--
			}
		}
		now = t + 1
	}
}

// ready is word w of the ready set: idle contenders that sense no active
// transmitter.
func (e *coexEngine) ready(w int) uint64 {
	return e.contenders[w] &^ e.active[w] &^ e.blocked[w]
}

// block adds every node that senses transmitter i to the blocked set.
func (e *coexEngine) block(i int) {
	for w, word := range e.row(e.sensedBy, i) {
		e.blocked[w] |= word
	}
}

// runWords is the event loop for rosters past one word.
func (e *coexEngine) runWords() {
	now := 0
	for now <= e.lastSlot {
		// Next end event across active transmissions.
		tEnd := maxSlot
		if e.nActive > 0 {
			for w, word := range e.active {
				for word != 0 {
					i := w<<6 + bits.TrailingZeros64(word)
					word &= word - 1
					if e.endSlot[i] < tEnd {
						tEnd = e.endSlot[i]
					}
				}
			}
		}
		// Next start event: earliest backoff expiry among ready
		// contenders, or earliest scheduled burst of an idle duty node.
		// Blocked contenders have frozen backoff — their expiry will be
		// re-derived after the blocking transmission ends.
		tStart := maxSlot
		for w := range e.active {
			for word := e.ready(w); word != 0; word &= word - 1 {
				i := w<<6 + bits.TrailingZeros64(word)
				if c := now + e.backoff[i]; c < tStart {
					tStart = c
				}
			}
		}
		for w, word := range e.duty {
			word &^= e.active[w]
			for word != 0 {
				i := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				if c := e.burstAt(i); c < tStart {
					tStart = c
				}
			}
		}
		next := tStart
		if tEnd < next {
			next = tEnd
		}
		if next > e.lastSlot {
			break
		}
		if tStart < tEnd {
			// Pure start event: nobody finishes at tStart, so the slot
			// needs no end processing and no boundary-decrement pass.
			e.advanceBackoffs(now, tStart)
			e.startAt(tStart)
			now = tStart
		} else {
			// End slot (possibly with simultaneous starts). Order
			// mirrors the oracle's phases: starts against slot-start
			// state, overlap marking, then transmission completion and
			// the boundary backoff decrement.
			e.advanceBackoffs(now, tEnd)
			e.startAt(tEnd)
			e.finishAt(tEnd)
			e.boundaryDecrement()
			now = tEnd + 1
		}
	}
}

// advanceBackoffs bulk-decrements the ready contenders by the event
// gap. Candidate selection guarantees backoff ≥ to-now for every node
// decremented here.
func (e *coexEngine) advanceBackoffs(now, to int) {
	d := to - now
	if d <= 0 {
		return
	}
	for w := range e.active {
		for word := e.ready(w); word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			if e.backoff[i] != 0 {
				e.backoff[i] -= d
			}
		}
	}
}

// burstAt is duty node i's next scheduled burst start.
func (e *coexEngine) burstAt(i int) int {
	return e.offsetSlots[i] + e.nextBurst[i]*e.periodSlots[i]
}

// due reports whether candidate i (a ready contender or an idle duty
// node) starts transmitting at slot t: a contender whose backoff has
// expired, or a duty node whose burst is scheduled at t, which consumes
// that burst.
func (e *coexEngine) due(i, t int) bool {
	if e.kind[i] != nodeDuty {
		return e.backoff[i] == 0
	}
	if e.burstAt(i) != t {
		return false
	}
	e.nextBurst[i]++
	return true
}

// begin opens node i's transmission at slot t: its end slot, the
// attempt, a clean corruption record, and its share of busy airtime.
func (e *coexEngine) begin(i, t int) {
	end := t + e.frameSlots[i] - 1
	e.endSlot[i] = end
	e.attempts[i]++
	if e.kind[i] == nodeWiFi {
		e.corrupt[i] = false
	} else {
		e.corruptSlots[i] = 0
		e.corruptCover[i] = t
	}
	// Busy airtime: union of [t, end] with everything counted so far.
	// Starts arrive in nondecreasing t, so a single cover pointer
	// suffices.
	hi := min(end, e.lastSlot)
	lo := max(t, e.busyCover)
	if hi >= lo {
		e.busySlots += hi - lo + 1
		e.busyCover = hi + 1
	}
}

// startAt begins every transmission due at slot t: expired unblocked
// contenders and scheduled duty bursts. Starters are admitted against
// the slot-start active set, so simultaneous expiries start together
// (the same-slot collision at the heart of CSMA/CA); each new starter
// is then marked against everything already on the air, which covers
// both starter-vs-active and starter-vs-starter overlap.
func (e *coexEngine) startAt(t int) {
	e.starters = e.starters[:0]
	for w := range e.active {
		word := e.ready(w) | e.duty[w]&^e.active[w]
		for ; word != 0; word &= word - 1 {
			if i := w<<6 + bits.TrailingZeros64(word); e.due(i, t) {
				e.starters = append(e.starters, i)
			}
		}
	}
	for _, i := range e.starters {
		e.begin(i, t)
		// Mark mutual corruption against everything already active —
		// including earlier same-slot starters, which were added to
		// the active set before this node.
		for w, word := range e.active {
			for word != 0 {
				j := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				e.markOverlap(i, j, t)
			}
		}
		e.active[i>>6] |= 1 << uint(i&63)
		e.nActive++
		e.block(i)
	}
}

// markOverlap records that i and j transmitted concurrently from slot
// `from` until the earlier of their ends.
func (e *coexEngine) markOverlap(i, j, from int) {
	end := e.endSlot[i]
	if e.endSlot[j] < end {
		end = e.endSlot[j]
	}
	e.markCorrupt(i, from, end)
	e.markCorrupt(j, from, end)
}

// markCorrupt charges node i for overlap during [from, to]. WiFi loses
// the whole frame; LTE bursts lose exactly the overlapped slots, with a
// per-burst cover pointer making repeated or nested markings exact
// (intervals for one burst arrive with nondecreasing `from`).
func (e *coexEngine) markCorrupt(i, from, to int) {
	if e.kind[i] == nodeWiFi {
		e.corrupt[i] = true
		return
	}
	if to > e.lastSlot {
		to = e.lastSlot
	}
	if from < e.corruptCover[i] {
		from = e.corruptCover[i]
	}
	if to >= from {
		e.corruptSlots[i] += to - from + 1
		e.corruptCover[i] = to + 1
	}
}

// complete resolves node i's finished transmission: the WiFi outcome
// with its retry and window bookkeeping, or the LTE burst's delivered
// and corrupted slots, then the next backoff draw for a contender.
func (e *coexEngine) complete(i int) {
	switch e.kind[i] {
	case nodeWiFi:
		if e.corrupt[i] {
			e.collisions[i]++
			e.retries[i]++
			if e.retries[i] > dcfRetryLimit {
				e.drops[i]++
				e.retries[i] = 0
				e.cw[i] = dcfCWMin
			} else if e.cw[i] < dcfCWMax {
				e.cw[i] = min(2*(e.cw[i]+1)-1, dcfCWMax)
			}
		} else {
			e.delivered[i] += e.payloadBits[i]
			e.retries[i] = 0
			e.cw[i] = dcfCWMin
		}
	default:
		good := e.frameSlots[i] - e.corruptSlots[i]
		e.delivered[i] += e.bitsPerSlot[i] * float64(good)
		e.lteBurstSlots += e.frameSlots[i]
		e.lteCorruptSlots += e.corruptSlots[i]
		if e.corruptSlots[i] > 0 {
			e.collisions[i]++
		}
		if e.kind[i] != nodeLBT {
			return
		}
	}
	e.backoff[i] = backoffDraw(e.seed, i, e.draws[i], e.cw[i])
	e.draws[i]++
}

// finishAt completes every transmission ending at slot t. The blocked
// set is then rebuilt from the transmitters still on the air.
func (e *coexEngine) finishAt(t int) {
	e.enders = e.enders[:0]
	clear(e.endersMask)
	for w, word := range e.active {
		for word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if e.endSlot[i] == t {
				e.enders = append(e.enders, i)
				e.endersMask[w] |= 1 << uint(i&63)
			}
		}
	}
	for _, i := range e.enders {
		e.active[i>>6] &^= 1 << uint(i&63)
		e.nActive--
		e.complete(i)
	}
	clear(e.blocked)
	for w, word := range e.active {
		for ; word != 0; word &= word - 1 {
			e.block(w<<6 + bits.TrailingZeros64(word))
		}
	}
}

// boundaryDecrement applies the oracle's phase-3 backoff countdown at
// an end slot. A contender decrements iff it is ready after the slot's
// completions (idle, sensing nothing still active, same-slot starters
// included), its backoff is nonzero, it did not itself just finish (an
// ender's freshly drawn backoff starts counting next slot), and no
// *higher-indexed* ender is in its sense set — the oracle resolves
// stations in index order, so a lower-indexed ender has already gone
// idle when station i is examined, while a higher-indexed one still
// reads as transmitting.
func (e *coexEngine) boundaryDecrement() {
	for w0 := range e.active {
		word := e.ready(w0) &^ e.endersMask[w0]
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			i := w0<<6 + b
			if e.backoff[i] == 0 {
				continue
			}
			row := e.row(e.sense, i)
			above := row[w0] & e.endersMask[w0] & (^uint64(0) << uint(b+1))
			for w := w0 + 1; w < e.words && above == 0; w++ {
				above = row[w] & e.endersMask[w]
			}
			if above == 0 {
				e.backoff[i]--
			}
		}
	}
}
