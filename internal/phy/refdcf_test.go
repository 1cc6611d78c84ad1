package phy

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dlte/internal/leaktest"
)

// This file keeps the pre-engine slot-stepped contention loops as
// differential oracles (the refheap_test.go pattern): simulateDCFRef is
// the old SimulateDCF body ticking every 9 µs slot, adapted only to the
// keyed splitmix64 backoff draws and the Drops counter; simulateCoexRef
// extends the same three-phase loop to LTE-U/LBT nodes. The event-driven
// engine must reproduce both bit for bit — same per-station goodput
// floats, attempts, collisions, drops, busy airtime — on randomized
// topologies including hidden terminals.

type refStationState struct {
	cfg          DCFStation
	idx          int
	backoff      int
	cw           int
	retries      int
	txRemaining  int
	txCorrupted  bool
	frameSlots   int
	payloadBits  float64
	deliveredBit float64
	draws        uint32
}

func (s *refStationState) newBackoff(seed int64) {
	s.backoff = backoffDraw(seed, s.idx, s.draws, s.cw)
	s.draws++
}

// simulateDCFRef is the slot-stepped oracle: O(slots·n²), one iteration
// per 9 µs slot.
func simulateDCFRef(cfg DCFConfig, seconds float64) DCFResult {
	n := len(cfg.Stations)
	states := make([]*refStationState, n)
	for i, st := range cfg.Stations {
		slots, bits := dcfFrameSlots(st)
		s := &refStationState{
			cfg:         st,
			idx:         i,
			cw:          dcfCWMin,
			frameSlots:  slots,
			payloadBits: bits,
		}
		if st.Saturated {
			s.newBackoff(cfg.Seed)
		}
		states[i] = s
	}
	senses := func(i, j int) bool {
		if cfg.Sense == nil {
			return true
		}
		return cfg.Sense[i][j]
	}

	totalSlots := int(seconds * 1e6 / dcfSlotUs)
	attempts, collisions, drops, busySlots := 0, 0, 0, 0
	result := DCFResult{PerStationBps: make(map[string]float64, n)}

	for slot := 0; slot < totalSlots; slot++ {
		// Phase 1: stations with expired backoff and an idle medium (as
		// they sense it at slot start) begin transmitting.
		var starting []int
		for i, s := range states {
			if s.txRemaining > 0 || !s.cfg.Saturated || s.backoff > 0 {
				continue
			}
			idle := true
			for j, o := range states {
				if j != i && o.txRemaining > 0 && senses(i, j) {
					idle = false
					break
				}
			}
			if idle {
				starting = append(starting, i)
			}
		}
		for _, i := range starting {
			states[i].txRemaining = states[i].frameSlots
			states[i].txCorrupted = false
			attempts++
		}

		// Phase 2: collision detection at the AP — any overlap of
		// transmissions (the AP hears everyone) corrupts all involved.
		active := 0
		for _, s := range states {
			if s.txRemaining > 0 {
				active++
			}
		}
		if active > 0 {
			busySlots++
		}
		if active > 1 {
			for _, s := range states {
				if s.txRemaining > 0 {
					s.txCorrupted = true
				}
			}
		}

		// Phase 3: advance transmissions and count down backoff for
		// stations that sense an idle medium.
		for i, s := range states {
			if s.txRemaining > 0 {
				s.txRemaining--
				if s.txRemaining == 0 {
					if s.txCorrupted {
						collisions++
						s.retries++
						if s.retries > dcfRetryLimit {
							drops++
							s.retries = 0
							s.cw = dcfCWMin
						} else if s.cw < dcfCWMax {
							s.cw = min(2*(s.cw+1)-1, dcfCWMax)
						}
					} else {
						s.deliveredBit += s.payloadBits
						s.retries = 0
						s.cw = dcfCWMin
					}
					s.newBackoff(cfg.Seed)
				}
				continue
			}
			if !s.cfg.Saturated || s.backoff == 0 {
				continue
			}
			idle := true
			for j, o := range states {
				if j != i && o.txRemaining > 0 && senses(i, j) {
					idle = false
					break
				}
			}
			if idle {
				s.backoff--
			}
		}
	}

	for _, s := range states {
		bps := s.deliveredBit / seconds
		result.PerStationBps[s.cfg.ID] = bps
		result.TotalBps += bps
	}
	result.Attempts = attempts
	result.Collisions = collisions
	result.Drops = drops
	if attempts > 0 {
		result.CollisionRate = float64(collisions) / float64(attempts)
	}
	if totalSlots > 0 {
		result.BusyAirtimeFraction = float64(busySlots) / float64(totalSlots)
	}
	return result
}

// refCoexNode mirrors the engine's per-node shape for the slot-stepped
// coexistence reference.
type refCoexNode struct {
	kind        uint8
	contender   bool
	senseRow    []bool
	frameSlots  int
	periodSlots int
	offsetSlots int
	payloadBits float64
	bitsPerSlot float64

	backoff      int
	cw           int
	retries      int
	txRemaining  int
	corrupted    bool
	corruptSlots int
	nextBurst    int
	delivered    float64
	attempts     int
	collisions   int
	drops        int
	draws        uint32
}

func refMsSlots(ms, def float64) int {
	if ms <= 0 {
		ms = def
	}
	s := int(ms * 1e3 / dcfSlotUs)
	if s < 2 {
		s = 2
	}
	return s
}

// simulateCoexRef is the slot-stepped coexistence reference: the same
// three-phase loop extended with blind duty bursts and LBT contenders,
// with per-slot (rather than whole-frame) corruption accounting for LTE
// bursts.
func simulateCoexRef(cfg CoexConfig, seconds float64) CoexResult {
	nw := len(cfg.WiFi)
	n := nw + len(cfg.LTE)
	nodes := make([]*refCoexNode, n)
	for i, st := range cfg.WiFi {
		slots, bits := dcfFrameSlots(st)
		nodes[i] = &refCoexNode{
			kind:        nodeWiFi,
			contender:   st.Saturated,
			cw:          dcfCWMin,
			frameSlots:  slots,
			payloadBits: bits,
		}
	}
	for k, nd := range cfg.LTE {
		i := nw + k
		rn := &refCoexNode{bitsPerSlot: nd.RateBps * dcfSlotUs * 1e-6}
		switch nd.Kind {
		case LTEUDuty:
			rn.kind = nodeDuty
			rn.frameSlots = refMsSlots(nd.OnMs, 20)
			rn.periodSlots = refMsSlots(nd.PeriodMs, 40)
			if rn.periodSlots < rn.frameSlots {
				rn.periodSlots = rn.frameSlots
			}
			if nd.OffsetMs > 0 {
				rn.offsetSlots = int(nd.OffsetMs * 1e3 / dcfSlotUs)
			}
		case LTELBT:
			rn.kind = nodeLBT
			rn.contender = true
			rn.frameSlots = refMsSlots(nd.TXOPMs, 4)
			rn.cw = nd.CW
			if rn.cw <= 0 {
				rn.cw = dcfCWMin
			}
		}
		nodes[i] = rn
	}
	for i, rn := range nodes {
		if cfg.Sense != nil {
			rn.senseRow = cfg.Sense[i]
		}
		if rn.contender {
			rn.backoff = backoffDraw(cfg.Seed, i, 0, rn.cw)
			rn.draws = 1
		}
	}
	senses := func(i, j int) bool {
		if nodes[i].senseRow == nil {
			// Default matrix: duty bursts are below the energy-detection
			// threshold — hidden from every carrier sensor.
			return nodes[j].kind != nodeDuty
		}
		return nodes[i].senseRow[j]
	}

	totalSlots := int(seconds * 1e6 / dcfSlotUs)
	busySlots, lteBurstSlots, lteCorruptSlots := 0, 0, 0

	for slot := 0; slot < totalSlots; slot++ {
		var starting []int
		for i, rn := range nodes {
			if rn.txRemaining > 0 {
				continue
			}
			if rn.kind == nodeDuty {
				if slot == rn.offsetSlots+rn.nextBurst*rn.periodSlots {
					rn.nextBurst++
					starting = append(starting, i)
				}
				continue
			}
			if !rn.contender || rn.backoff > 0 {
				continue
			}
			idle := true
			for j, o := range nodes {
				if j != i && o.txRemaining > 0 && senses(i, j) {
					idle = false
					break
				}
			}
			if idle {
				starting = append(starting, i)
			}
		}
		for _, i := range starting {
			nodes[i].txRemaining = nodes[i].frameSlots
			nodes[i].corrupted = false
			nodes[i].corruptSlots = 0
			nodes[i].attempts++
		}

		active := 0
		for _, rn := range nodes {
			if rn.txRemaining > 0 {
				active++
			}
		}
		if active > 0 {
			busySlots++
		}
		if active > 1 {
			for _, rn := range nodes {
				if rn.txRemaining > 0 {
					if rn.kind == nodeWiFi {
						rn.corrupted = true
					} else {
						rn.corruptSlots++
					}
				}
			}
		}

		for i, rn := range nodes {
			if rn.txRemaining > 0 {
				rn.txRemaining--
				if rn.txRemaining == 0 {
					if rn.kind == nodeWiFi {
						if rn.corrupted {
							rn.collisions++
							rn.retries++
							if rn.retries > dcfRetryLimit {
								rn.drops++
								rn.retries = 0
								rn.cw = dcfCWMin
							} else if rn.cw < dcfCWMax {
								rn.cw = min(2*(rn.cw+1)-1, dcfCWMax)
							}
						} else {
							rn.delivered += rn.payloadBits
							rn.retries = 0
							rn.cw = dcfCWMin
						}
						rn.backoff = backoffDraw(cfg.Seed, i, rn.draws, rn.cw)
						rn.draws++
					} else {
						rn.delivered += rn.bitsPerSlot * float64(rn.frameSlots-rn.corruptSlots)
						lteBurstSlots += rn.frameSlots
						lteCorruptSlots += rn.corruptSlots
						if rn.corruptSlots > 0 {
							rn.collisions++
						}
						if rn.kind == nodeLBT {
							rn.backoff = backoffDraw(cfg.Seed, i, rn.draws, rn.cw)
							rn.draws++
						}
					}
				}
				continue
			}
			if !rn.contender || rn.backoff == 0 {
				continue
			}
			idle := true
			for j, o := range nodes {
				if j != i && o.txRemaining > 0 && senses(i, j) {
					idle = false
					break
				}
			}
			if idle {
				rn.backoff--
			}
		}
	}

	res := CoexResult{PerNodeBps: make(map[string]float64, n)}
	for i, st := range cfg.WiFi {
		bps := nodes[i].delivered / seconds
		res.PerNodeBps[st.ID] = bps
		res.WiFiBps += bps
		res.WiFiAttempts += nodes[i].attempts
		res.WiFiCollisions += nodes[i].collisions
		res.WiFiDrops += nodes[i].drops
	}
	for k, nd := range cfg.LTE {
		bps := nodes[nw+k].delivered / seconds
		res.PerNodeBps[nd.ID] = bps
		res.LTEBps += bps
	}
	if res.WiFiAttempts > 0 {
		res.WiFiCollisionRate = float64(res.WiFiCollisions) / float64(res.WiFiAttempts)
	}
	if totalSlots > 0 {
		res.LTEAirtimeFraction = float64(lteBurstSlots) / float64(totalSlots)
		res.BusyAirtimeFraction = float64(busySlots) / float64(totalSlots)
	}
	if lteBurstSlots > 0 {
		res.LTECorruptFraction = float64(lteCorruptSlots) / float64(lteBurstSlots)
	}
	return res
}

// randomSense builds a sense matrix over n nodes: mode 0 full sensing,
// mode 1 a hidden pair (first two nodes deaf to each other), mode 2
// random symmetric, mode 3 random asymmetric.
func randomSense(rng *rand.Rand, n, mode int) [][]bool {
	if mode == 0 {
		return nil
	}
	m := make([][]bool, n)
	for i := range m {
		m[i] = make([]bool, n)
		for j := range m[i] {
			m[i][j] = true
		}
	}
	switch mode {
	case 1:
		if n >= 2 {
			m[0][1], m[1][0] = false, false
		}
	case 2:
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := rng.Float64() < 0.7
				m[i][j], m[j][i] = v, v
			}
		}
	case 3:
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					m[i][j] = rng.Float64() < 0.8
				}
			}
		}
	}
	return m
}

func randomStations(rng *rand.Rand, n int) []DCFStation {
	rates := []float64{6e6, 12e6, 24e6, 54e6}
	payloads := []int{0, 300, 1500}
	ss := make([]DCFStation, n)
	for i := range ss {
		ss[i] = DCFStation{
			ID:           fmt.Sprintf("s%d", i),
			RateBps:      rates[rng.Intn(len(rates))],
			PayloadBytes: payloads[rng.Intn(len(payloads))],
			Saturated:    rng.Float64() < 0.85,
		}
	}
	if n > 0 {
		ss[0].Saturated = true
	}
	return ss
}

// wordBoundarySizes straddle the engine's switch from the one-word
// loop (n ≤ 64) to the multi-word one.
var wordBoundarySizes = []int{1, 63, 64, 65}

// TestDCFDifferential drives the event engine and the slot-stepped
// oracle across randomized seeds and topologies — including hidden
// terminals — and requires identical results: the same goodput floats,
// attempts, collisions, drops, and busy airtime. Random rosters run on
// the one-word loop; the word-boundary sizes cover both loops.
func TestDCFDifferential(t *testing.T) {
	for c := 0; c < 12+len(wordBoundarySizes); c++ {
		rng := rand.New(rand.NewSource(int64(1000 + c)))
		n, seconds := 1+rng.Intn(12), 0.25
		if c >= 12 {
			n, seconds = wordBoundarySizes[c-12], 0.05
		}
		cfg := DCFConfig{
			Stations: randomStations(rng, n),
			Sense:    randomSense(rng, n, c%4),
			Seed:     int64(c * 31),
		}
		want := simulateDCFRef(cfg, seconds)
		got := SimulateDCF(cfg, seconds)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d (n=%d, sense mode %d): engine diverged from oracle\n got %+v\nwant %+v",
				c, n, c%4, got, want)
		}
	}
}

// TestCoexDifferential does the same for mixed WiFi + LTE-U + LBT
// domains against the slot-stepped coexistence reference. The
// word-boundary cases size the whole roster: the lone node is an LTE
// node with no WiFi at all, and at 65 the LTE nodes, which sit after
// the stations, straddle the word edge.
func TestCoexDifferential(t *testing.T) {
	for c := 0; c < 10+len(wordBoundarySizes); c++ {
		rng := rand.New(rand.NewSource(int64(7000 + c)))
		nW, seconds := 1+rng.Intn(6), 0.25
		cfg := CoexConfig{
			WiFi: randomStations(rng, nW),
			Seed: int64(c * 17),
		}
		nL := 1 + rng.Intn(2) // 1–2 LTE nodes
		if c >= 10 {
			n := wordBoundarySizes[c-10]
			nL = min(n, 2)
			nW, seconds = n-nL, 0.05
			cfg.WiFi = randomStations(rng, nW)
		}
		cfg.LTE = randomLTENodes(rng, nL)
		cfg.Sense = randomSense(rng, nW+nL, c%4)
		want := simulateCoexRef(cfg, seconds)
		got := SimulateCoex(cfg, seconds)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d (nW=%d nL=%d, sense mode %d): engine diverged from reference\n got %+v\nwant %+v",
				c, nW, nL, c%4, got, want)
		}
	}
}

// randomLTENodes draws n LTE nodes of random kinds and timing.
func randomLTENodes(rng *rand.Rand, n int) []LTENode {
	var nodes []LTENode
	for k := 0; k < n; k++ {
		nd := LTENode{ID: fmt.Sprintf("lte%d", k), RateBps: 36e6}
		if rng.Intn(2) == 0 {
			nd.Kind = LTEUDuty
			nd.OnMs = 5 + rng.Float64()*20
			nd.PeriodMs = nd.OnMs + rng.Float64()*30
			nd.OffsetMs = rng.Float64() * 10
		} else {
			nd.Kind = LTELBT
			nd.TXOPMs = 1 + rng.Float64()*7
			nd.CW = []int{15, 31, 63}[rng.Intn(3)]
		}
		nodes = append(nodes, nd)
	}
	return nodes
}

// TestCoexDifferentialE12Shaped holds the one-word loop to the
// reference on 200 rosters shaped like E12's domains: 4–8 saturated
// stations from the 54/24/12 Mbps mix under default sensing, and one
// LTE node — CSAT duty cycling at a random duty and phase over a 40 ms
// period, or LBT with a 4 ms TXOP and CW 63.
func TestCoexDifferentialE12Shaped(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	rates := []float64{54e6, 24e6, 12e6}
	for c := 0; c < 200; c++ {
		stations := make([]DCFStation, 4+rng.Intn(5))
		for i := range stations {
			stations[i] = DCFStation{ID: fmt.Sprintf("s%d", i), RateBps: rates[rng.Intn(3)], Saturated: true}
		}
		lte := LTENode{ID: "lte", Kind: LTELBT, RateBps: 36e6, TXOPMs: 4, CW: 63}
		if c%2 == 0 {
			lte = LTENode{ID: "lte", Kind: LTEUDuty, RateBps: 36e6,
				OnMs: 40 * (0.1 + 0.8*rng.Float64()), PeriodMs: 40, OffsetMs: float64(rng.Intn(40))}
		}
		cfg := CoexConfig{WiFi: stations, LTE: []LTENode{lte}, Seed: rng.Int63()}
		if got, want := SimulateCoex(cfg, 0.1), simulateCoexRef(cfg, 0.1); !reflect.DeepEqual(got, want) {
			t.Fatalf("roster %d (%d stations, %v): engine diverged from reference\n got %+v\nwant %+v",
				c, len(stations), lte.Kind, got, want)
		}
	}
}

// TestDifferentialMultiWord repeats both oracle comparisons past 64
// nodes, where sense rows, the blocked set and the ender mask span
// several words and a higher-indexed ender can sit in a later word.
func TestDifferentialMultiWord(t *testing.T) {
	for c := 0; c < 4; c++ {
		rng := rand.New(rand.NewSource(int64(9000 + c)))
		nW := 60 + rng.Intn(80)
		if c%2 == 0 {
			cfg := DCFConfig{Stations: randomStations(rng, nW), Seed: int64(c * 13)}
			cfg.Sense = randomSense(rng, nW, c)
			if got, want := SimulateDCF(cfg, 0.1), simulateDCFRef(cfg, 0.1); !reflect.DeepEqual(got, want) {
				t.Errorf("case %d (n=%d, sense mode %d): engine diverged from oracle\n got %+v\nwant %+v", c, nW, c, got, want)
			}
			continue
		}
		cfg := CoexConfig{
			WiFi: randomStations(rng, nW),
			LTE: []LTENode{
				{ID: "duty", Kind: LTEUDuty, RateBps: 36e6, OnMs: 8, PeriodMs: 20, OffsetMs: 3},
				{ID: "lbt", Kind: LTELBT, RateBps: 36e6, TXOPMs: 3, CW: 15},
			},
			Seed: int64(c * 13),
		}
		cfg.Sense = randomSense(rng, nW+2, c)
		if got, want := SimulateCoex(cfg, 0.1), simulateCoexRef(cfg, 0.1); !reflect.DeepEqual(got, want) {
			t.Errorf("case %d (nW=%d, sense mode %d): engine diverged from reference\n got %+v\nwant %+v", c, nW, c, got, want)
		}
	}
}

// TestDCFEngineSpeedup holds the tentpole's perf bar: the event engine
// must be ≥ 20× faster than the slot-stepped oracle on a 32-station
// 10-second saturated domain.
func TestDCFEngineSpeedup(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("timing test is meaningless under the race detector")
	}
	cfg := DCFConfig{Stations: benchDCFStations(32), Seed: 5}
	const seconds = 10.0

	start := time.Now()
	want := simulateDCFRef(cfg, seconds)
	refDur := time.Since(start)

	eng := newCoexEngine(CoexConfig{WiFi: cfg.Stations, Seed: cfg.Seed}, seconds)
	// Warm run outside the timed region; timed runs reuse the engine
	// the way sweeps do.
	eng.run()
	const reps = 3
	start = time.Now()
	for r := 0; r < reps; r++ {
		eng.reset()
		eng.run()
	}
	engDur := time.Since(start) / reps

	got := SimulateDCF(cfg, seconds)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("speedup config diverged: got %+v want %+v", got, want)
	}
	speedup := float64(refDur) / float64(engDur)
	t.Logf("oracle %v, engine %v, speedup %.1fx", refDur, engDur, speedup)
	if speedup < 20 {
		t.Errorf("engine only %.1fx faster than oracle, want ≥ 20x", speedup)
	}
}

// TestDCFEngineZeroAlloc pins the event loop at zero heap allocations
// per run once the engine is constructed.
func TestDCFEngineZeroAlloc(t *testing.T) {
	stations := benchDCFStations(32)
	sense := randomSense(rand.New(rand.NewSource(3)), 32, 2)
	eng := newCoexEngine(CoexConfig{WiFi: stations, Sense: sense, Seed: 7}, 1.0)
	allocs := testing.AllocsPerRun(5, func() {
		eng.reset()
		eng.run()
	})
	if allocs != 0 {
		t.Errorf("event loop allocates %.1f/op, want 0", allocs)
	}
	coex := newCoexEngine(CoexConfig{
		WiFi: benchDCFStations(8),
		LTE: []LTENode{
			{ID: "duty", Kind: LTEUDuty, RateBps: 36e6, OnMs: 20, PeriodMs: 40},
			{ID: "lbt", Kind: LTELBT, RateBps: 36e6, TXOPMs: 4, CW: 31},
		},
		Seed: 7,
	}, 1.0)
	allocs = testing.AllocsPerRun(5, func() {
		coex.reset()
		coex.run()
	})
	if allocs != 0 {
		t.Errorf("coex event loop allocates %.1f/op, want 0", allocs)
	}
}
