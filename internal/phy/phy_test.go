package phy

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dlte/internal/metrics"
)

func TestNumPRB(t *testing.T) {
	cases := map[float64]int{1.4: 6, 3: 15, 5: 25, 10: 50, 15: 75, 20: 100}
	for mhz, want := range cases {
		if got := NumPRB(mhz); got != want {
			t.Errorf("NumPRB(%v) = %d, want %d", mhz, got, want)
		}
	}
}

func TestLTECellSingleUserPeakRate(t *testing.T) {
	// One perfect-channel user gets the whole grid: 50 PRB × 180 kHz ×
	// 5.5547 b/s/Hz × 0.75 ≈ 37.5 Mbps.
	res := SimulateLTECell(LTECellConfig{ChannelMHz: 10}, []LTEUser{{ID: "u", SINRdB: 30}}, 200)
	want := 50 * PRBBandwidthHz * 5.5547 * LTEOverhead
	if math.Abs(res.PerUserBps["u"]-want)/want > 0.01 {
		t.Errorf("peak rate = %v, want ≈%v", res.PerUserBps["u"], want)
	}
	if res.ScheduledTTIs != 200 {
		t.Errorf("ScheduledTTIs = %d", res.ScheduledTTIs)
	}
}

func TestLTECellDeadUserGetsNothing(t *testing.T) {
	res := SimulateLTECell(LTECellConfig{ChannelMHz: 10},
		[]LTEUser{{ID: "alive", SINRdB: 20}, {ID: "dead", SINRdB: -20}}, 100)
	if res.PerUserBps["dead"] != 0 {
		t.Errorf("dead user got %v bps", res.PerUserBps["dead"])
	}
	if res.PerUserBps["alive"] <= 0 {
		t.Error("alive user starved")
	}
}

func TestLTECellHARQExtendsCoverage(t *testing.T) {
	users := []LTEUser{{ID: "edge", SINRdB: -9}}
	off := SimulateLTECell(LTECellConfig{ChannelMHz: 10, HARQ: false}, users, 100)
	on := SimulateLTECell(LTECellConfig{ChannelMHz: 10, HARQ: true}, users, 100)
	if off.PerUserBps["edge"] != 0 {
		t.Errorf("edge user alive without HARQ: %v", off.PerUserBps["edge"])
	}
	if on.PerUserBps["edge"] <= 0 {
		t.Error("edge user dead with HARQ")
	}
}

func TestLTERoundRobinEqualAirtime(t *testing.T) {
	// Equal channels → equal throughput under round robin.
	users := []LTEUser{{ID: "a", SINRdB: 15}, {ID: "b", SINRdB: 15}, {ID: "c", SINRdB: 15}}
	res := SimulateLTECell(LTECellConfig{ChannelMHz: 10, Scheduler: &RoundRobin{}}, users, 300)
	var vals []float64
	for _, v := range res.PerUserBps {
		vals = append(vals, v)
	}
	if j := metrics.JainIndex(vals); j < 0.999 {
		t.Errorf("round robin fairness = %v", j)
	}
}

func TestLTERoundRobinUnequalChannels(t *testing.T) {
	// Round robin shares PRBs equally, so throughputs track channel
	// quality (unlike equal-throughput schedulers).
	users := []LTEUser{{ID: "near", SINRdB: 25}, {ID: "far", SINRdB: 0}}
	res := SimulateLTECell(LTECellConfig{ChannelMHz: 10, Scheduler: &RoundRobin{}}, users, 300)
	if res.PerUserBps["near"] <= res.PerUserBps["far"]*2 {
		t.Errorf("near %v vs far %v: expected large gap", res.PerUserBps["near"], res.PerUserBps["far"])
	}
}

func TestLTEProportionalFairBalancesAirtime(t *testing.T) {
	users := []LTEUser{{ID: "near", SINRdB: 25}, {ID: "far", SINRdB: 2}}
	res := SimulateLTECell(LTECellConfig{ChannelMHz: 10, Scheduler: ProportionalFair{}, FastFading: true, Seed: 1}, users, 500)
	// PF gives comparable airtime: far user gets nonzero but lower
	// throughput; near user must not monopolize.
	if res.PerUserBps["far"] <= 0 {
		t.Fatal("PF starved the far user")
	}
	ratio := res.PerUserBps["near"] / res.PerUserBps["far"]
	effRatio := 5.5547 / 0.8770 // CQI15 vs CQI5 efficiency ≈ 6.3
	if ratio < 2 || ratio > effRatio*2 {
		t.Errorf("PF throughput ratio = %v, want within [2, %v]", ratio, effRatio*2)
	}
}

func TestLTEMaxRateStarves(t *testing.T) {
	users := []LTEUser{{ID: "near", SINRdB: 25}, {ID: "far", SINRdB: 5}}
	res := SimulateLTECell(LTECellConfig{ChannelMHz: 10, Scheduler: MaxRate{}}, users, 200)
	if res.PerUserBps["far"] != 0 {
		t.Errorf("max-rate gave far user %v", res.PerUserBps["far"])
	}
	// And MaxRate total ≥ PF total (it is the throughput bound).
	pf := SimulateLTECell(LTECellConfig{ChannelMHz: 10, Scheduler: ProportionalFair{}}, users, 200)
	if res.TotalBps < pf.TotalBps-1 {
		t.Errorf("max-rate total %v < PF total %v", res.TotalBps, pf.TotalBps)
	}
}

func TestLTEDemandCap(t *testing.T) {
	users := []LTEUser{{ID: "capped", SINRdB: 25, DemandBps: 1e6}, {ID: "bulk", SINRdB: 25}}
	res := SimulateLTECell(LTECellConfig{ChannelMHz: 10, Scheduler: ProportionalFair{}}, users, 500)
	if res.PerUserBps["capped"] > 1.05e6 {
		t.Errorf("capped user exceeded demand: %v", res.PerUserBps["capped"])
	}
	// The bulk user absorbs the remaining capacity.
	if res.PerUserBps["bulk"] < 10e6 {
		t.Errorf("bulk user got only %v", res.PerUserBps["bulk"])
	}
}

func TestLTEShareFraction(t *testing.T) {
	users := []LTEUser{{ID: "u", SINRdB: 20}}
	full := SimulateLTECell(LTECellConfig{ChannelMHz: 10}, users, 1000)
	half := SimulateLTECell(LTECellConfig{ChannelMHz: 10, ShareFraction: 0.5}, users, 1000)
	ratio := half.PerUserBps["u"] / full.PerUserBps["u"]
	if math.Abs(ratio-0.5) > 0.05 {
		t.Errorf("half share delivered %.3f of full, want ≈0.5", ratio)
	}
	if half.ScheduledTTIs < 450 || half.ScheduledTTIs > 550 {
		t.Errorf("half share owned %d of 1000 TTIs", half.ScheduledTTIs)
	}
}

func TestLTESchedulerNames(t *testing.T) {
	if (&RoundRobin{}).Name() == "" || (ProportionalFair{}).Name() == "" || (MaxRate{}).Name() == "" {
		t.Error("schedulers must have names")
	}
}

func TestLTEEmptyCell(t *testing.T) {
	res := SimulateLTECell(LTECellConfig{ChannelMHz: 10}, nil, 100)
	if res.TotalBps != 0 || len(res.PerUserBps) != 0 {
		t.Errorf("empty cell produced traffic: %+v", res)
	}
	// Round robin with no users must not spin forever.
	res = SimulateLTECell(LTECellConfig{ChannelMHz: 10, Scheduler: &RoundRobin{}}, nil, 100)
	if res.TotalBps != 0 {
		t.Error("round robin empty cell produced traffic")
	}
}

func TestDCFSingleStationEfficiency(t *testing.T) {
	res := SimulateDCF(DCFConfig{
		Stations: []DCFStation{{ID: "s", RateBps: 54e6, Saturated: true}},
		Seed:     1,
	}, 1.0)
	// One saturated station: goodput well above half the PHY rate,
	// below the PHY rate.
	if res.PerStationBps["s"] < 25e6 || res.PerStationBps["s"] > 54e6 {
		t.Errorf("single-station goodput = %v", res.PerStationBps["s"])
	}
	if res.Collisions != 0 {
		t.Errorf("single station collided %d times", res.Collisions)
	}
	if res.BusyAirtimeFraction < 0.7 {
		t.Errorf("saturated station busy fraction = %v", res.BusyAirtimeFraction)
	}
}

func TestDCFContentionOverhead(t *testing.T) {
	mk := func(n int) []DCFStation {
		var ss []DCFStation
		for i := 0; i < n; i++ {
			ss = append(ss, DCFStation{ID: string(rune('a' + i)), RateBps: 54e6, Saturated: true})
		}
		return ss
	}
	one := SimulateDCF(DCFConfig{Stations: mk(1), Seed: 1}, 1.0)
	eight := SimulateDCF(DCFConfig{Stations: mk(8), Seed: 1}, 1.0)
	// Aggregate throughput degrades under contention (collisions +
	// backoff) relative to a single transmitter.
	if eight.TotalBps >= one.TotalBps {
		t.Errorf("8 stations total %v ≥ 1 station %v", eight.TotalBps, one.TotalBps)
	}
	if eight.Collisions == 0 {
		t.Error("8 saturated stations never collided")
	}
	// But fairness across equal stations stays high.
	var vals []float64
	for _, v := range eight.PerStationBps {
		vals = append(vals, v)
	}
	if j := metrics.JainIndex(vals); j < 0.9 {
		t.Errorf("DCF fairness across equals = %v", j)
	}
}

func TestDCFHiddenTerminalCollapse(t *testing.T) {
	// Two stations that cannot sense each other: throughput collapses
	// versus the same pair with carrier sense.
	stations := []DCFStation{
		{ID: "a", RateBps: 24e6, Saturated: true},
		{ID: "b", RateBps: 24e6, Saturated: true},
	}
	visible := SimulateDCF(DCFConfig{Stations: stations, Seed: 2}, 1.0)
	hiddenSense := [][]bool{{true, false}, {false, true}} // self only
	hidden := SimulateDCF(DCFConfig{Stations: stations, Sense: hiddenSense, Seed: 2}, 1.0)
	if hidden.TotalBps > visible.TotalBps*0.65 {
		t.Errorf("hidden pair %v vs visible pair %v: expected collapse", hidden.TotalBps, visible.TotalBps)
	}
	// Hidden stations collide roughly 5× more often than sensing ones.
	if hidden.CollisionRate < 0.4 {
		t.Errorf("hidden collision rate = %v, want > 0.4", hidden.CollisionRate)
	}
	if visible.CollisionRate > hidden.CollisionRate/2 {
		t.Errorf("visible collision rate %v not ≪ hidden %v", visible.CollisionRate, hidden.CollisionRate)
	}
}

// TestDCFHiddenPairCollapse is the hidden-terminal regression the
// registry story rests on: two mutually-unsensing saturated stations
// whose frames (12 Mbps, 12 kB aggregates — ~8 ms on air, longer than
// any backoff the 1023-slot CW can draw) always overlap. Collision rate
// goes to ~1 and AP goodput to ~0; the same pair with carrier sense is
// fine.
func TestDCFHiddenPairCollapse(t *testing.T) {
	stations := []DCFStation{
		{ID: "a", RateBps: 12e6, PayloadBytes: 12000, Saturated: true},
		{ID: "b", RateBps: 12e6, PayloadBytes: 12000, Saturated: true},
	}
	hidden := SimulateDCF(DCFConfig{
		Stations: stations,
		Sense:    [][]bool{{true, false}, {false, true}},
		Seed:     2,
	}, 1.0)
	sensing := SimulateDCF(DCFConfig{Stations: stations, Seed: 2}, 1.0)

	if hidden.CollisionRate < 0.95 {
		t.Errorf("hidden pair collision rate = %.3f, want ≈1", hidden.CollisionRate)
	}
	if hidden.TotalBps > 0.02*sensing.TotalBps {
		t.Errorf("hidden pair goodput %.0f not ≈0 (sensing pair %.0f)", hidden.TotalBps, sensing.TotalBps)
	}
	if sensing.CollisionRate > 0.3 {
		t.Errorf("sensing pair collision rate = %.3f, want low", sensing.CollisionRate)
	}
	if sensing.TotalBps < 5e6 {
		t.Errorf("sensing pair goodput = %.0f, want healthy", sensing.TotalBps)
	}
}

// TestDCFDropAccounting pins the retry-limit bookkeeping: a frame that
// collides more than dcfRetryLimit times in a row is dropped and
// counted, not silently recycled. Every drop costs retryLimit+1
// collided attempts, and attempts reconcile with successes, collisions,
// and at most one in-flight frame per station.
func TestDCFDropAccounting(t *testing.T) {
	clean := SimulateDCF(DCFConfig{
		Stations: []DCFStation{{ID: "s", RateBps: 54e6, Saturated: true}},
		Seed:     1,
	}, 1.0)
	if clean.Drops != 0 {
		t.Errorf("lone station dropped %d frames", clean.Drops)
	}

	stations := []DCFStation{
		{ID: "a", RateBps: 24e6, Saturated: true},
		{ID: "b", RateBps: 24e6, Saturated: true},
	}
	hidden := SimulateDCF(DCFConfig{
		Stations: stations,
		Sense:    [][]bool{{true, false}, {false, true}},
		Seed:     2,
	}, 1.0)
	if hidden.Drops == 0 {
		t.Fatal("hidden saturated pair never exhausted the retry limit")
	}
	if hidden.Drops*(dcfRetryLimit+1) > hidden.Collisions {
		t.Errorf("%d drops need ≥ %d collisions, have %d",
			hidden.Drops, hidden.Drops*(dcfRetryLimit+1), hidden.Collisions)
	}
	successes := 0
	for _, bps := range hidden.PerStationBps {
		successes += int(bps / (1500 * 8)) // 1 s of default-payload frames
	}
	inFlight := hidden.Attempts - hidden.Collisions - successes
	if inFlight < 0 || inFlight > len(stations) {
		t.Errorf("attempts %d, collisions %d, successes %d: %d unaccounted",
			hidden.Attempts, hidden.Collisions, successes, inFlight)
	}
}

func TestDCFDeterministic(t *testing.T) {
	cfg := DCFConfig{
		Stations: []DCFStation{
			{ID: "a", RateBps: 24e6, Saturated: true},
			{ID: "b", RateBps: 12e6, Saturated: true},
		},
		Seed: 9,
	}
	r1 := SimulateDCF(cfg, 0.5)
	r2 := SimulateDCF(cfg, 0.5)
	if r1.TotalBps != r2.TotalBps || r1.Collisions != r2.Collisions {
		t.Errorf("DCF not deterministic: %+v vs %+v", r1, r2)
	}
}

func TestDCFUnsaturatedStationSilent(t *testing.T) {
	res := SimulateDCF(DCFConfig{
		Stations: []DCFStation{
			{ID: "on", RateBps: 24e6, Saturated: true},
			{ID: "off", RateBps: 24e6, Saturated: false},
		},
		Seed: 3,
	}, 0.5)
	if res.PerStationBps["off"] != 0 {
		t.Errorf("idle station transmitted: %v", res.PerStationBps["off"])
	}
	if res.PerStationBps["on"] <= 0 {
		t.Error("active station starved")
	}
}

func TestTDMNoCollisionsAndFairness(t *testing.T) {
	shares := []TDMShare{
		{ID: "ap1", RateBps: 20e6},
		{ID: "ap2", RateBps: 20e6},
	}
	res := SimulateTDM(shares)
	want := 0.5 * 20e6 * (1 - TDMGuardOverhead)
	for _, id := range []string{"ap1", "ap2"} {
		if math.Abs(res.PerStationBps[id]-want) > 1 {
			t.Errorf("%s = %v, want %v", id, res.PerStationBps[id], want)
		}
		if math.Abs(res.AirtimeFraction[id]-0.5) > 1e-9 {
			t.Errorf("%s airtime = %v", id, res.AirtimeFraction[id])
		}
	}
}

func TestTDMWeights(t *testing.T) {
	res := SimulateTDM([]TDMShare{
		{ID: "big", Weight: 3, RateBps: 10e6},
		{ID: "small", Weight: 1, RateBps: 10e6},
	})
	if math.Abs(res.AirtimeFraction["big"]-0.75) > 1e-9 {
		t.Errorf("weighted airtime = %v", res.AirtimeFraction["big"])
	}
	if res.PerStationBps["big"] <= res.PerStationBps["small"]*2.9 {
		t.Errorf("weights not honored: %v vs %v", res.PerStationBps["big"], res.PerStationBps["small"])
	}
}

func TestTDMEmpty(t *testing.T) {
	res := SimulateTDM(nil)
	if res.TotalBps != 0 {
		t.Errorf("empty TDM total = %v", res.TotalBps)
	}
}

func TestTDMBeatsContendedDCF(t *testing.T) {
	// The paper's efficiency claim: explicit coordination beats CSMA
	// under contention at equal fairness. 6 transmitters at 24 Mbps.
	var dcfStations []DCFStation
	var tdmShares []TDMShare
	for i := 0; i < 6; i++ {
		id := string(rune('a' + i))
		dcfStations = append(dcfStations, DCFStation{ID: id, RateBps: 24e6, Saturated: true})
		tdmShares = append(tdmShares, TDMShare{ID: id, RateBps: 24e6 * WiFiLikeMACFactor})
	}
	dcf := SimulateDCF(DCFConfig{Stations: dcfStations, Seed: 4}, 1.0)
	tdm := SimulateTDM(tdmShares)
	if tdm.TotalBps <= dcf.TotalBps {
		t.Errorf("TDM %v ≤ DCF %v under 6-way contention", tdm.TotalBps, dcf.TotalBps)
	}
	var dcfVals, tdmVals []float64
	for _, v := range dcf.PerStationBps {
		dcfVals = append(dcfVals, v)
	}
	for _, v := range tdm.PerStationBps {
		tdmVals = append(tdmVals, v)
	}
	if metrics.JainIndex(tdmVals) < metrics.JainIndex(dcfVals)-0.02 {
		t.Errorf("TDM fairness %v below DCF %v", metrics.JainIndex(tdmVals), metrics.JainIndex(dcfVals))
	}
}

func TestMultiCellModeString(t *testing.T) {
	if Uncoordinated.String() != "uncoordinated" || FairShare.String() != "fair-share" ||
		Cooperative.String() != "cooperative" || MultiCellMode(99).String() != "unknown" {
		t.Error("mode names wrong")
	}
}

// twoCellScenario builds a canonical 2-cell topology: each cell has
// clients near it; interference halves effective SINR; one cell is
// overloaded so cooperation has something to win.
func twoCellScenario() []MultiUser {
	var users []MultiUser
	// 6 users homed on cell 0 (overloaded), 1 on cell 1.
	for i := 0; i < 6; i++ {
		users = append(users, MultiUser{
			ID:             "a" + string(rune('0'+i)),
			SINRInterfered: []float64{6, -3},
			SINROrthogonal: []float64{18, 9},
			Home:           0,
		})
	}
	users = append(users, MultiUser{
		ID:             "b0",
		SINRInterfered: []float64{-3, 6},
		SINROrthogonal: []float64{9, 18},
		Home:           1,
	})
	return users
}

func TestMultiCellOrthogonalBeatsInterference(t *testing.T) {
	users := twoCellScenario()
	cfg := MultiCellConfig{NumCells: 2, ChannelMHz: 10, TTIs: 400, HARQ: true, Seed: 1}

	cfg.Mode = Uncoordinated
	un := SimulateMultiCell(cfg, users)
	cfg.Mode = FairShare
	fair := SimulateMultiCell(cfg, users)

	// Orthogonal sharing halves airtime but more than recovers it in
	// spectral efficiency when interference is severe: total goes up.
	if fair.TotalBps <= un.TotalBps {
		t.Errorf("fair-share total %v ≤ uncoordinated %v", fair.TotalBps, un.TotalBps)
	}
	if un.Handovers != 0 || fair.Handovers != 0 {
		t.Error("non-cooperative modes performed handovers")
	}
}

func TestMultiCellCooperativeWins(t *testing.T) {
	users := twoCellScenario()
	cfg := MultiCellConfig{NumCells: 2, ChannelMHz: 10, TTIs: 400, HARQ: true, Seed: 1}

	cfg.Mode = FairShare
	fair := SimulateMultiCell(cfg, users)
	cfg.Mode = Cooperative
	coop := SimulateMultiCell(cfg, users)

	// Cooperation load-balances: some users of the overloaded AP are
	// served by the idle neighbor, and aggregate throughput rises.
	if coop.Handovers == 0 {
		t.Error("cooperative mode made no cross-AP assignments")
	}
	if coop.TotalBps <= fair.TotalBps {
		t.Errorf("cooperative %v ≤ fair-share %v", coop.TotalBps, fair.TotalBps)
	}
	// Shares are load-proportional and sum to ≈1.
	sum := 0.0
	for _, s := range coop.CellShare {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("cooperative shares sum to %v", sum)
	}
}

func TestMultiCellEmpty(t *testing.T) {
	res := SimulateMultiCell(MultiCellConfig{}, nil)
	if res.TotalBps != 0 {
		t.Error("empty multicell produced traffic")
	}
}

// fastFadeRef is the fading draw as first written: FNV-1a through
// hash/fnv over fmt's rendering of the same text.
func fastFadeRef(seed int64, user string, tti int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", seed, user, tti)
	x := h.Sum64()
	u := float64(x%10000)/10000.0 - 0.5
	return u * 8
}

// TestFastFadeMatchesReference: the in-place hash draws exactly what
// the fmt-and-hash/fnv reference does, for seeds of either sign and
// any size, user IDs empty to far longer than the number buffer, and
// TTIs up to the extremes.
func TestFastFadeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seeds := []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64}
	users := []string{"", "u", "ue-17", strings.Repeat("long-user-id/", 9), "ü|%d"}
	ttis := []int{0, 1, 999, -5, math.MaxInt, math.MinInt}
	for i := 0; i < 200; i++ {
		seeds = append(seeds, rng.Int63()-rng.Int63())
		ttis = append(ttis, rng.Intn(1_000_000))
		users = append(users, strings.Repeat("x", rng.Intn(64)))
	}
	for i, seed := range seeds {
		for j, user := range users {
			tti := ttis[(i+j)%len(ttis)]
			if got, want := fastFadeDB(seed, user, tti), fastFadeRef(seed, user, tti); got != want {
				t.Fatalf("fastFadeDB(%d, %q, %d) = %v, reference %v", seed, user, tti, got, want)
			}
		}
	}
}

// TestFastFadeAllocs: a draw allocates nothing.
func TestFastFadeAllocs(t *testing.T) {
	user := strings.Repeat("ue", 40)
	if allocs := testing.AllocsPerRun(100, func() { fastFadeDB(math.MinInt64, user, 123456) }); allocs != 0 {
		t.Errorf("fastFadeDB: %.1f allocs per draw, want 0", allocs)
	}
}

// TestLTEAllocateAllocs: every policy fills the caller's grants buffer
// without allocating, and a cell run's allocations do not grow with
// its TTI count.
func TestLTEAllocateAllocs(t *testing.T) {
	users := []*lteUserState{
		{LTEUser: LTEUser{ID: "a", SINRdB: 20}, avgRateBps: 1},
		{LTEUser: LTEUser{ID: "b", SINRdB: 5, Weight: 2}, avgRateBps: 1},
		{LTEUser: LTEUser{ID: "c", SINRdB: -20}, avgRateBps: 1, demandBits: 1, gotBits: 2},
	}
	rates := []float64{900, 300, 0}
	grants := make([]int, NumPRB(20))
	for _, s := range []LTEScheduler{&RoundRobin{}, ProportionalFair{}, MaxRate{}} {
		for _, us := range [][]*lteUserState{users, nil} {
			if allocs := testing.AllocsPerRun(100, func() { s.Allocate(0, us, rates, grants) }); allocs != 0 {
				t.Errorf("%s over %d users: %.1f allocs per TTI, want 0", s.Name(), len(us), allocs)
			}
		}
		cell := func(ttis int) float64 {
			cfg := LTECellConfig{ChannelMHz: 20, Scheduler: s, FastFading: true, Seed: 3}
			lu := []LTEUser{{ID: "a", SINRdB: 20}, {ID: "b", SINRdB: 5}}
			return testing.AllocsPerRun(5, func() { SimulateLTECell(cfg, lu, ttis) })
		}
		if short, long := cell(10), cell(1000); long != short {
			t.Errorf("%s: a cell run allocates %.0f times over 10 TTIs, %.0f over 1000", s.Name(), short, long)
		}
	}
}

func TestFastFadeDeterministic(t *testing.T) {
	a := fastFadeDB(1, "u", 7)
	b := fastFadeDB(1, "u", 7)
	if a != b {
		t.Error("fastFade not deterministic")
	}
	if fastFadeDB(1, "u", 7) == fastFadeDB(1, "u", 8) &&
		fastFadeDB(1, "u", 8) == fastFadeDB(1, "u", 9) {
		t.Error("fastFade constant across TTIs")
	}
	if math.Abs(a) > 4 {
		t.Errorf("fade %v outside ±4 dB", a)
	}
}
