package exp

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"dlte/internal/metrics"
)

// The radio scan scenario.go ran before it ranked cells by distance,
// kept verbatim as a reference: every cell in the window pays a
// logarithm, the strongest RSRP wins, the lowest index wins a tie. The
// tests below hold the distance scan to it bit for bit.

func refBestLiveCell(spec *ScenarioSpec, x float64, t time.Duration) (int, float64) {
	best, bestRSRP := -1, math.Inf(-1)
	// Only cells within a few spacings matter; scan a window.
	c0 := int(x/spec.SpacingM) - 3
	if c0 < 0 {
		c0 = 0
	}
	for c := c0; c < spec.APs && c <= c0+6; c++ {
		if spec.cellDown(c, t) {
			continue
		}
		r := scenRSRP(math.Abs(x - spec.cellX(c)))
		if r > bestRSRP {
			best, bestRSRP = c, r
		}
	}
	if bestRSRP < scenMinUsableDB {
		return -1, bestRSRP
	}
	return best, bestRSRP
}

// refUE, refDraw, refMeasurePeriod and refUEPos are the per-UE draws
// and positions as scenario.go computed them before it kept draws in
// slots: every tick redraws the UE from the seed, offsets and speeds
// are evaluated from their hashes, and the corridor wraps with a double
// math.Mod.
type refUE struct {
	home        int
	offM, speed float64
	guti        uint64
	ip          uint32
}

func refDraw(spec *ScenarioSpec, seed int64, gi int) refUE {
	h := splitmix64(uint64(seed) ^ 0xA24BAED4963EE407)
	h = splitmix64(h ^ uint64(gi))
	h1 := splitmix64(h)
	h2 := splitmix64(h1)
	h3 := splitmix64(h2)
	return refUE{
		speed: spec.SpeedMps * (0.75 + 0.5*float64(h1%1000)/1000),
		home:  int(h2 % uint64(spec.APs)),
		offM:  (float64(h2>>32%1000)/1000 - 0.5) * spec.SpacingM,
		guti:  h3,
		ip:    uint32(h3 >> 32),
	}
}

func refMeasurePeriod(seed int64, gi, tick int) time.Duration {
	h := splitmix64(uint64(seed) ^ 0xC2B2AE3D27D4EB4F)
	h = splitmix64(h ^ uint64(gi)<<20 ^ uint64(tick))
	return scenMeasureBase + time.Duration(h%uint64(scenMeasureJitter))
}

func refUEPos(spec *ScenarioSpec, u refUE, t time.Duration) float64 {
	switch spec.Kind {
	case KindCorridor:
		span := float64(spec.APs-1) * spec.SpacingM
		if span <= 0 {
			return 0
		}
		x := spec.cellX(u.home) + u.offM + u.speed*t.Seconds()
		return math.Mod(math.Mod(x, span)+span, span)
	case KindFlashCrowd:
		if t >= spec.ConvergeAt && t < spec.DisperseAt {
			hot := spec.APs/2 - spec.HotCells/2 + u.home%spec.HotCells
			return spec.cellX(hot) + u.offM/8
		}
		return spec.cellX(u.home) + u.offM
	default:
		return spec.cellX(u.home) + u.offM
	}
}

// refRegion runs a region's slots on the reference handlers, which keep
// the per-handover interruption log the world kept before it derived
// the codes from hoCount: scenHOCode at each dLTE handover, the telecom
// sentinel at each telecom one.
type refRegion struct {
	*scenRegion
	seed  int64
	codes []uint16
}

// start and measure are scenRegion's handlers as they stood over
// refBestLiveCell, refDraw and the code log; activity is the region's
// own.
func (r *refRegion) start(l int, u scenUE) (time.Duration, float64) {
	r.events++
	gi, now := r.base+l, u.start
	d := refDraw(r.spec, r.seed, gi)
	r.pool.StartAttach(l)
	r.pool.Register(l, d.guti, d.ip)
	x := refUEPos(r.spec, d, now)
	cell, _ := refBestLiveCell(r.spec, x, now)
	r.serving[l] = int32(cell)
	return now + refMeasurePeriod(r.seed, gi, 0), x
}

func (r *refRegion) measure(l int, now time.Duration) (time.Duration, float64) {
	r.events++
	gi, spec := r.base+l, r.spec
	x := refUEPos(spec, refDraw(spec, r.seed, gi), now)
	cur := int(r.serving[l])

	telecomDead := r.scheme == SchemeTelecom && spec.Kind == KindFailureWave &&
		now >= spec.FailAt && now < spec.RecoverAt

	switch {
	case telecomDead:
		if cur >= 0 {
			r.serving[l] = -1
			r.dropped++
		}
	case cur >= 0 && spec.cellDown(cur, now):
		if best, _ := refBestLiveCell(spec, x, now); best >= 0 {
			r.serving[l] = int32(best)
			refRecordHandover(r, gi, l)
			r.reattached++
		} else {
			r.serving[l] = -1
			r.dropped++
		}
	case cur < 0:
		if best, _ := refBestLiveCell(spec, x, now); best >= 0 {
			r.serving[l] = int32(best)
		}
	default:
		servingRSRP := scenRSRP(math.Abs(x - spec.cellX(cur)))
		if best, bestRSRP := refBestLiveCell(spec, x, now); best >= 0 && best != cur &&
			scenTrigger.Decide(servingRSRP, bestRSRP) {
			r.serving[l] = int32(best)
			refRecordHandover(r, gi, l)
		}
	}

	tick := int(r.hoCount[l]) + int(r.pool.TAUCount(l))
	r.pool.TrackingAreaUpdate(l)
	return now + refMeasurePeriod(r.seed, gi, tick+1), x
}

func refRecordHandover(r *refRegion, gi, l int) {
	r.handovers++
	code := uint16(scenHOTelecomCode)
	if r.scheme != SchemeTelecom {
		code = scenHOCode(r.seed, gi, r.hoCount[l])
	}
	r.codes = append(r.codes, code)
	r.hoCount[l]++
}

// randScanSpec draws a scenario of any kind: spacing 150 m–3 km (below
// 200 m neighbouring cells share the clamp plateau; every third spacing
// is a whole number of metres, where midpoints are exact floats), a
// failure window that opens and closes inside the horizon.
func randScanSpec(rng *rand.Rand) ScenarioSpec {
	spec := ScenarioSpec{
		Name: "scan", Kind: ScenarioKind(rng.Intn(3)),
		UEs: 1500 + rng.Intn(1500), APs: 2 + rng.Intn(40),
		SpacingM: 150 + rng.Float64()*2850,
		SpeedMps: 5 + rng.Float64()*35,
		Horizon:  time.Duration(30+rng.Intn(30)) * time.Second,
	}
	if rng.Intn(3) == 0 {
		spec.SpacingM = math.Round(spec.SpacingM)
	}
	switch spec.Kind {
	case KindFlashCrowd:
		spec.HotCells = 1 + rng.Intn(4)
		spec.ConvergeAt = time.Duration(5+rng.Intn(10)) * time.Second
		spec.DisperseAt = spec.ConvergeAt + time.Duration(5+rng.Intn(10))*time.Second
		spec.Promotions = 8
	case KindFailureWave:
		// Sometimes every cell a window can reach is down.
		spec.FailAPs = 1 + rng.Intn(spec.APs)
		spec.FailAt = time.Duration(5+rng.Intn(10)) * time.Second
		spec.RecoverAt = spec.FailAt + time.Duration(5+rng.Intn(15))*time.Second
	}
	return spec
}

// noOpTickSpecs are the worlds measure's safe-radius exit and run's
// corridor run-ahead could most easily get wrong, all at 1 500 UEs:
//   - corridors at 20–250 m spacing, across the clamp plateau, where the
//     safe radius shrinks (below 200 m) and then is 0 (at 100 m and
//     below);
//   - a corridor whose lap (span/speed, 1.2–2 s) is shorter than a
//     measurement period, and one whose lap (11–18 s) is shorter than
//     the horizon, so UEs wrap many times and often inside a window;
//   - a horizon that cuts into a run-ahead window: at 1 km spacing and
//     25 m/s a UE spends ~38 s of every 40 inside one, so a 25.5 s
//     horizon lands inside most UEs' last window.
func noOpTickSpecs() []ScenarioSpec {
	var specs []ScenarioSpec
	for _, s := range []float64{20, 75, 100, 101, 150, 199.5, 200, 201, 250} {
		specs = append(specs, ScenarioSpec{Name: "plateau", Kind: KindCorridor, UEs: 1500, APs: 10,
			SpacingM: s, SpeedMps: 12, Horizon: 40 * time.Second})
	}
	return append(specs,
		ScenarioSpec{Name: "lap < period", Kind: KindCorridor, UEs: 1500, APs: 2,
			SpacingM: 300, SpeedMps: 200, Horizon: 30 * time.Second},
		ScenarioSpec{Name: "lap < horizon", Kind: KindCorridor, UEs: 1500, APs: 3,
			SpacingM: 400, SpeedMps: 60, Horizon: 60 * time.Second},
		ScenarioSpec{Name: "horizon in a window", Kind: KindCorridor, UEs: 1500, APs: 8,
			SpacingM: 1000, SpeedMps: 25, Horizon: 25500 * time.Millisecond},
	)
}

// squeezeSpacing moves a random spec's spacing into 20–250 m, where
// the safe radius shrinks or is 0.
func squeezeSpacing(spec *ScenarioSpec) { spec.SpacingM = 20 + math.Mod(spec.SpacingM, 230) }

// TestNearestLiveCellMatchesRSRPScan checks the scan itself on the
// positions where a distance ranking could part from an RSRP ranking:
// cell centres, midpoints (computed three ways, and one float either
// side), both corridor ends and beyond them, and random points; before,
// inside and after the failure window. Every fourth spec is squeezed to
// 20–100 m spacing, where several cells west of a UE share the clamp
// plateau and the farthest of them wins the tie.
func TestNearestLiveCellMatchesRSRPScan(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for n := 0; n < 300; n++ {
		spec := randScanSpec(rng)
		if n%4 == 0 {
			spec.SpacingM = 20 + math.Mod(spec.SpacingM, 80)
		}
		s := spec.SpacingM
		xs := []float64{0, -0.5 * s, -s, spec.cellX(spec.APs - 1), (float64(spec.APs) - 0.5) * s, float64(spec.APs+4) * s}
		for c := 0; c < spec.APs; c++ {
			mids := []float64{
				(spec.cellX(c) + spec.cellX(c+1)) / 2,
				spec.cellX(c) + 0.5*s,
				(float64(c) + 0.5) * s,
			}
			xs = append(xs, spec.cellX(c), spec.cellX(c)+50, spec.cellX(c)-99.9)
			for _, m := range mids {
				xs = append(xs, m, math.Nextafter(m, math.Inf(1)), math.Nextafter(m, math.Inf(-1)))
			}
		}
		for i := 0; i < 200; i++ {
			xs = append(xs, (rng.Float64()*float64(spec.APs+1)-0.5)*s)
		}
		times := []time.Duration{0, spec.FailAt, spec.FailAt + time.Second, spec.RecoverAt, spec.Horizon}
		for _, at := range times {
			for _, x := range xs {
				wantCell, wantRSRP := refBestLiveCell(&spec, x, at)
				if got := spec.bestLiveCell(x, at); got != wantCell {
					t.Fatalf("%+v: bestLiveCell(%v, %v) = %d, RSRP scan %d", spec, x, at, got, wantCell)
				}
				cell, d := spec.nearestLiveCell(x, at)
				gotRSRP := math.Inf(-1) // the RSRP scan's answer for "nothing live"
				if cell >= 0 {
					gotRSRP = scenRSRP(d)
				}
				if math.Float64bits(gotRSRP) != math.Float64bits(wantRSRP) || wantCell >= 0 && cell != wantCell {
					t.Fatalf("%+v: nearestLiveCell(%v, %v) = cell %d at %v m (%v dBm), RSRP scan cell %d (%v dBm)",
						spec, x, at, cell, d, gotRSRP, wantCell, wantRSRP)
				}
			}
		}
	}
}

// scanRec is the outcome of one event: the UE's serving cell and
// handover ordinal after it, and the region's running failure-wave
// counts.
type scanRec struct {
	at                  time.Duration
	gi                  int
	serving             int32
	ho                  uint32
	dropped, reattached uint64
}

// runScanWorld runs spec to its horizon on the wheel-ordered drain
// (scenwheel_test.go), on the reference handlers when ref is set, and
// returns every region's outcomes in firing order, the world, and
// (reference runs) the interruption quantiles of the logged codes,
// taken by metrics.Histogram.
func runScanWorld(t *testing.T, spec ScenarioSpec, scheme Scheme, seed int64, ref bool) ([][]scanRec, *CompiledScenario, [2]float64) {
	t.Helper()
	w, err := CompileScenario(spec, scheme, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	logs := make([][]scanRec, len(w.regions))
	var refs []*refRegion
	steps := func(reg *scenRegion) scenSteps {
		if !ref {
			return reg
		}
		rr := &refRegion{scenRegion: reg, seed: seed}
		refs = append(refs, rr)
		return rr
	}
	newScenWheel(w, steps, func(reg *scenRegion, l int, now time.Duration) {
		logs[reg.idx] = append(logs[reg.idx], scanRec{now, reg.base + l, reg.serving[l], reg.hoCount[l], reg.dropped, reg.reattached})
	}).runUntil(spec.Horizon)
	h := metrics.NewHistogram()
	for _, rr := range refs {
		for _, c := range rr.codes {
			h.Observe(scenHOMs(c))
		}
	}
	return logs, w, [2]float64{h.Quantile(0.5), h.Quantile(0.99)}
}

// TestMeasureMatchesRSRPScan runs whole worlds twice — measure as it is,
// and as it stood over the RSRP scan, per-tick draws and the logged
// interruption codes — and requires the same outcome of every single
// event: serving cell, handover ordinal, drop and re-attach counts; and
// the world's InterruptionQuantiles bit-equal to the histogram of the
// reference's code log. UE offsets are drawn in thousandths of a
// spacing, so every world has UEs standing exactly on midpoints and on
// cell centres, and (stationary kinds) outside both corridor ends.
// Every fourth random spec is squeezed to 20–250 m spacing, and the
// noOpTickSpecs run under both schemes, so ticks inside, at and just
// outside the safe radius all meet the reference scan. A stationary
// world that never hands over closes the list.
func TestMeasureMatchesRSRPScan(t *testing.T) {
	check := func(spec ScenarioSpec, scheme Scheme, seed int64) uint64 {
		got, gw, _ := runScanWorld(t, spec, scheme, seed, false)
		want, ww, wq := runScanWorld(t, spec, scheme, seed, true)
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("%+v %v: region %d ran %d events, reference %d", spec, scheme, i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("%+v %v: region %d event %d:\n  got  %+v\n  want %+v", spec, scheme, i, j, got[i][j], want[i][j])
				}
			}
		}
		gp50, gp99 := gw.InterruptionQuantiles()
		if gw.Handovers() != ww.Handovers() ||
			math.Float64bits(gp50) != math.Float64bits(wq[0]) || math.Float64bits(gp99) != math.Float64bits(wq[1]) {
			t.Fatalf("%+v %v: handovers %d (p50 %v p99 %v), reference %d (p50 %v p99 %v)",
				spec, scheme, gw.Handovers(), gp50, gp99, ww.Handovers(), wq[0], wq[1])
		}
		return gw.Handovers()
	}
	rng := rand.New(rand.NewSource(41))
	for n := 0; n < 40; n++ {
		spec := randScanSpec(rng)
		if n%4 == 0 {
			squeezeSpacing(&spec)
		}
		check(spec, Scheme(n%2), rng.Int63())
	}
	for n, spec := range noOpTickSpecs() {
		check(spec, Scheme(n%2), int64(n))
	}
	still := ScenarioSpec{
		Name: "still", Kind: KindFailureWave, UEs: 1000, APs: 8, SpacingM: 500,
		FailAt: time.Hour, RecoverAt: 2 * time.Hour, Horizon: 30 * time.Second,
	}
	for _, scheme := range []Scheme{SchemeDLTE, SchemeTelecom} {
		if n := check(still, scheme, 7); n != 0 {
			t.Fatalf("%v: the stationary world handed over %d times", scheme, n)
		}
	}
}

// TestScenWrapMatchesMod holds scenWrap to the double math.Mod it
// replaces, bit for bit: integer and fractional spans; x across
// (−3, 3)·span; every multiple of span in that range and its float
// neighbours, where r+span may round up to 2·span; ±0, NaN and ±Inf.
func TestScenWrapMatchesMod(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	spans := []float64{1, 3, 1000, 31000, 0.1, 0.3, 1.0 / 3, 150.7, 2999.999, 1e-300, 5e-324, 1e300}
	for i := 0; i < 20; i++ {
		spans = append(spans, float64(1+rng.Intn(100000)), rng.Float64()*1e4)
	}
	for _, span := range spans {
		xs := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
		for k := -3.0; k <= 3; k++ {
			m := k * span
			xs = append(xs, m, math.Nextafter(m, math.Inf(1)), math.Nextafter(m, math.Inf(-1)))
		}
		for i := 0; i < 2000; i++ {
			xs = append(xs, (rng.Float64()*6-3)*span)
		}
		for _, x := range xs {
			want := math.Mod(math.Mod(x, span)+span, span)
			if got := scenWrap(x, span); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("scenWrap(%v, %v) = %v (%#x), math.Mod %v (%#x)",
					x, span, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}
