package exp

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"dlte/internal/ue"
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

// refHandle and refMeasure are scenRegion.handle and .measure as they
// stood over refBestLiveCell.
func refHandle(r *scenRegion, arg uint64) {
	r.events++
	l := int(arg &^ (uint64(3) << 62))
	gi := r.base + l
	now := r.sch.Now()
	switch arg >> 62 {
	case scenKindStart:
		u := scenDraw(r.spec, r.seed, gi)
		r.pool.StartAttach(l)
		r.pool.Register(l, u.guti, u.ip)
		cell, _ := refBestLiveCell(r.spec, r.spec.uePos(u, now), now)
		r.serving[l] = int32(cell)
		r.sch.AtIndexed(now+scenMeasurePeriod(r.seed, gi, 0), scenArg(scenKindMeasure, l))
	case scenKindMeasure:
		refMeasure(r, l, gi, now)
	case scenKindActivity:
		if r.pool.State(l) != ue.IdleAttached {
			return
		}
		r.promos = append(r.promos, scenPromo{at: now, gi: uint64(gi), rec: r.pool.Promote(l)})
	}
}

func refMeasure(r *scenRegion, l, gi int, now time.Duration) {
	spec := r.spec
	u := scenDraw(spec, r.seed, gi)
	x := spec.uePos(u, now)
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
			r.recordHandover(gi, l)
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
			r.recordHandover(gi, l)
		}
	}

	tick := int(r.hoCount[l]) + int(r.pool.TAUCount(l))
	r.pool.TrackingAreaUpdate(l)
	r.sch.AtIndexed(now+scenMeasurePeriod(r.seed, gi, tick+1), scenArg(scenKindMeasure, l))
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

// TestNearestLiveCellMatchesRSRPScan checks the scan itself on the
// positions where a distance ranking could part from an RSRP ranking:
// cell centres, midpoints (computed three ways, and one float either
// side), both corridor ends and beyond them, and random points; before,
// inside and after the failure window.
func TestNearestLiveCellMatchesRSRPScan(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for n := 0; n < 300; n++ {
		spec := randScanSpec(rng)
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

// runScanWorld runs spec to its horizon, on the reference handlers when
// ref is set, and returns every region's outcomes in firing order.
func runScanWorld(t *testing.T, spec ScenarioSpec, scheme Scheme, seed int64, ref bool) ([][]scanRec, *CompiledScenario) {
	t.Helper()
	w, err := CompileScenario(spec, scheme, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	logs := make([][]scanRec, len(w.regions))
	for i, reg := range w.regions {
		i, reg := i, reg
		reg.sch.OnIndexed = func(arg uint64) {
			if ref {
				refHandle(reg, arg)
			} else {
				reg.handle(arg)
			}
			l := int(arg &^ (uint64(3) << 62))
			logs[i] = append(logs[i], scanRec{reg.sch.Now(), reg.base + l, reg.serving[l], reg.hoCount[l], reg.dropped, reg.reattached})
		}
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	return logs, w
}

// TestMeasureMatchesRSRPScan runs whole worlds twice — measure as it is,
// and as it stood over the RSRP scan — and requires the same outcome of
// every single event: serving cell, handover ordinal, drop and
// re-attach counts. UE offsets are drawn in thousandths of a spacing,
// so every world has UEs standing exactly on midpoints and on cell
// centres, and (stationary kinds) outside both corridor ends.
func TestMeasureMatchesRSRPScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for n := 0; n < 40; n++ {
		spec := randScanSpec(rng)
		scheme := Scheme(n % 2)
		seed := rng.Int63()
		got, gw := runScanWorld(t, spec, scheme, seed, false)
		want, ww := runScanWorld(t, spec, scheme, seed, true)
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
		wp50, wp99 := ww.InterruptionQuantiles()
		if gw.Handovers() != ww.Handovers() || gp50 != wp50 || gp99 != wp99 {
			t.Fatalf("%+v %v: handovers %d (p50 %v p99 %v), reference %d (p50 %v p99 %v)",
				spec, scheme, gw.Handovers(), gp50, gp99, ww.Handovers(), wp50, wp99)
		}
	}
}
