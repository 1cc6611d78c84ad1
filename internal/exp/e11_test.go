package exp

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestE11DerivedTelecomMatchesSimulated keeps the telecom world E11 no
// longer runs outside a failure wave as the oracle for the row it
// derives instead: for every quick E11 scenario and for random corridor
// and flash-crowd specs, the real SchemeTelecom world must report the
// derived handover count, bit-equal p50/p99, and survival.
func TestE11DerivedTelecomMatchesSimulated(t *testing.T) {
	opt := Options{Quick: true, Seed: 42, Parallelism: 1}
	type job struct {
		spec ScenarioSpec
		seed int64
	}
	var jobs []job
	for i, spec := range e11Specs(opt) {
		jobs = append(jobs, job{spec, opt.Seed + int64(i)*1000})
	}
	// Two worlds nobody hands over in: a crowd that never converges
	// within the horizon, and cars that never reach a cell edge.
	jobs = append(jobs,
		job{ScenarioSpec{Name: "still-crowd", Kind: KindFlashCrowd, UEs: 500, APs: 6,
			SpacingM: 1000, HotCells: 2, Promotions: 1,
			ConvergeAt: 40 * time.Second, DisperseAt: 50 * time.Second, Horizon: 20 * time.Second}, 7},
		job{ScenarioSpec{Name: "parked-cars", Kind: KindCorridor, UEs: 500, APs: 6,
			SpacingM: 1000, SpeedMps: 0.01, Horizon: 5 * time.Second}, 8})
	rng := rand.New(rand.NewSource(43))
	for n := 0; n < 20; {
		spec := randScanSpec(rng)
		if spec.Kind == KindFailureWave {
			continue
		}
		jobs = append(jobs, job{spec, rng.Int63()})
		n++
	}

	sawHandovers, sawNone := false, false
	for _, j := range jobs {
		row, _, err := runE11Compact(j.spec, opt, j.seed)
		if err != nil {
			t.Fatalf("%+v: %v", j.spec, err)
		}
		w, err := runCompactScenario(j.spec, SchemeTelecom, j.seed, opt.workers())
		if err != nil {
			t.Fatalf("%+v: telecom world: %v", j.spec, err)
		}
		p50, p99 := w.InterruptionQuantiles()
		_, _, surv := w.Outage()
		if row.hoTelecom != w.Handovers() ||
			math.Float64bits(row.p50Tel) != math.Float64bits(p50) ||
			math.Float64bits(row.p99Tel) != math.Float64bits(p99) ||
			math.Float64bits(row.survTel) != math.Float64bits(surv) {
			t.Errorf("%s (kind %d, seed %d): derived ho=%d p50=%v p99=%v surv=%v, simulated ho=%d p50=%v p99=%v surv=%v",
				j.spec.Name, j.spec.Kind, j.seed, row.hoTelecom, row.p50Tel, row.p99Tel, row.survTel,
				w.Handovers(), p50, p99, surv)
		}
		if j.spec.Kind == KindFailureWave {
			continue // simulated, not derived
		}
		if w.Handovers() > 0 {
			sawHandovers = true
		} else {
			sawNone = true
		}
	}
	if !sawHandovers || !sawNone {
		t.Errorf("derived rows must cover worlds with and without handovers (with: %v, without: %v)", sawHandovers, sawNone)
	}
}
