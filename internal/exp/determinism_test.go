package exp

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// TestExperimentsDeterministic is the regression gate for the virtual
// clock's core promise: two runs with the same seed produce
// byte-identical result tables. E2 exercises the full attach + data
// path; E4 adds roaming, retransmission, and 0-RTT resume — the flows
// that historically exposed scheduling races (ack-vs-delivery wire
// order, map-ordered retransmits, cross-world goroutine leaks).
func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func() []byte {
		var buf bytes.Buffer
		opt := Options{Quick: true, Seed: 42, Out: &buf}
		if _, err := RunE2(opt); err != nil {
			t.Fatalf("E2: %v", err)
		}
		if _, err := RunE4(opt); err != nil {
			t.Fatalf("E4: %v", err)
		}
		return buf.Bytes()
	}
	requireSameBytes(t, "run 1", "run 2", run(), run())
}

// requireSameBytes fails the test at the first byte where two renders
// part, with 120 bytes of context either side.
func requireSameBytes(t *testing.T, labelA, labelB string, a, b []byte) {
	t.Helper()
	if bytes.Equal(a, b) {
		return
	}
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := max(i-120, 0)
	t.Fatalf("%s and %s diverge at byte %d:\n--- %s ---\n%s\n--- %s ---\n%s",
		labelA, labelB, i, labelA, a[lo:min(i+120, len(a))], labelB, b[lo:min(i+120, len(b))])
}

// TestSerialParallelIdentical is the regression gate for the one
// real-CPU knob: the same seed must render byte-identical tables
// whether the sweeps run serially or with every world concurrent
// (Parallelism). E3 covers the
// contended-signaling-processor worlds (the shared centralized EPC,
// historically the first place scheduler interleaving leaked into
// results); E4 covers roaming and retransmission timing; E10 covers
// the discovery plane, where concurrent joins, key churn, pollers,
// and a push subscription all race on one registry — its wire-byte
// accounting depends on every delta landing in its own frame. E12
// covers the pure-compute fan-out: thousands of coexistence domains on
// the event-driven PHY engine, reduced in index order.
func TestSerialParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(parallelism int) []byte {
		var buf bytes.Buffer
		opt := Options{Quick: true, Seed: 42, Out: &buf, Parallelism: parallelism}
		if _, err := RunE3(opt); err != nil {
			t.Fatalf("E3 (p=%d): %v", parallelism, err)
		}
		if _, err := RunE4(opt); err != nil {
			t.Fatalf("E4 (p=%d): %v", parallelism, err)
		}
		if _, err := RunE10(opt); err != nil {
			t.Fatalf("E10 (p=%d): %v", parallelism, err)
		}
		if _, err := RunE12(opt); err != nil {
			t.Fatalf("E12 (p=%d): %v", parallelism, err)
		}
		return buf.Bytes()
	}
	requireSameBytes(t, "serial (p=1)", "parallel (p=8)", run(1), run(8))
}

// scenTestWindow is the windowed leg's step: every region stops at each
// multiple of it before any region goes past.
const scenTestWindow = 250 * time.Millisecond

// TestCompileScenarioWorkerInvariant checks the compact world's
// worker-invariance directly, independent of Options: one region
// worker or eight, every scenario kind under both schemes ends with the
// same handover, event, outage and interruption figures and the same
// merged promotion log. A third, windowed leg is the drain-order
// oracle: it drives every region's wheel from the test in
// scenTestWindow steps, so no region ever runs ahead of another, and
// must agree with Run's region-major drain.
func TestCompileScenarioWorkerInvariant(t *testing.T) {
	type outcome struct {
		handovers, events, dropped, reattached uint64
		p50, p99                               float64
		promos                                 string
	}
	run := func(spec ScenarioSpec, scheme Scheme, workers int, windowed bool) outcome {
		w, err := CompileScenario(spec, scheme, 42, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !windowed {
			err = w.Run()
		} else if err = w.start(); err == nil {
			for end := time.Duration(0); end < spec.Horizon; {
				end = min(end+scenTestWindow, spec.Horizon)
				for _, reg := range w.regions {
					reg.sch.RunUntil(end)
				}
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		o := outcome{handovers: w.Handovers(), events: w.Events()}
		o.dropped, o.reattached, _ = w.Outage()
		o.p50, o.p99 = w.InterruptionQuantiles()
		o.promos = fmt.Sprint(w.Promotions())
		return o
	}
	for _, spec := range e11Specs(Options{Quick: true}) {
		for _, scheme := range []Scheme{SchemeDLTE, SchemeTelecom} {
			one, eight := run(spec, scheme, 1, false), run(spec, scheme, 8, false)
			if one != eight {
				t.Errorf("%s %v: workers=1 %+v, workers=8 %+v", spec.Name, scheme, one, eight)
			}
			if windowed := run(spec, scheme, 1, true); windowed != one {
				t.Errorf("%s %v: windowed %+v, region-major %+v", spec.Name, scheme, windowed, one)
			}
			if one.events == 0 {
				t.Errorf("%s %v: empty world %+v", spec.Name, scheme, one)
			}
			if spec.Promotions > 0 && one.promos == "[]" {
				t.Errorf("%s %v: no promotions logged", spec.Name, scheme)
			}
		}
	}
}
