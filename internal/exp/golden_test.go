package exp

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dlte/internal/leaktest"
)

var update = flag.Bool("update", false, "rewrite the golden reports from this run")

// TestQuickSuiteGolden pins every quick table to its committed bytes:
// a change that moves any row shows up in the golden file's diff, where
// a reviewer can check each moved row against the change's stated
// effect. The golden is the stdout of `dlte-sim -exp all -quick -seed 1
// -p 1`, and the -p 8 rendering must match it byte for byte.
// Regenerate with `go test ./internal/exp -run Golden -update` (the -p
// 1 leg writes; the -p 8 leg still compares).
func TestQuickSuiteGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	path := filepath.Join("testdata", "all.quick.seed1.golden")
	for _, p := range []int{1, 8} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			checkGolden(t, path, Options{Quick: true, Seed: 1, Parallelism: p}, "", p == 1)
		})
	}
}

// TestFullSuiteGolden is the full-size twin: the stdout of `dlte-sim
// -exp all -seed 42`, about 7 s of wall time on a 2-CPU box. It pins
// the rows the quick sizes never reach (E7's 16-AP mesh, E10 at 500
// APs, E11's 4-AP corridor, E12's full sweeps). Too slow under the race
// detector, so it runs only in a plain `go test`.
func TestFullSuiteGolden(t *testing.T) {
	if testing.Short() || leaktest.RaceEnabled {
		t.Skip("full-size suite: not in -short or -race runs")
	}
	checkGolden(t, filepath.Join("testdata", "all.seed42.golden"), Options{Seed: 42}, "", true)
}

// TestE13Golden100k pins `dlte-sim -exp E13 -ues 100000`: one 100k-UE
// compact world (~130 ms on a 2-CPU box) whose region wheels fan out
// over the -p workers. determinism-smoke compares its -p 1 and -p 8
// runs with each other; this pins the bytes themselves.
func TestE13Golden100k(t *testing.T) {
	if testing.Short() || leaktest.RaceEnabled {
		t.Skip("100k-UE world: not in -short or -race runs")
	}
	checkGolden(t, filepath.Join("testdata", "e13.ues100000.seed42.golden"),
		Options{Seed: 42, UEs: 100000}, "E13", true)
}

// TestCityCorridorCounts pins the 200k-UE corridor world bench's
// city_corridor workload runs (a copy of its citySpec, seed 42): the
// events it simulates, its handovers and both interruption quantiles.
// ~0.4 s on a 2-CPU box; like the full-size goldens, not in -short or
// -race runs.
func TestCityCorridorCounts(t *testing.T) {
	if testing.Short() || leaktest.RaceEnabled {
		t.Skip("200k-UE world: not in -short or -race runs")
	}
	spec := ScenarioSpec{
		Name: "bench-corridor", Kind: KindCorridor,
		UEs: 200_000, APs: 32, SpacingM: 1000, SpeedMps: 25,
		Horizon: 120 * time.Second,
	}
	w, err := runCompactScenario(spec, SchemeDLTE, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	p50, p99 := w.InterruptionQuantiles()
	if w.Events() != 9_621_217 || w.Handovers() != 600_220 || p50 != 28.985 || p99 != 39.777 {
		t.Fatalf("city corridor: %d events, %d handovers, p50 %v ms, p99 %v ms; want 9621217, 600220, 28.985, 39.777",
			w.Events(), w.Handovers(), p50, p99)
	}
}

// checkGolden renders the suite (or only the experiment with ID only)
// under opts, headers and tables as dlte-sim prints them, and compares
// it with the golden file at path — or, under -update when write is
// set, rewrites the file.
func checkGolden(t *testing.T, path string, opts Options, only string, write bool) {
	t.Helper()
	var report bytes.Buffer
	for _, e := range Suite {
		if only != "" && e.ID != only {
			continue
		}
		var tables bytes.Buffer
		opts.Out = &tables
		if err := e.Run(opts); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		e.WriteHeader(&report)
		report.Write(tables.Bytes())
		fmt.Fprintln(&report)
	}
	if *update && write {
		if err := os.WriteFile(path, report.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBytes(t, path, "this run", want, report.Bytes())
}
