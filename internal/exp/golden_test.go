package exp

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden report from this run")

// goldenReport is the stdout of `dlte-sim -exp all -quick -seed 1 -p 1`.
var goldenReport = filepath.Join("testdata", "all.quick.seed1.golden")

// TestQuickSuiteGolden pins every quick table to its committed bytes:
// a change that moves any row shows up in the golden file's diff, where
// a reviewer can check each moved row against the change's stated
// effect. Regenerate with `go test ./internal/exp -run Golden -update`.
func TestQuickSuiteGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var report bytes.Buffer
	for _, e := range Suite {
		var tables bytes.Buffer
		if err := e.Run(Options{Quick: true, Seed: 1, Out: &tables, Parallelism: 1}); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		e.WriteHeader(&report)
		report.Write(tables.Bytes())
		fmt.Fprintln(&report)
	}
	if *update {
		if err := os.WriteFile(goldenReport, report.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenReport)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBytes(t, goldenReport, "this run", want, report.Bytes())
}
