package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts, in the words the choosing-metrics guide uses.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	unresolved = "unresolved"
	worse      = "worse"
)

// readRecords loads the gating (untraced) runs of a result file.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]record)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// samples are the values a verdict is drawn from: one per run when a
// side has several runs, else the single run's per-segment values.
func samples(runs []record, metric string) []float64 {
	if len(runs) == 1 {
		return runs[0].Segments[metric]
	}
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.Metrics[metric].Value)
	}
	return out
}

// better reports whether a reads better than b for the metric.
func (m metricDef) betterThan(a, b float64) bool {
	if m.lowerIsBetter() {
		return a < b
	}
	return a > b
}

// allBetter reports whether every sample of xs reads better than every
// sample of ys.
func (m metricDef) allBetter(xs, ys []float64) bool {
	for _, x := range xs {
		for _, y := range ys {
			if !m.betterThan(x, y) {
				return false
			}
		}
	}
	return len(xs) > 0 && len(ys) > 0
}

// verdict judges one (metric, workload) pair.
//
//   - improved: the change wins at least nine tenths of the runs paired
//     by position (ties count for neither side) and the medians differ
//     by more than the parent's own interquartile distance;
//   - unresolved: either side's spread is wider than the bound and the
//     two sides' runs interleave, so the benchmark cannot tell;
//   - worse: the change's median is worse than the parent's by more
//     than the bound;
//   - unchanged: otherwise.
func (m metricDef) verdict(parent, change []float64) string {
	mp, mc := median(parent), median(change)
	if pairs := min(len(parent), len(change)); pairs >= 2 {
		wins := 0
		for i := 0; i < pairs; i++ {
			if m.betterThan(change[i], parent[i]) {
				wins++
			}
		}
		q1, _, q3 := quartiles(parent)
		if m.betterThan(mc, mp) && float64(wins) >= 0.9*float64(pairs) && math.Abs(mc-mp) > q3-q1 {
			return improved
		}
	}
	wide := math.Max(spread(parent), spread(change)) > m.bound
	interleave := !m.allBetter(parent, change) && !m.allBetter(change, parent)
	if wide && interleave {
		return unresolved
	}
	if m.worsening(mp, mc) > m.bound {
		return worse
	}
	return unchanged
}

// worsening is how much worse the change's median reads, as a share of
// the parent's (negative when it reads better).
func (m metricDef) worsening(parent, change float64) float64 {
	if parent == 0 {
		return 0
	}
	if m.lowerIsBetter() {
		return (change - parent) / parent
	}
	return (parent - change) / parent
}

// digestVerdict compares the simulated-output digests of the seeds
// both sides ran.
func digestVerdict(parent, change []record) string {
	bySeed := make(map[int64]string)
	for _, r := range parent {
		bySeed[r.Seed] = r.SimDigest
	}
	common, differ := 0, 0
	for _, r := range change {
		if d, ok := bySeed[r.Seed]; ok {
			common++
			if d != r.SimDigest {
				differ++
			}
		}
	}
	switch {
	case common == 0:
		return "no seed in common"
	case differ == 0:
		return fmt.Sprintf("equal on %d common seed(s): simulated statistics identical", common)
	default:
		return fmt.Sprintf("DIFFER on %d of %d common seed(s): simulated statistics changed", differ, common)
	}
}

func failures(runs []record) (failed, attempted int) {
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return
}

// compareFiles prints, for every workload both files hold and every
// end-to-end metric, both medians, both spreads, the bound and the
// verdict. Every ratio is change / parent.
func compareFiles(w io.Writer, parentPath, changePath string) error {
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "parent %s, change %s; ratios are change / parent; spread = interquartile distance / median\n", parentPath, changePath)
	seen := 0
	for _, wl := range workloads {
		p, c := parent[wl.name], change[wl.name]
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		seen++
		fmt.Fprintf(w, "\n%s  (%d parent run(s), %d change run(s); GOMAXPROCS %d / %d)\n",
			wl.name, len(p), len(c), p[0].Machine.GOMAXPROCS, c[0].Machine.GOMAXPROCS)
		if p[0].Ops != c[0].Ops {
			fmt.Fprintf(w, "  WARNING: %d vs %d timed ops per segment: the two sides did not do identical work\n", p[0].Ops, c[0].Ops)
		}
		fmt.Fprintf(w, "  %-22s %-8s %14s %8s %14s %8s %8s %7s  %s\n",
			"metric", "unit", "parent", "spread", "change", "spread", "ratio", "bound", "verdict")
		for _, m := range endToEnd {
			ps, cs := samples(p, m.name), samples(c, m.name)
			mp, mc := median(ps), median(cs)
			fmt.Fprintf(w, "  %-22s %-8s %14.6g %7.1f%% %14.6g %7.1f%% %8.4f %6.0f%%  %s\n",
				m.name, m.unit, mp, 100*spread(ps), mc, 100*spread(cs), mc/mp, 100*m.bound, m.verdict(ps, cs))
		}
		pf, pa := failures(p)
		cf, ca := failures(c)
		fv := unchanged
		if float64(cf)*float64(pa) > float64(pf)*float64(ca) {
			fv = worse // no failure is tolerated: the bound is zero, absolute
		}
		fmt.Fprintf(w, "  %-22s %-8s %14s %8s %14s %8s %8s %7s  %s\n", "failed_units_ratio", "ratio",
			fmt.Sprintf("%d/%d", pf, pa), "", fmt.Sprintf("%d/%d", cf, ca), "", "", "0", fv)
		fmt.Fprintf(w, "  sim_digest %s\n", digestVerdict(p, c))
	}
	if seen == 0 {
		return fmt.Errorf("the two files share no workload")
	}
	return nil
}
