// Command bench is the repository's benchmark: five closed-loop
// workloads over the dLTE simulator, eight end-to-end metrics per
// workload, and (with -trace 1) a per-layer cost ledger. See README.md
// in this directory; BENCHMARK.json at the repository root is the
// machine-readable contract.
//
//	go run ./bench -workload attach_storm            # one gating run
//	go run ./bench -workload all -out runs.jsonl     # all five, results kept
//	go run ./bench -workload attach_storm -trace 1   # the per-layer ledger
//	go run ./bench -compare parent.jsonl change.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 15

func main() {
	name := flag.String("workload", "all", "workload to run: one of the five names, or all (each in its own child process)")
	seed := flag.Int64("seed", 42, "the only workload input: every world is generated from it")
	seconds := flag.Int("seconds", defaultSeconds, "run size: fixed op counts scaled so the timed region takes about this long on the reference box")
	trace := flag.Int("trace", 0, "0: gating run, end-to-end metrics; 1: traced run, per-layer metrics and the ledger")
	out := flag.String("out", "", "append the run's result line to this file (and, traced, write spans to <file>.spans.jsonl); nothing is written by default")
	compare := flag.String("compare", "", "compare two result files: -compare parent.jsonl change.jsonl")
	flag.Parse()

	if *compare != "" {
		if flag.NArg() != 1 {
			fatalf("usage: -compare parent.jsonl change.jsonl")
		}
		if err := compareFiles(os.Stdout, *compare, flag.Arg(0)); err != nil {
			fatalf("compare: %v", err)
		}
		return
	}
	if *seconds < 1 || *seconds > 60 {
		fatalf("-seconds %d: want 1..60", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace %d: want 0 or 1", *trace)
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *trace, *out))
	}
	wl := workloadByName(*name)
	if wl == nil {
		fatalf("unknown workload %q (want %s or all)", *name, strings.Join(workloadNames(), ", "))
	}

	var rec record
	var err error
	if *trace == 1 {
		rec, err = runTraced(os.Stdout, wl, *seed, *seconds, *out)
	} else {
		rec, err = runGating(os.Stdout, wl, *seed, wl.opsPerSegment(float64(*seconds)))
	}
	if err != nil {
		fatalf("%v", err)
	}
	rec.Seconds = *seconds
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fatalf("-out: %v", err)
		}
	}
	// The last line of stdout is the result object the driver reads.
	fmt.Printf("%s\n", rec.resultLine())
	if !rec.Correct {
		os.Exit(1)
	}
}

// resultLine is the one-line JSON object that ends a run's output.
func (rec record) resultLine() []byte {
	line, _ := json.Marshal(struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]measured `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	return line
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return names
}

// runAll runs every workload in its own child process, so peak RSS and
// garbage-collector state are per workload. It returns the exit code.
func runAll(seed int64, seconds, trace int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	code := 0
	for _, wl := range workloads {
		args := []string{
			"-workload", wl.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace),
		}
		if out != "" {
			args = append(args, "-out", out)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
			code = 1
		}
	}
	return code
}

// record is one run as kept in an -out file: the result line plus
// what -compare needs to judge it.
type record struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Seconds   int                 `json:"seconds"`
	Ops       int                 `json:"ops_per_segment,omitempty"` // timed ops per segment of a gating run
	Trace     int                 `json:"trace"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	SimDigest string              `json:"sim_digest"`
	Metrics   map[string]measured `json:"metrics"`
	// Segments holds the per-segment values behind each median, so a
	// single run still carries a spread.
	Segments map[string][]float64 `json:"segments,omitempty"`
	Machine  machine              `json:"machine"`
}

// machine fingerprints where a run was measured.
type machine struct {
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func fingerprint(procs int) machine {
	m := machine{NProc: runtime.NumCPU(), Go: runtime.Version(), GOMAXPROCS: procs}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runGating is an untraced run of ops timed ops per segment: the eight
// end-to-end metrics, each the median over the run's segments.
func runGating(w io.Writer, wl *workload, seed int64, ops int) (record, error) {
	procs := wl.procs()
	runtime.GOMAXPROCS(procs)
	res, err := runSegments(wl, seed, ops, nil)
	if err != nil {
		return record{}, err
	}
	rec := record{
		Workload: wl.name, Seed: seed, Ops: ops,
		Attempted: res.attempted, Failed: res.failed,
		SimDigest: fmt.Sprintf("%016x", res.segs[0].digest),
		Metrics:   make(map[string]measured),
		Segments:  make(map[string][]float64),
		Machine:   fingerprint(procs),
	}
	rec.Correct = res.failed == 0 && res.digestsAgree()

	fmt.Fprintf(w, "workload %s  seed %d  GOMAXPROCS %d  %d segment(s) x %d timed op(s) (%s), unit = %s\n",
		wl.name, seed, procs, wl.segments, ops, wl.opName, wl.unit)
	fmt.Fprintf(w, "%-22s %14s %-8s %s\n", "metric", "median", "unit", "segment min .. max")
	for _, m := range endToEnd {
		vals := []float64{peakRSSMB()}
		if m.name != "peak_rss_mb" {
			vals = res.perSegment(m.name)
		}
		lo, hi := minMax(vals)
		rec.Metrics[m.name] = measured{median(vals), m.unit}
		rec.Segments[m.name] = vals
		fmt.Fprintf(w, "%-22s %14.6g %-8s %.6g .. %.6g\n", m.name, median(vals), m.unit, lo, hi)
	}
	fmt.Fprintf(w, "%-22s %14s %-8s %d failed / %d attempted\n", "failed_units_ratio",
		fmt.Sprintf("%.6g", float64(res.failed)/float64(res.attempted)), "ratio", res.failed, res.attempted)
	agree := "equal across segments"
	if !res.digestsAgree() {
		agree = "DIFFER across segments"
		for _, s := range res.segs {
			agree += fmt.Sprintf(" %016x", s.digest)
		}
	}
	fmt.Fprintf(w, "%-22s %s  %s\n", "sim_digest", rec.SimDigest, agree)
	return rec, nil
}
