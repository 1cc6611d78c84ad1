// Command dlte-sim regenerates any of the repository's experiments
// (DESIGN.md §3, EXPERIMENTS.md): it builds the simulated world, runs
// the real protocol stacks and radio models, and prints the result
// tables.
//
// Usage:
//
//	dlte-sim -exp E2            # one experiment
//	dlte-sim -exp all -quick    # everything, reduced sweeps
//	dlte-sim -p 8               # run worlds on 8 workers (default: NumCPU)
//	dlte-sim -exp E13 -ues 1000000  # one million-UE compact world
//
// Experiments (and the independent simulation worlds inside each
// sweep) execute concurrently up to -p workers, but stdout is always
// emitted in experiment order and is byte-identical for a given seed
// at any -p, including -p 1 (see DESIGN.md §5b). -p is the only
// real-CPU knob: it also sets how many OS threads drain the compact
// worlds' region wheels (E11, E13).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dlte/internal/exp"
)

// job is one experiment scheduled on the run's worker budget. Each
// renders into its own buffer; the main goroutine prints buffers in
// experiment order as they complete, so concurrent execution never
// reorders or interleaves stdout.
type job struct {
	e    exp.Experiment
	buf  bytes.Buffer
	err  error
	took time.Duration
	done chan struct{}
}

// workerCount resolves -p the way exp.Options.Parallelism reads it:
// 0 is one worker per CPU, a negative count is a usage error.
func workerCount(p int) (int, error) {
	if p < 0 {
		return 0, fmt.Errorf("-p %d: worker count must be ≥ 0 (0 = one per CPU)", p)
	}
	if p == 0 {
		return runtime.NumCPU(), nil
	}
	return p, nil
}

func main() {
	expFlag := flag.String("exp", "all", "experiment to run: E1..E13, E2b, or 'all'")
	quick := flag.Bool("quick", false, "reduced sweeps (CI-sized)")
	seed := flag.Int64("seed", 42, "simulation seed")
	par := flag.Int("p", runtime.NumCPU(), "max concurrent simulation worlds and compact-world region workers (0 = one per CPU, 1 = fully serial; output-invariant)")
	ues := flag.Int("ues", 0, "E13 only: run a single world of exactly this many UEs instead of the default sweep (output depends on -ues but never on -p)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file (pprof format)")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file at exit (pprof format)")
	flag.Parse()

	// Profiles go to stderr-side files only; stdout (the tables) stays
	// byte-comparable across runs with and without profiling.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "-cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
			}
		}()
	}

	// -ues is a world-shape knob, so an explicit nonsense value must be
	// an error, not a silent fallback to the default sweep.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "ues" && *ues <= 0 {
			fmt.Fprintf(os.Stderr, "-ues %d: population must be > 0\n", *ues)
			os.Exit(2)
		}
	})
	workers, err := workerCount(*par)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	want := strings.ToUpper(*expFlag)
	var jobs []*job
	for _, e := range exp.Suite {
		if want != "ALL" && want != strings.ToUpper(e.ID) {
			continue
		}
		jobs = append(jobs, &job{e: e, done: make(chan struct{})})
	}
	if len(jobs) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want E1..E13, E2b, or all)\n", *expFlag)
		os.Exit(2)
	}

	// One shared worker budget: the experiments themselves occupy
	// workers, and each experiment's inner sweeps fan out on the same
	// -p. Workers pull jobs in experiment order.
	queue := make(chan *job, len(jobs))
	for _, j := range jobs {
		queue <- j
	}
	close(queue)
	for w := 0; w < min(workers, len(jobs)); w++ {
		go func() {
			for j := range queue {
				opt := exp.Options{Quick: *quick, Seed: *seed, Out: &j.buf, Parallelism: workers, UEs: *ues}
				start := time.Now()
				j.err = j.e.Run(opt)
				j.took = time.Since(start)
				close(j.done)
			}
		}()
	}

	for _, j := range jobs {
		<-j.done
		j.e.WriteHeader(os.Stdout)
		os.Stdout.Write(j.buf.Bytes())
		if j.err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", j.e.ID, j.err)
			os.Exit(1)
		}
		// Wall time goes to stderr: stdout (the tables) is deterministic
		// for a given seed, and stays byte-comparable across runs.
		fmt.Fprintf(os.Stderr, "(%s completed in %v)\n", j.e.ID, j.took.Round(time.Millisecond))
		fmt.Println()
	}
}
