package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// world is one built instance of a workload: the thing set-up pays for
// and timed ops run against.
type world interface {
	// op runs one timed sample (a storm round, a wave, a batch, a suite
	// pass, a compact world). It reports how many units it attempted
	// and how many of those failed: a unit fails when its call returns
	// an error or its output check does not hold. tr, when non-nil,
	// receives spans for the calls op makes into the layers.
	op(i int, tr *tracer) (units, failed int)
	// digest is the FNV-64a fold of the world's simulated outputs. It is
	// stable unless the world itself saw the same seed simulate two
	// different things (a suite pass or a compact world that disagrees
	// with the first one).
	digest() (sum uint64, stable bool)
	// counters reports the world's execution counters (see counts).
	counters() counts
	close()
}

// counts are the per-world execution counters the ledger multiplies
// by unit costs. Worlds built inside internal/exp report zeros: their
// networks are not reachable from outside.
type counts struct {
	dispatches, legacy, parks  uint64
	sigMsgs, attaches, rejects uint64
	upDrops, nasBytes, x2Bytes uint64
	handovers                  uint64
}

func (a counts) sub(b counts) counts {
	return counts{
		dispatches: a.dispatches - b.dispatches, legacy: a.legacy - b.legacy, parks: a.parks - b.parks,
		sigMsgs: a.sigMsgs - b.sigMsgs, attaches: a.attaches - b.attaches, rejects: a.rejects - b.rejects,
		upDrops: a.upDrops - b.upDrops, nasBytes: a.nasBytes - b.nasBytes, x2Bytes: a.x2Bytes - b.x2Bytes,
		handovers: a.handovers - b.handovers,
	}
}

// usage is a snapshot of the process's cumulative costs.
type usage struct {
	at      time.Time
	cpu     time.Duration // user + system, whole process
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
}

// peakRSSMB is the process's high-water resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	kb := float64(ru.Maxrss)
	if runtime.GOOS == "darwin" { // reports bytes, not KiB
		kb /= 1024
	}
	return kb / 1024
}

// segment is what one fresh world measured.
type segment struct {
	setupS  float64   // world build + warm-up op
	opMs    []float64 // wall time of each timed op
	wallS   float64   // timed region
	cpuUs   float64   // process CPU over the timed region
	mallocs uint64
	bytes   uint64
	units   int // attempted in the timed region
	digest  uint64
	stable  bool
	counts  counts // execution counters over the timed region
}

// runResult is one workload run: its segments plus the totals the
// result line reports.
type runResult struct {
	segs      []segment
	attempted int // every unit attempted, warm-up ops included
	failed    int
}

// runSegments builds wl's world `segments` times from the same seed,
// and on each runs one untimed warm-up op followed by ops timed ops.
// The op count is fixed by the caller, never by a clock, so two
// commits measured with the same arguments do identical work.
func runSegments(wl *workload, seed int64, ops int, tr *tracer) (runResult, error) {
	var res runResult
	for s := 0; s < wl.segments; s++ {
		t0 := time.Now()
		w, err := wl.build(seed, tr)
		if err != nil {
			return res, fmt.Errorf("%s: build: %w", wl.name, err)
		}
		u, f := w.op(-1, nil) // warm-up: fills pools, allocates sessions and tunnels
		res.attempted += u
		res.failed += f
		seg := segment{setupS: time.Since(t0).Seconds(), opMs: make([]float64, 0, ops)}

		c0 := w.counters()
		before := readUsage()
		last := before.at
		for i := 0; i < ops; i++ {
			u, f := w.op(i, tr)
			now := time.Now()
			seg.opMs = append(seg.opMs, float64(now.Sub(last))/float64(time.Millisecond))
			last = now
			seg.units += u
			res.failed += f
		}
		after := readUsage()
		res.attempted += seg.units
		seg.wallS = after.at.Sub(before.at).Seconds()
		seg.cpuUs = float64(after.cpu-before.cpu) / float64(time.Microsecond)
		seg.mallocs = after.mallocs - before.mallocs
		seg.bytes = after.bytes - before.bytes
		seg.counts = w.counters().sub(c0)
		seg.digest, seg.stable = w.digest()
		w.close()
		runtime.GC() // the next segment starts from a collected heap
		res.segs = append(res.segs, seg)
	}
	return res, nil
}

// perSegment maps each segment to one value of the named end-to-end
// metric. peak_rss_mb is a property of the process, not of a segment.
func (r runResult) perSegment(metric string) []float64 {
	out := make([]float64, 0, len(r.segs))
	for _, s := range r.segs {
		u := float64(s.units)
		var v float64
		switch metric {
		case "setup_s":
			v = s.setupS
		case "units_per_s":
			v = u / s.wallS
		case "op_p50_ms":
			v = percentile(s.opMs, 0.50)
		case "op_p95_ms":
			v = tailMs(s.opMs)
		case "cpu_us_per_unit":
			v = s.cpuUs / u
		case "allocs_per_unit":
			v = float64(s.mallocs) / u
		case "alloc_bytes_per_unit":
			v = float64(s.bytes) / u
		default:
			panic("bench: no per-segment metric " + metric)
		}
		out = append(out, v)
	}
	return out
}

// tailSamples is the fewest timed ops a segment needs before its 95th
// percentile has ten samples beyond it.
const tailSamples = 200

// tailMs is the op time a segment reports as its tail: the 95th
// percentile where the segment has enough ops to support one, else
// the median — a suite pass or a compact world is one of a handful of
// multi-second ops, and the slowest of six measures the host's noise,
// not the simulator.
func tailMs(opMs []float64) float64 {
	if len(opMs) < tailSamples {
		return percentile(opMs, 0.50)
	}
	return percentile(opMs, 0.95)
}

// digestsAgree reports whether every segment folded the same simulated
// outputs, and none of them disagreed with itself.
func (r runResult) digestsAgree() bool {
	for _, s := range r.segs {
		if s.digest != r.segs[0].digest || !s.stable {
			return false
		}
	}
	return true
}
