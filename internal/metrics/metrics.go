// Package metrics provides the measurement primitives used by the dLTE
// experiment harness: streaming histograms with percentile queries,
// counters, gauges, Jain's fairness index, time series, and fixed-width
// table rendering so every experiment prints a reproducible report.
//
// All types are safe for concurrent use unless noted otherwise.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"
)

// Histogram collects float64 observations and answers percentile and
// moment queries. It stores raw samples (experiments here are at most a
// few hundred thousand observations), which keeps percentiles exact.
type Histogram struct {
	mu      sync.Mutex
	samples []float64
	sorted  bool
	sum     float64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.samples = append(h.samples, v)
	h.sum += v
	h.sorted = false
}

// ObserveDuration records a duration sample in milliseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// Count reports the number of recorded samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Sum reports the sum of all samples.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean reports the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / float64(len(h.samples))
}

// StdDev reports the population standard deviation, or 0 with fewer than
// two samples.
func (h *Histogram) StdDev() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	if n < 2 {
		return 0
	}
	mean := h.sum / float64(n)
	var ss float64
	for _, v := range h.samples {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Min reports the smallest sample. With no samples it returns the
// zero sentinel 0 (indistinguishable from a true 0 sample; check
// Count first when that matters).
func (h *Histogram) Min() float64 { return h.Quantile(0) }

// Max reports the largest sample. With no samples it returns the zero
// sentinel 0 (indistinguishable from a true 0 sample; check Count
// first when that matters).
func (h *Histogram) Max() float64 { return h.Quantile(1) }

// Quantile reports the q-quantile (0 ≤ q ≤ 1) using linear
// interpolation between the two nearest order statistics (the same
// estimator as numpy's default). With no samples it returns the zero
// sentinel 0 (check Count first when a true 0 sample is possible).
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	lo, hi, frac := quantileRank(q, n)
	if lo == hi {
		return h.samples[lo]
	}
	return h.samples[lo]*(1-frac) + h.samples[hi]*frac
}

// quantileRank locates the q-quantile among n ≥ 1 sorted samples: it
// lies frac of the way from order statistic lo to hi, where hi is lo or
// lo+1.
func quantileRank(q float64, n int) (lo, hi int, frac float64) {
	if q <= 0 {
		return 0, 0, 0
	}
	if q >= 1 {
		return n - 1, n - 1, 0
	}
	pos := q * float64(n-1)
	lo, hi = int(math.Floor(pos)), int(math.Ceil(pos))
	return lo, hi, pos - float64(lo)
}

// SelectQuantile returns the q-quantile of xs exactly as a Histogram
// holding to(x) for every x would report it, for any non-decreasing to.
// It finds the one or two order statistics it needs by selection, in
// O(n) expected time, where Quantile sorts every sample; it reorders xs
// in place. With no samples it returns 0, as Quantile does.
func SelectQuantile(xs []int64, q float64, to func(int64) float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi, frac := quantileRank(q, len(xs))
	vlo := to(selectNth(xs, lo))
	if lo == hi {
		return vlo
	}
	// Selection left xs[lo+1:] holding the larger values, so order
	// statistic lo+1 is their minimum.
	return vlo*(1-frac) + to(slices.Min(xs[lo+1:]))*frac
}

// selectNth reorders xs so that xs[k] holds the value sorting would put
// there, with nothing larger before it and nothing smaller after, and
// returns it. Three-way partitioning keeps runs of ties linear.
func selectNth(xs []int64, k int) int64 {
	lo, hi := 0, len(xs) // the window [lo, hi) holds position k
	for hi-lo > 1 {
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi-1]
		p := max(min(a, b), min(max(a, b), c)) // median of three
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch {
			case xs[i] < p:
				xs[lt], xs[i] = xs[i], xs[lt]
				lt++
				i++
			case xs[i] > p:
				gt--
				xs[i], xs[gt] = xs[gt], xs[i]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return p
		}
	}
	return xs[k]
}

// Snapshot returns a copy of the summary statistics commonly reported by
// the experiment tables.
func (h *Histogram) Snapshot() Summary {
	return Summary{
		Count:  h.Count(),
		Mean:   h.Mean(),
		StdDev: h.StdDev(),
		Min:    h.Min(),
		P50:    h.Quantile(0.50),
		P90:    h.Quantile(0.90),
		P99:    h.Quantile(0.99),
		Max:    h.Max(),
	}
}

// Summary is a point-in-time digest of a Histogram.
type Summary struct {
	Count         int
	Mean, StdDev  float64
	Min, Max      float64
	P50, P90, P99 float64
}

// String renders the summary compactly for logs.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f p50=%.3f p90=%.3f p99=%.3f max=%.3f",
		s.Count, s.Mean, s.P50, s.P90, s.P99, s.Max)
}

// Counter is a monotonically increasing counter.
type Counter struct {
	mu sync.Mutex
	v  float64
}

// Add increments the counter by delta (which must be ≥ 0).
func (c *Counter) Add(delta float64) {
	c.mu.Lock()
	c.v += delta
	c.mu.Unlock()
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current count.
func (c *Counter) Value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a settable instantaneous value.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Value reports the stored value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// JainIndex computes Jain's fairness index over per-entity allocations:
// (Σx)² / (n·Σx²). It is 1.0 for perfectly equal allocations and
// approaches 1/n under maximal unfairness. Returns 0 for empty input or
// all-zero allocations.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumsq float64
	for _, x := range xs {
		sum += x
		sumsq += x * x
	}
	if sumsq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumsq)
}

// TimeSeries records (t, v) points; useful for disruption timelines.
type TimeSeries struct {
	mu sync.Mutex
	ts []time.Duration
	vs []float64
}

// Append records one point at elapsed time t.
func (s *TimeSeries) Append(t time.Duration, v float64) {
	s.mu.Lock()
	s.ts = append(s.ts, t)
	s.vs = append(s.vs, v)
	s.mu.Unlock()
}

// Len reports the number of points.
func (s *TimeSeries) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ts)
}

// Points returns copies of the recorded times and values.
func (s *TimeSeries) Points() ([]time.Duration, []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := make([]time.Duration, len(s.ts))
	vs := make([]float64, len(s.vs))
	copy(ts, s.ts)
	copy(vs, s.vs)
	return ts, vs
}

// Integrate returns the time-weighted integral of the series between the
// first and last points using step interpolation (each value holds until
// the next point). Units are value·seconds.
func (s *TimeSeries) Integrate() float64 {
	ts, vs := s.Points()
	if len(ts) < 2 {
		return 0
	}
	var total float64
	for i := 0; i < len(ts)-1; i++ {
		dt := (ts[i+1] - ts[i]).Seconds()
		total += vs[i] * dt
	}
	return total
}
