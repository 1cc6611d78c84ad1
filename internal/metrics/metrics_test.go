package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.StdDev() != 0 {
		t.Fatalf("empty histogram should report zeros: %+v", h.Snapshot())
	}
}

func TestHistogramBasicStats(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{1, 2, 3, 4, 5} {
		h.Observe(v)
	}
	if got := h.Mean(); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
	if got := h.Sum(); got != 15 {
		t.Errorf("Sum = %v, want 15", got)
	}
	if got := h.Min(); got != 1 {
		t.Errorf("Min = %v, want 1", got)
	}
	if got := h.Max(); got != 5 {
		t.Errorf("Max = %v, want 5", got)
	}
	if got := h.Quantile(0.5); got != 3 {
		t.Errorf("P50 = %v, want 3", got)
	}
	wantSD := math.Sqrt(2) // population sd of 1..5
	if got := h.StdDev(); math.Abs(got-wantSD) > 1e-12 {
		t.Errorf("StdDev = %v, want %v", got, wantSD)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	h := NewHistogram()
	h.Observe(10)
	h.Observe(20)
	if got := h.Quantile(0.5); got != 15 {
		t.Errorf("interpolated median = %v, want 15", got)
	}
	if got := h.Quantile(0.25); got != 12.5 {
		t.Errorf("q0.25 = %v, want 12.5", got)
	}
}

func TestHistogramObserveAfterQuantile(t *testing.T) {
	// Observing after a quantile query must re-sort correctly.
	h := NewHistogram()
	h.Observe(5)
	h.Observe(1)
	_ = h.Quantile(0.5)
	h.Observe(0)
	if got := h.Min(); got != 0 {
		t.Errorf("Min after late observe = %v, want 0", got)
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	// Property: quantiles are monotonically nondecreasing in q.
	rng := rand.New(rand.NewSource(42))
	h := NewHistogram()
	for i := 0; i < 500; i++ {
		h.Observe(rng.NormFloat64() * 100)
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotonic at q=%.2f: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramDuration(t *testing.T) {
	h := NewHistogram()
	h.ObserveDuration(1500 * time.Microsecond)
	if got := h.Mean(); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("duration sample = %v ms, want 1.5", got)
	}
}

func TestSummaryString(t *testing.T) {
	h := NewHistogram()
	h.Observe(1)
	s := h.Snapshot().String()
	if !strings.Contains(s, "n=1") {
		t.Errorf("summary string missing count: %q", s)
	}
}

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Errorf("Counter = %v, want 3.5", got)
	}
	var g Gauge
	g.Set(7)
	g.Set(-1)
	if got := g.Value(); got != -1 {
		t.Errorf("Gauge = %v, want -1", got)
	}
}

func TestJainIndexEqualAllocations(t *testing.T) {
	if got := JainIndex([]float64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal allocations: Jain = %v, want 1", got)
	}
}

func TestJainIndexMaxUnfair(t *testing.T) {
	// One user gets everything among n: index = 1/n.
	if got := JainIndex([]float64{10, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("max unfair: Jain = %v, want 0.25", got)
	}
}

func TestJainIndexDegenerate(t *testing.T) {
	if got := JainIndex(nil); got != 0 {
		t.Errorf("empty: Jain = %v, want 0", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 0 {
		t.Errorf("all-zero: Jain = %v, want 0", got)
	}
}

func TestJainIndexBoundsProperty(t *testing.T) {
	// Property: for any non-negative allocation with at least one
	// positive entry, 1/n ≤ Jain ≤ 1.
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		any := false
		for i, v := range raw {
			xs[i] = math.Abs(v)
			if !math.IsNaN(xs[i]) && !math.IsInf(xs[i], 0) && xs[i] > 0 {
				any = true
			}
			if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) || xs[i] > 1e100 {
				return true // skip inputs whose squares overflow
			}
		}
		if !any {
			return true
		}
		j := JainIndex(xs)
		n := float64(len(xs))
		return j >= 1/n-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTimeSeries(t *testing.T) {
	var s TimeSeries
	s.Append(0, 10)
	s.Append(2*time.Second, 20)
	s.Append(3*time.Second, 0)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	// Integral: 10 for 2s + 20 for 1s = 40 value-seconds.
	if got := s.Integrate(); math.Abs(got-40) > 1e-9 {
		t.Errorf("Integrate = %v, want 40", got)
	}
	ts, vs := s.Points()
	if len(ts) != 3 || len(vs) != 3 || vs[1] != 20 {
		t.Errorf("Points returned wrong data: %v %v", ts, vs)
	}
}

func TestTimeSeriesIntegrateDegenerate(t *testing.T) {
	var s TimeSeries
	if got := s.Integrate(); got != 0 {
		t.Errorf("empty integral = %v, want 0", got)
	}
	s.Append(time.Second, 5)
	if got := s.Integrate(); got != 0 {
		t.Errorf("single-point integral = %v, want 0", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "arch", "throughput", "fair")
	tb.AddRow("dLTE", 12.5, 0.97)
	tb.AddRow("WiFi", 3.0, 0.95)
	out := tb.String()
	if !strings.Contains(out, "== Demo ==") {
		t.Errorf("missing title: %q", out)
	}
	if !strings.Contains(out, "dLTE") || !strings.Contains(out, "12.5") {
		t.Errorf("missing cells: %q", out)
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d, want 2", tb.NumRows())
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("expected 5 lines, got %d: %q", len(lines), out)
	}
}

func TestTableShortRow(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("only")
	out := tb.String()
	if !strings.Contains(out, "only") {
		t.Errorf("missing cell: %q", out)
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		1.5:   "1.5",
		2.0:   "2",
		0.125: "0.125",
		0:     "0",
	}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i))
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if got := h.Count(); got != 8000 {
		t.Errorf("Count = %d, want 8000", got)
	}
}

// TestSelectQuantileMatchesHistogram holds selection to the sorting
// Histogram bit for bit, on random samples and on samples heavy with
// ties, at the edge quantiles and at random ones.
func TestSelectQuantileMatchesHistogram(t *testing.T) {
	toMs := func(d int64) float64 { return float64(d) / float64(time.Millisecond) }
	rng := rand.New(rand.NewSource(5))
	for c := 0; c < 200; c++ {
		n := 1 + rng.Intn(500)
		span := int64(1 + rng.Intn(1e9))
		if c%2 == 1 {
			span = int64(1 + rng.Intn(4)) // ties: a handful of distinct values
		}
		xs := make([]int64, n)
		h := NewHistogram()
		for i := range xs {
			xs[i] = 5_000_000 + rng.Int63n(span)
			h.Observe(toMs(xs[i]))
		}
		for _, q := range []float64{0, 0.5, 0.99, 1, rng.Float64(), rng.Float64()} {
			got, want := SelectQuantile(xs, q, toMs), h.Quantile(q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("case %d (n=%d) q=%v: SelectQuantile = %v, Histogram = %v", c, n, q, got, want)
			}
		}
	}
	if got := SelectQuantile(nil, 0.5, toMs); got != 0 {
		t.Errorf("empty: %v, want 0", got)
	}
}
