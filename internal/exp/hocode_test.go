package exp

import (
	"math"
	"math/rand"
	"testing"

	"dlte/internal/metrics"
)

// TestScenHOCodeDecodesToDraw pins the coded interruption samples to
// the float the draw defines: the dLTE interruption is
// scenHOBaseMs + (h mod jitter-µs)/1000 ms for the draw's hash h, and
// decoding its code must give exactly that float. It also pins the
// order the quantiles rely on: decoding is strictly increasing in the
// code, telecom sentinel included.
func TestScenHOCodeDecodesToDraw(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		seed, gi, k := rng.Int63(), rng.Intn(1_000_000), uint32(rng.Intn(64))
		h := splitmix64(uint64(seed) ^ 0x9FB21C651E98DF25)
		h = splitmix64(h ^ uint64(gi)<<16 ^ uint64(k))
		want := scenHOBaseMs + float64(h%(scenHOJitterMs*1000))/1000
		if got := scenHOMs(scenHOCode(seed, gi, k)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d gi %d k %d: decoded %v, draw %v", seed, gi, k, got, want)
		}
	}
	if got := scenHOMs(scenHOTelecomCode); got != centralHandoverMs {
		t.Fatalf("telecom code decodes to %v, want %v", got, centralHandoverMs)
	}
	for c := 1; c <= scenHOTelecomCode; c++ {
		if scenHOMs(uint16(c)) <= scenHOMs(uint16(c-1)) {
			t.Fatalf("decoding not increasing at code %d: %v after %v", c, scenHOMs(uint16(c)), scenHOMs(uint16(c-1)))
		}
	}
}

// TestScenHOQuantilesMatchHistogram is the oracle for counting codes
// instead of sorting samples: over random code multisets split across
// regions — all-dLTE, all-telecom, mixed, tie-heavy, empty, one and two
// samples — scenHOQuantiles must be bit-equal to metrics.Histogram's
// p50/p99 over the decoded samples.
func TestScenHOQuantilesMatchHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	draw := func(mix int) uint16 {
		switch {
		case mix == 1, mix == 2 && rng.Intn(3) == 0:
			return scenHOTelecomCode
		case mix == 3:
			return uint16(rng.Intn(4)) // a handful of distinct values
		case mix == 4:
			return uint16(rng.Intn(2) * (scenHOCodes - 1)) // the extremes
		default:
			return uint16(rng.Intn(scenHOCodes))
		}
	}
	for trial := 0; trial < 3000; trial++ {
		var n int
		switch trial % 6 {
		case 0:
			n = trial % 3 // empty, one and two samples
		case 1:
			n = 3 + rng.Intn(8)
		default:
			n = rng.Intn(3000)
		}
		mix := rng.Intn(5)
		parts := make([][]uint16, 1+rng.Intn(8))
		h := metrics.NewHistogram()
		for i := 0; i < n; i++ {
			c := draw(mix)
			r := rng.Intn(len(parts))
			parts[r] = append(parts[r], c)
			h.Observe(scenHOMs(c))
		}
		p50, p99 := scenHOQuantiles(parts)
		if math.Float64bits(p50) != math.Float64bits(h.Quantile(0.5)) ||
			math.Float64bits(p99) != math.Float64bits(h.Quantile(0.99)) {
			t.Fatalf("trial %d (n=%d mix=%d): codes give p50 %v p99 %v, histogram %v %v",
				trial, n, mix, p50, p99, h.Quantile(0.5), h.Quantile(0.99))
		}
	}
}
