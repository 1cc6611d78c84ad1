package main

import (
	"hash"
	"hash/fnv"
	"math"
	"sort"
)

// median reports the middle of xs (mean of the two middle values for
// an even count). It does not modify xs; an empty slice reads 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile of xs: the smallest sample
// with at least p of the samples at or below it. With fewer than
// 1/(1-p) samples it is the maximum, which is the honest reading.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), so a spread computed here is the one
// the acceptance driver computes. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance of xs as a share of its median
// — the steadiness figure every bound is judged against. Fewer than
// two samples have no spread (reported 0).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// minMax reports the extremes of xs.
func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// simDigest folds a workload's simulated outputs (virtual durations,
// byte counts, rendered tables) into one FNV-64a value. Equal digests
// across the segments of a run mean the world is deterministic; equal
// digests across two commits mean a change left every simulated
// statistic alone.
type simDigest struct{ h hash.Hash64 }

func newSimDigest() simDigest { return simDigest{fnv.New64a()} }

func (d simDigest) u64(v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	d.h.Write(b[:])
}

func (d simDigest) f64(v float64)  { d.u64(math.Float64bits(v)) }
func (d simDigest) bytes(p []byte) { d.h.Write(p) }
func (d simDigest) sum() uint64    { return d.h.Sum64() }
