package simnet

import (
	"sync"
	"sync/atomic"
	"time"
)

// ShardedScheduler drains independent per-region Schedulers. Regions
// never touch each other's state: each region's events read and write
// only that region's slots, and cross-region results are commutative
// aggregates or ordered logs merged afterwards. So there is nothing to
// synchronize between regions, and RunUntil drains region-major: a
// worker takes a region and runs its wheel straight to the horizon
// before it takes the next one, so a region's working set stays in
// cache for its whole run.
//
// Determinism: a region's event stream depends only on that region's
// own state, so per-region results are identical at any worker count.
// Byte-identical *global* output additionally requires the caller to
// aggregate region results in a region-count-invariant way — merge
// ordered logs with MergeRegions, sum counters, or derive values from
// global indices rather than region-local ones (DESIGN.md §11).
type ShardedScheduler struct {
	regions []*Scheduler
	workers int
}

// NewShardedScheduler builds a world of `regions` independent wheels
// drained by up to `workers` OS threads (workers <= 1 drains serially
// on the caller's goroutine; either way the result is identical).
func NewShardedScheduler(regions, workers int) *ShardedScheduler {
	if regions < 1 {
		regions = 1
	}
	if workers < 1 {
		workers = 1
	}
	rs := make([]*Scheduler, regions)
	for i := range rs {
		rs[i] = NewScheduler()
	}
	return &ShardedScheduler{regions: rs, workers: workers}
}

// Regions reports the number of region wheels.
func (ss *ShardedScheduler) Regions() int { return len(ss.regions) }

// Region returns region i's Scheduler. Safe to use directly between
// (not during) RunUntil calls, and from region i's own events.
func (ss *ShardedScheduler) Region(i int) *Scheduler { return ss.regions[i] }

// Pending sums live queued events across all regions.
func (ss *ShardedScheduler) Pending() int {
	n := 0
	for _, r := range ss.regions {
		n += r.Pending()
	}
	return n
}

// RunUntil advances every region to t, fanning regions out over the
// worker budget. Which worker runs which region, and in what order,
// does not matter: regions are independent, so scheduling is invisible
// in the results.
func (ss *ShardedScheduler) RunUntil(t time.Duration) {
	w := min(ss.workers, len(ss.regions))
	if w <= 1 {
		for _, r := range ss.regions {
			r.RunUntil(t)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1))
				if j >= len(ss.regions) {
					return
				}
				ss.regions[j].RunUntil(t)
			}
		}()
	}
	wg.Wait()
}

// MergeRegions merges per-region record slices — each already in that
// region's local (at, seq) order — into the single global (at, seq,
// region) order, the canonical way to turn sharded event logs into
// region-count-stable output.
func MergeRegions[T any](parts [][]T, key func(T) (at time.Duration, seq uint64)) []T {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]T, 0, total)
	idx := make([]int, len(parts))
	for len(out) < total {
		best := -1
		var bestAt time.Duration
		var bestSeq uint64
		for r, p := range parts {
			if idx[r] >= len(p) {
				continue
			}
			at, seq := key(p[idx[r]])
			if best < 0 || at < bestAt || (at == bestAt && seq < bestSeq) {
				best, bestAt, bestSeq = r, at, seq
			}
		}
		out = append(out, parts[best][idx[best]])
		idx[best]++
	}
	return out
}
