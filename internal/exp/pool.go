package exp

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the parallel world-runner. Every experiment sweep is a
// set of *independent* simulation worlds: each world owns its own
// simnet.Network, its own VirtualClock, and a seed derived purely from
// (Options.Seed, job index), so worlds never share mutable state and
// may run concurrently. Results are written into index-addressed slots
// and tables are rendered only after the pool's barrier, which makes
// the rendered output byte-identical at any parallelism — the
// regression test in determinism_test.go holds the harness to that.

// workers resolves the effective worker count: Parallelism if set,
// otherwise one worker per CPU.
func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.NumCPU()
}

// ForEach runs fn(0), …, fn(n-1) on at most parallelism concurrent
// goroutines and waits for all of them. With parallelism ≤ 1 the jobs
// run inline on the caller's goroutine in index order, exactly like
// the serial loops this replaces. Every job runs even if an earlier
// one fails (jobs are independent worlds; there is nothing to
// salvage by stopping early) and the error reported is the one from
// the lowest-numbered failing job, so the error path does not depend
// on scheduling order either.
func ForEach(parallelism, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism <= 1 {
		var firstErr error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}

	var (
		next     atomic.Int64
		mu       sync.Mutex
		errIdx   = n
		firstErr error
		wg       sync.WaitGroup
	)
	next.Store(-1)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if i < errIdx {
						errIdx, firstErr = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// forEachWorld is ForEach at the Options' worker count — the form the
// experiment sweeps use.
func forEachWorld(opt Options, n int, fn func(i int) error) error {
	return ForEach(opt.workers(), n, fn)
}

// mergeRegions merges per-region record slices — each already in that
// region's local (at, seq) order — into the single global (at, seq,
// region) order, the canonical way to turn per-region event logs into
// region-count-stable output.
func mergeRegions[T any](parts [][]T, key func(T) (at time.Duration, seq uint64)) []T {
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
