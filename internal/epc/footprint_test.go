package epc_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"dlte/internal/simnet"
)

// TestActiveUEGoroutineFootprint pins the run-to-completion dispatch
// contract (DESIGN.md §14) as a hard gate: attaching a population of
// UEs may cost at most 2 standing goroutines per active UE. Before the
// dispatch conversion every attached UE carried at least three parked
// readers (the UE's air reader, the eNodeB's per-association serveUE
// loop, and a share of the core's per-conn machinery); with handler
// registration the steady-state count stays near zero per UE, and this
// test keeps it from regressing.
func TestActiveUEGoroutineFootprint(t *testing.T) {
	const nENB, perENB = 4, 16
	const population = nENB * perENB

	sb := newStormBed(t, nENB, perENB)

	// Baseline after the world is built but before any UE attaches:
	// core, eNodeBs, and idle devices all up.
	settleGoroutines()
	before := runtime.NumGoroutine()

	var wg sync.WaitGroup
	errs := make(chan error, len(sb.ues))
	for i, d := range sb.ues {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := d.Attach(sb.air[i], 30*time.Second); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatalf("attach: %v", err)
	default:
	}

	// Attaches spawn transient helpers (the attach calls above, timer
	// callbacks); wait for the population to stop moving before
	// judging the standing cost.
	settleGoroutines()
	after := runtime.NumGoroutine()

	added := after - before
	if added > 2*population {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("%d active UEs cost %d goroutines (%.2f/UE), budget is 2/UE:\n\n%s",
			population, added, float64(added)/population, buf)
	}
	t.Logf("%d active UEs: %d standing goroutines (%.2f/UE)", population, added, float64(added)/population)

	// The population must actually be riding the dispatcher: a silent
	// fallback to blocking readers would pass the count above only by
	// accident of budget.
	stats := sb.net.ExecStats()
	if stats.HandlerDispatches == 0 {
		t.Fatalf("no handler dispatches recorded; attach path fell back to legacy readers (stats %+v)", stats)
	}
}

// settleGoroutines waits for the goroutine count to hold still long
// enough to be read as steady state.
func settleGoroutines() {
	stable, last := 0, -1
	for i := 0; i < 500 && stable < 10; i++ {
		runtime.Gosched()
		if n := runtime.NumGoroutine(); n == last {
			stable++
		} else {
			stable, last = 0, n
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAttachParkBudget pins what the park-free attach arc bought, on
// the virtual clock where a goroutine park is the expensive thing (a
// waiter, a wake channel and a dozen settle yields): a 4 AP × 8 UE
// storm round costs at most 2 goroutine parks per attach — the caller
// waiting for its outcome, plus its share of the test's own join — and
// the stack underneath spawns no goroutine at all: not for the dial,
// not for the accept, not for S1AP admission. Goroutines are counted
// mid-flight, at virtual instants where the old arc had a dial
// goroutine asleep per UE and a server parked per association.
func TestAttachParkBudget(t *testing.T) {
	const nENB, perENB = 4, 8
	const attaches = nENB * perENB
	const air = 2 * time.Millisecond

	net := simnet.NewVirtualNetwork(simnet.Link{Latency: air}, 1)
	sb := newStormBedOn(t, net, nENB, perENB)
	clk := net.Clock()

	round := func(sample func()) {
		var wg sync.WaitGroup
		for i, d := range sb.ues {
			i, d := i, d
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				if _, err := d.Attach(sb.air[i], 30*time.Second); err != nil {
					t.Errorf("attach %d: %v", i, err)
				}
			})
		}
		if sample != nil {
			sample()
		}
		clk.Block()
		wg.Wait()
		clk.Unblock()
	}
	round(nil) // warm: first attach builds sessions, tunnels, slabs

	runtime.GC() // start the collector's workers before counting
	settleGoroutines()
	before := runtime.NumGoroutine()
	parksBefore := net.ExecStats().GoroutineParks

	peak := 0
	round(func() {
		// Half a hop in: every dial is in flight. Then a few hops on:
		// S1AP messages are queued at the core's gates.
		for _, wait := range []time.Duration{air / 2, 2 * air, 2 * air} {
			clk.Sleep(wait)
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
		}
	})

	parks := net.ExecStats().GoroutineParks - parksBefore
	const samplerParks = 3 + 1 // the sampler's sleeps and the join
	if perAttach := float64(parks-samplerParks) / attaches; perAttach > 2 {
		t.Errorf("%d attaches cost %d goroutine parks (%.2f per attach), budget is 2", attaches, parks, perAttach)
	} else {
		t.Logf("%.2f goroutine parks per attach", perAttach)
	}
	if spawned := peak - before - attaches; spawned > 0 {
		t.Errorf("%d goroutines in flight beyond the %d callers: the stack spawned per attach", spawned, attaches)
	}
	settleGoroutines()
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines %d → %d across a storm round", before, after)
	}
}
