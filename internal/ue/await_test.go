package ue

import (
	"testing"
	"time"

	"dlte/internal/auth"
	"dlte/internal/leaktest"
	"dlte/internal/simnet"
)

// TestAwaitAllocatesNoTimer gates the one park of an Attach/Detach: the
// caller waits on the done mailbox, whose timeout is the mailbox's own
// embedded waiter, and the delivery handler's finish wakes it with a
// tracked Put. No timer and no channel per procedure: a begin → finish
// → await cycle parks once and allocates nothing.
func TestAwaitAllocatesNoTimer(t *testing.T) {
	n := simnet.NewVirtualNetwork(simnet.Link{}, 1)
	defer n.Close()
	sim, err := auth.NewSIM("001010000000409")
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDevice(n.MustAddHost("u"), sim)
	if err != nil {
		t.Fatal(err)
	}
	st := &airState{d: d}
	finish := n.NewContinuation(func(uint64) { d.finish(st, procAttach, nil) })
	cycle := func() {
		d.mu.Lock()
		d.st = st
		d.begin(procAttach, n.Clock().Now())
		d.mu.Unlock()
		finish.After(time.Millisecond, 0)
		if err := d.await(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm the dispatcher's slab and the mailbox
	const cycles = 100
	before := n.ExecStats().GoroutineParks
	var allocs float64
	if leaktest.RaceEnabled { // sync.Pool drops items under the detector
		for i := 0; i <= cycles; i++ {
			cycle()
		}
	} else {
		allocs = testing.AllocsPerRun(cycles, cycle)
	}
	if allocs != 0 {
		t.Errorf("await allocates %v times per procedure, want 0", allocs)
	}
	if got := n.ExecStats().GoroutineParks - before; got != cycles+1 {
		t.Errorf("%d procedures parked %d times, want one each", cycles+1, got)
	}
	if p := n.Clock().(*simnet.VirtualClock).Pending(); p != 0 {
		t.Errorf("%d waiters left on the clock after the procedures finished", p)
	}
}
