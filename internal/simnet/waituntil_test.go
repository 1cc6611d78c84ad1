package simnet

import (
	"fmt"
	"testing"
	"time"

	"dlte/internal/leaktest"
)

// never is a predicate that does not hold.
func never() bool { return false }

// TestWaitUntilReleasesAtHandlerInstant: the waiter resumes at the
// virtual instant a delivery handler's write makes its predicate true —
// the third of three chunks, landing 3 ms after the writes — not on a
// poll grid after it.
func TestWaitUntilReleasesAtHandlerInstant(t *testing.T) {
	n, cc, sc := diffWorld(t, Link{})
	vc := n.Clock().(*VirtualClock)
	var got []observed
	start := vc.nowDur()
	sc.OnDeliver(func(data []byte) {
		got = append(got, observed{vc.nowDur() - start, string(data)})
	}, nil)
	stagger(n, func(msg string) { cc.Write([]byte(msg)) })
	if !vc.WaitUntil(time.Second, func() bool { return len(got) == 3 }) {
		t.Fatalf("WaitUntil timed out; handler saw %v", got)
	}
	if at := vc.nowDur() - start; at != 3*time.Millisecond {
		t.Errorf("released at +%v, want +3ms (the third delivery's instant)", at)
	}
	checkObserved(t, "stream", got, []observed{
		{time.Millisecond, "msg0"}, {2 * time.Millisecond, "msg1"}, {3 * time.Millisecond, "msg2"},
	})
}

// TestWaitUntilTimeoutAtDeadline: a predicate that never holds ends the
// wait with false exactly at the timeout, however often other
// goroutines ran (and so had it checked) meanwhile.
func TestWaitUntilTimeoutAtDeadline(t *testing.T) {
	vc := NewVirtual()
	defer vc.Close()
	checks := 0
	cond := func() bool { checks++; return false }
	vc.Go(func() {
		for i := 0; i < 5; i++ {
			vc.Sleep(time.Millisecond)
		}
	})
	start := vc.Now()
	if vc.WaitUntil(7*time.Millisecond, cond) {
		t.Fatal("WaitUntil reported a predicate that never held")
	}
	if got := vc.Since(start); got != 7*time.Millisecond {
		t.Errorf("timed out after %v, want exactly 7ms", got)
	}
	if checks < 6 {
		t.Errorf("predicate checked %d times, want one before parking and one per sleeper wake (≥ 6)", checks)
	}
	if p := vc.Pending(); p != 0 {
		t.Errorf("%d timed parks left after the timeout, want 0", p)
	}
}

// TestWaitUntilReleasedByClose: closing the clock ends a WaitUntil with
// false instead of stranding the goroutine.
func TestWaitUntilReleasedByClose(t *testing.T) {
	vc := NewVirtual()
	res := make(chan bool, 1)
	vc.Go(func() { res <- vc.WaitUntil(time.Hour, never) })
	vc.Sleep(time.Millisecond) // let it park
	vc.Close()
	select {
	case ok := <-res:
		if ok {
			t.Error("a Close-released WaitUntil reported its predicate held")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the WaitUntil parked")
	}
}

// TestWaitUntilHoldsWithoutParking: a predicate that already holds
// returns at once — no park, no time.
func TestWaitUntilHoldsWithoutParking(t *testing.T) {
	vc := NewVirtual()
	defer vc.Close()
	parks, start := vc.parks.Load(), vc.Now()
	if !vc.WaitUntil(time.Second, func() bool { return true }) {
		t.Fatal("WaitUntil missed a predicate that held")
	}
	if p := vc.parks.Load() - parks; p != 0 {
		t.Errorf("an already-true predicate parked %d times, want 0", p)
	}
	if vc.Since(start) != 0 {
		t.Errorf("an already-true predicate took %v of virtual time", vc.Since(start))
	}
}

// TestWaitUntilReleasesInParkOrder: waiters whose predicates turn true
// at the same instant resume one at a time, in the order they parked.
func TestWaitUntilReleasesInParkOrder(t *testing.T) {
	n := NewVirtualNetwork(Link{}, 1)
	defer n.Close()
	vc := n.clock
	flag := false
	set := n.NewContinuation(func(uint64) { flag = true })
	var order []int
	g := NewMailbox[struct{}](vc, 3)
	for i := 1; i <= 3; i++ {
		vc.Go(func() {
			if vc.WaitUntil(time.Second, func() bool { return flag }) {
				order = append(order, i)
			}
			g.Put(struct{}{})
		})
		vc.Sleep(time.Millisecond) // park them one after another
	}
	set.After(time.Millisecond, 0)
	for i := 0; i < 3; i++ {
		if _, err := g.Recv(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Errorf("released in order %v, want [1 2 3]", order)
	}
}

// TestWaitUntilZeroAlloc: a steady-state WaitUntil that parks and is
// released by a handler allocates nothing; the caller's predicate is
// built once, outside the measured loop.
func TestWaitUntilZeroAlloc(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	n := NewVirtualNetwork(Link{}, 1)
	defer n.Close()
	vc := n.clock
	hit := false
	set := n.NewContinuation(func(uint64) { hit = true })
	cond := func() bool { return hit }
	wait := func() {
		hit = false
		set.After(time.Millisecond, 0)
		if !vc.WaitUntil(time.Second, cond) {
			t.Fatal("WaitUntil timed out")
		}
	}
	wait() // warm the pool, the heap and the predicate slices
	if got := testing.AllocsPerRun(200, wait); got != 0 {
		t.Errorf("WaitUntil allocates %v times, want 0", got)
	}
}
