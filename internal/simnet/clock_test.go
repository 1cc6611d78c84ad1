package simnet

import (
	"strings"
	"sync"
	"testing"
	"time"

	"dlte/internal/leaktest"
)

// clockConformance runs the Clock-contract checks shared by both
// implementations. Durations are kept small so the wall-clock variant
// stays fast; assertions use one-sided bounds (at least d elapsed) so
// wall scheduling slop cannot flake them.
func clockConformance(t *testing.T, clk Clock) {
	t.Helper()

	// Sleep advances Now by at least d.
	start := clk.Now()
	clk.Sleep(10 * time.Millisecond)
	if got := clk.Since(start); got < 10*time.Millisecond {
		t.Errorf("Sleep(10ms) advanced only %v", got)
	}

	// Until/Since are consistent around Now.
	future := clk.Now().Add(time.Second)
	if u := clk.Until(future); u <= 0 || u > time.Second {
		t.Errorf("Until(+1s) = %v", u)
	}

	// Go runs the function; Block/Unblock bracket foreign waits.
	done := make(chan struct{})
	clk.Go(func() {
		clk.Sleep(time.Millisecond)
		close(done)
	})
	clk.Block()
	<-done
	clk.Unblock()

	// Timer order: two timers armed together fire earliest-first.
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	wg.Add(2)
	arm := func(id int, d time.Duration) {
		clk.Go(func() {
			defer wg.Done()
			clk.Sleep(d)
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
		})
	}
	arm(2, 40*time.Millisecond)
	arm(1, 20*time.Millisecond)
	clk.Block()
	wg.Wait()
	clk.Unblock()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("wake order = %v, want [1 2]", order)
	}
}

func TestWallClockConformance(t *testing.T) {
	clockConformance(t, Wall)
}

func TestVirtualClockConformance(t *testing.T) {
	clk := NewVirtual()
	defer clk.Close()
	clockConformance(t, clk)
}

func TestVirtualClockExactness(t *testing.T) {
	// Virtual time is exact, not approximate: a sleep advances the
	// clock by precisely its duration, regardless of wall time.
	clk := NewVirtual()
	defer clk.Close()
	start := clk.Now()
	clk.Sleep(3 * time.Hour) // costs microseconds of wall time
	if got := clk.Since(start); got != 3*time.Hour {
		t.Fatalf("Sleep(3h) advanced %v", got)
	}
}

func TestVirtualClockDeterministicTimeline(t *testing.T) {
	// Same program, two runs: identical sequence of fire instants.
	run := func() []time.Duration {
		clk := NewVirtual()
		defer clk.Close()
		epoch := clk.Now()
		var mu sync.Mutex
		var log []time.Duration
		var wg sync.WaitGroup
		for _, d := range []time.Duration{70, 10, 40, 10, 99} {
			d := d * time.Millisecond
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				clk.Sleep(d)
				mu.Lock()
				log = append(log, clk.Since(epoch))
				mu.Unlock()
			})
		}
		clk.Block()
		wg.Wait()
		clk.Unblock()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("timelines diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestVirtualClockCloseReleasesSleepers(t *testing.T) {
	clk := NewVirtual()
	released := make(chan struct{})
	clk.Go(func() {
		clk.Sleep(24 * time.Hour)
		close(released)
	})
	// Give the sleeper a moment to park, then close.
	time.Sleep(10 * time.Millisecond)
	clk.Close()
	select {
	case <-released:
	case <-time.After(time.Second):
		t.Fatal("Close did not release a parked sleeper")
	}
	clk.Close() // double Close is a no-op
	// Clock calls after Close stay safe.
	clk.Sleep(time.Hour)
}

func TestClockOf(t *testing.T) {
	n := NewVirtualNetwork(Link{}, 1)
	defer n.Close()
	h := n.MustAddHost("a")
	pc, err := h.ListenPacket(1)
	if err != nil {
		t.Fatal(err)
	}
	if ClockOf(pc) != n.Clock() {
		t.Error("ClockOf(PacketConn) did not inherit the network clock")
	}
	if ClockOf(42) != Wall {
		t.Error("ClockOf(non-clocked) != Wall")
	}
	if ClockOf(nil) != Wall {
		t.Error("ClockOf(nil) != Wall")
	}
}

// settleYields reads the clock's settle-loop yield count.
func settleYields(c *VirtualClock) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.yields
}

// TestBlockFreeWorldNeverSettles pins the exact-quiescence rule: in a
// world where no goroutine is inside Block, every wake is a tracked
// busy-slot transfer, so the advancer steps without a single scheduler
// yield — across Sleeps, a goroutine-to-goroutine Mailbox ping-pong and
// a handler hop into a Mailbox.
func TestBlockFreeWorldNeverSettles(t *testing.T) {
	n := NewVirtualNetwork(Link{}, 1)
	defer n.Close()
	vc := n.clock
	ping := NewMailbox[int](vc, 1)
	pong := NewMailbox[int](vc, 1)
	hop := NewMailbox[uint64](vc, 1)
	cont := n.NewContinuation(func(arg uint64) { hop.Put(arg) })
	vc.Go(func() {
		for {
			v, err := ping.Wait()
			if err != nil {
				return
			}
			vc.Sleep(time.Millisecond)
			pong.Put(v)
		}
	})
	start := vc.Now()
	const cycles = 200
	for i := 0; i < cycles; i++ {
		vc.Sleep(time.Millisecond)
		ping.Put(i)
		if v, err := pong.Recv(time.Second); err != nil || v != i {
			t.Fatalf("pong %d = %d, %v", i, v, err)
		}
		cont.After(time.Millisecond, uint64(i))
		if v, err := hop.Recv(time.Second); err != nil || v != uint64(i) {
			t.Fatalf("hop %d = %d, %v", i, v, err)
		}
	}
	ping.Close()
	if got := vc.Since(start); got != cycles*3*time.Millisecond {
		t.Errorf("%d cycles took %v of virtual time, want %v", cycles, got, cycles*3*time.Millisecond)
	}
	if y := settleYields(vc); y != 0 {
		t.Errorf("a Block-free world ran %d settle yields, want 0", y)
	}
}

// TestUnblockWithoutBlockPanics: an unmatched Unblock would hide a
// blocked goroutine from the settle rule, so it fails loudly.
func TestUnblockWithoutBlockPanics(t *testing.T) {
	vc := NewVirtual()
	defer vc.Close()
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "Unblock without a matching Block") {
			t.Errorf("unmatched Unblock recovered %v, want a clear panic", r)
		}
	}()
	vc.Block()
	vc.Unblock()
	vc.Unblock()
}

// TestSleepZeroAlloc: a steady-state Sleep reuses a pooled waiter and
// its wake channel.
func TestSleepZeroAlloc(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	vc := NewVirtual()
	defer vc.Close()
	vc.Sleep(time.Millisecond) // warm the pool and the heap
	if got := testing.AllocsPerRun(200, func() { vc.Sleep(time.Millisecond) }); got != 0 {
		t.Errorf("Sleep allocates %v times, want 0", got)
	}
}
