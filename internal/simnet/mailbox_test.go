package simnet

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dlte/internal/leaktest"
)

// Mailbox conformance: the receive side's contract as a virtual-clock
// waiter.

func TestMailboxTimeout(t *testing.T) {
	onVirtual(t, Link{}, func(t *testing.T, n *Network) {
		clk := n.clock
		m := NewMailbox[int](clk, 4)
		if _, err := m.Recv(0); !errors.Is(err, ErrDeadline) {
			t.Fatalf("Recv(0) on empty = %v, want ErrDeadline", err)
		}
		for i := 0; i < 3; i++ { // the embedded waiter re-arms
			start := clk.Now()
			_, err := m.Recv(20 * time.Millisecond)
			if !errors.Is(err, ErrDeadline) {
				t.Fatalf("Recv = %v, want ErrDeadline", err)
			}
			if waited := clk.Since(start); waited != 20*time.Millisecond {
				t.Fatalf("timeout after %v, want exactly 20ms", waited)
			}
		}
		// A timed-out receiver leaves nothing behind: the next value
		// queues instead of landing on a dead waiter.
		if !m.Put(7) {
			t.Fatal("Put after timeouts refused")
		}
		if v, err := m.Recv(time.Second); err != nil || v != 7 {
			t.Fatalf("Recv = %d, %v", v, err)
		}
		if p := clk.Pending(); p != 0 {
			t.Errorf("%d waiters left on the clock", p)
		}
	})
}

func TestMailboxPutWakesParkedRecv(t *testing.T) {
	onVirtual(t, Link{}, func(t *testing.T, n *Network) {
		clk := n.clock
		m := NewMailbox[int](clk, 4)
		start := clk.Now()
		clk.Go(func() {
			clk.Sleep(5 * time.Millisecond)
			m.Put(42)
		})
		v, err := m.Recv(time.Minute)
		if err != nil || v != 42 {
			t.Fatalf("Recv = %d, %v", v, err)
		}
		if clk.Since(start) != 5*time.Millisecond {
			t.Errorf("woken at +%v, want +5ms: the cancelled timeout moved time", clk.Since(start))
		}
		if p := clk.Pending(); p != 0 {
			t.Errorf("cancelled timeout still on the clock (%d pending)", p)
		}
	})
}

func TestMailboxCloseWakesParkedRecv(t *testing.T) {
	onVirtual(t, Link{}, func(t *testing.T, n *Network) {
		clk := n.clock
		m := NewMailbox[int](clk, 4)
		m.Put(1)
		clk.Go(func() {
			clk.Sleep(5 * time.Millisecond)
			m.Close()
			m.Close() // idempotent
		})
		if v, err := m.Recv(time.Minute); err != nil || v != 1 {
			t.Fatalf("queued value: %d, %v", v, err)
		}
		if _, err := m.Recv(time.Minute); !errors.Is(err, ErrClosed) {
			t.Fatalf("parked Recv across Close = %v, want ErrClosed", err)
		}
		if _, err := m.Recv(time.Minute); !errors.Is(err, ErrClosed) {
			t.Fatalf("Recv after Close = %v, want ErrClosed", err)
		}
		if m.Put(2) {
			t.Error("Put after Close accepted")
		}
	})
}

func TestMailboxOverflowDrops(t *testing.T) {
	onVirtual(t, Link{}, func(t *testing.T, n *Network) {
		m := NewMailbox[int](n.clock, 12) // crosses one ring growth (8 → 12)
		for i := 0; i < 15; i++ {
			if ok := m.Put(i); ok != (i < 12) {
				t.Fatalf("Put(%d) = %v", i, ok)
			}
		}
		for i := 0; i < 12; i++ {
			// Interleave a refill so the ring wraps.
			if i == 4 && !m.Put(100) {
				t.Fatal("Put into freed slot refused")
			}
			if v, err := m.Recv(time.Second); err != nil || v != i {
				t.Fatalf("Recv %d = %d, %v", i, v, err)
			}
		}
		if v, err := m.Recv(time.Second); err != nil || v != 100 {
			t.Fatalf("wrapped value = %d, %v", v, err)
		}
	})
}

// TestMailboxPutVersusTimeout races producers against the receiver's
// timeout (run it under -race): whichever wins, every accepted value is
// received exactly once and in order, and no wake token leaks into the
// next park.
func TestMailboxPutVersusTimeout(t *testing.T) {
	onVirtual(t, Link{}, func(t *testing.T, n *Network) {
		clk := n.clock
		const rounds = 300
		const wait = 200 * time.Microsecond
		m := NewMailbox[int](clk, rounds)
		var wg sync.WaitGroup
		wg.Add(1)
		clk.Go(func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				clk.Sleep(wait) // lands on the receiver's deadline
				if !m.Put(i) {
					t.Error("Put refused")
				}
			}
		})
		next, timeouts := 0, 0
		for next < rounds {
			v, err := m.Recv(wait)
			switch {
			case errors.Is(err, ErrDeadline):
				if timeouts++; timeouts > 100*rounds {
					t.Fatal("receiver starved")
				}
			case err != nil:
				t.Fatal(err)
			case v != next:
				t.Fatalf("received %d, want %d", v, next)
			default:
				next++
			}
		}
		clk.Block()
		wg.Wait()
		clk.Unblock()
		if _, err := m.Recv(wait); !errors.Is(err, ErrDeadline) {
			t.Errorf("drained mailbox Recv = %v, want ErrDeadline (stale token?)", err)
		}
	})
}

// TestMailboxConcurrentReceivers: receivers beyond the embedded waiter
// park too, and are served oldest first.
func TestMailboxConcurrentReceivers(t *testing.T) {
	onVirtual(t, Link{}, func(t *testing.T, n *Network) {
		clk := n.clock
		m := NewMailbox[int](clk, 4)
		got := make([]int, 3)
		var wg sync.WaitGroup
		for i := range got {
			i := i
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				clk.Sleep(time.Duration(i+1) * 5 * time.Millisecond) // park in index order
				v, err := m.Recv(time.Minute)
				if err != nil {
					t.Error(err)
				}
				got[i] = v
			})
		}
		clk.Sleep(50 * time.Millisecond)
		for v := 10; v < 13; v++ {
			m.Put(v)
		}
		clk.Block()
		wg.Wait()
		clk.Unblock()
		if got[0] != 10 || got[1] != 11 || got[2] != 12 {
			t.Errorf("receivers got %v, want [10 11 12]", got)
		}
	})
}

// TestMailboxHandlerWakeIsTracked pins the wake contract on a virtual
// clock: a Put from a dispatch handler to a parked receiver is a busy
// slot transfer under the clock's mutex — no generation bump, so
// nothing for a settle round to catch — and a Put with nobody parked
// touches no clock state at all. Steady state allocates nothing.
func TestMailboxHandlerWakeIsTracked(t *testing.T) {
	n := NewVirtualNetwork(Link{}, 1)
	defer n.Close()
	vc := n.clock
	m := NewMailbox[uint64](vc, 4)
	cont := n.NewContinuation(func(arg uint64) { m.Put(arg) })

	roundTrip := func() {
		cont.After(time.Millisecond, 9)
		if v, err := m.Recv(time.Second); err != nil || v != 9 {
			t.Fatalf("Recv = %d, %v", v, err)
		}
	}
	roundTrip()
	vc.mu.Lock()
	gen, seq := vc.gen, vc.seq
	vc.mu.Unlock()
	parks := vc.parks.Load()
	for i := 0; i < 10; i++ {
		roundTrip()
	}
	vc.mu.Lock()
	if vc.gen != gen {
		t.Errorf("handler Puts bumped the clock generation %d times: untracked wakes", vc.gen-gen)
	}
	if vc.seq != seq+10 {
		t.Errorf("10 parked receives armed %d waiters", vc.seq-seq)
	}
	vc.mu.Unlock()
	if got := vc.parks.Load() - parks; got != 10 {
		t.Errorf("10 receives parked %d times", got)
	}

	// Nobody parked: the Put only queues.
	vc.mu.Lock()
	seq = vc.seq
	vc.mu.Unlock()
	m.Put(1)
	vc.mu.Lock()
	if vc.gen != gen || vc.seq != seq {
		t.Error("Put with nobody parked touched clock state")
	}
	vc.mu.Unlock()
	m.Recv(time.Second)

	if leaktest.RaceEnabled {
		return // the dispatcher's pooled records allocate under the detector
	}
	if got := testing.AllocsPerRun(200, roundTrip); got != 0 {
		t.Errorf("parked Recv + handler Put allocate %v per round trip, want 0", got)
	}
}

// TestMailboxSurvivesClockClose: closing the clock under a parked
// receiver ends its wait early, like a Sleep, and the mailbox still
// works afterwards without the clock.
func TestMailboxSurvivesClockClose(t *testing.T) {
	vc := NewVirtual()
	m := NewMailbox[int](vc, 4)
	done := make(chan error, 1)
	vc.Go(func() {
		_, err := m.Recv(time.Hour)
		done <- err
	})
	vc.Sleep(time.Millisecond) // the receiver is parked
	vc.Close()
	if err := <-done; !errors.Is(err, ErrDeadline) {
		t.Fatalf("Recv across clock Close = %v, want ErrDeadline", err)
	}
	go func() { done <- nil; m.Put(5) }()
	<-done
	if v, err := m.Recv(time.Hour); err != nil || v != 5 {
		t.Fatalf("Recv on a closed clock = %d, %v", v, err)
	}
}
