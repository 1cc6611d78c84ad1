package simnet

import (
	"testing"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(30*time.Millisecond, func() { order = append(order, 3) })
	s.At(10*time.Millisecond, func() { order = append(order, 1) })
	s.At(20*time.Millisecond, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 30*time.Millisecond {
		t.Errorf("final time = %v", s.Now())
	}
}

func TestSchedulerFIFOTieBreak(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.At(time.Second, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break order = %v", order)
		}
	}
}

func TestSchedulerAfterNesting(t *testing.T) {
	s := NewScheduler()
	var times []time.Duration
	s.After(time.Second, func() {
		times = append(times, s.Now())
		s.After(2*time.Second, func() {
			times = append(times, s.Now())
		})
	})
	s.Run()
	if len(times) != 2 || times[0] != time.Second || times[1] != 3*time.Second {
		t.Fatalf("times = %v", times)
	}
}

func TestSchedulerPastEventRunsNow(t *testing.T) {
	s := NewScheduler()
	var ran time.Duration = -1
	s.At(5*time.Second, func() {
		s.At(time.Second, func() { ran = s.Now() }) // scheduled in the past
	})
	s.Run()
	if ran != 5*time.Second {
		t.Fatalf("past event ran at %v, want 5s", ran)
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	e := s.At(time.Second, func() { fired = true })
	e.Cancel()
	s.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	// Cancel is idempotent and zero-value-safe.
	e.Cancel()
	var zero Event
	zero.Cancel()
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		s.At(d, func() { fired = append(fired, d) })
	}
	s.RunUntil(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired = %v", fired)
	}
	if s.Now() != 2*time.Second {
		t.Errorf("Now = %v, want 2s", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
	// RunUntil past the end advances the clock.
	s.RunUntil(10 * time.Second)
	if len(fired) != 3 || s.Now() != 10*time.Second {
		t.Errorf("after second RunUntil: fired=%v now=%v", fired, s.Now())
	}
}

// The Every tests drive the At-built periodic chain (every, in
// wheel_test.go) that the differential test's every op runs on.
func TestSchedulerEvery(t *testing.T) {
	s := NewScheduler()
	count := 0
	cancel := every(s, time.Second, time.Second, func() { count++ })
	s.RunUntil(5500 * time.Millisecond)
	if count != 5 {
		t.Fatalf("periodic fired %d times, want 5", count)
	}
	cancel()
	s.RunUntil(20 * time.Second)
	if count != 5 {
		t.Fatalf("periodic fired after cancel: %d", count)
	}
}

func TestSchedulerStep(t *testing.T) {
	s := NewScheduler()
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
	ran := false
	s.At(time.Millisecond, func() { ran = true })
	if !s.Step() || !ran {
		t.Fatal("Step did not run the event")
	}
}

func TestSchedulerEventAt(t *testing.T) {
	s := NewScheduler()
	e := s.At(7*time.Second, func() {})
	if e.At() != 7*time.Second {
		t.Errorf("At = %v", e.At())
	}
}

func TestSchedulerManyEventsDeterministic(t *testing.T) {
	run := func() []time.Duration {
		s := NewScheduler()
		var log []time.Duration
		// Interleaved periodic producers, like two cell schedulers.
		every(s, 0, 3*time.Millisecond, func() { log = append(log, s.Now()) })
		every(s, time.Millisecond, 5*time.Millisecond, func() { log = append(log, s.Now()) })
		s.RunUntil(100 * time.Millisecond)
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSchedulerEveryCancelLeavesNoZombie(t *testing.T) {
	// Canceling a chain between firings cancels its one queued event:
	// Pending drops to 0 and no firing is left to run.
	s := NewScheduler()
	cancel := every(s, time.Second, time.Second, func() {})
	s.RunUntil(2500 * time.Millisecond)
	cancel()
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending after cancel = %d, want 0", got)
	}
	if s.Step() {
		t.Fatal("Step ran a canceled chain event")
	}
}

func TestSchedulerEveryCancelFromInsideFn(t *testing.T) {
	s := NewScheduler()
	count := 0
	var cancel func()
	cancel = every(s, time.Second, time.Second, func() {
		count++
		if count == 3 {
			cancel()
		}
	})
	s.RunUntil(time.Minute)
	if count != 3 {
		t.Fatalf("fired %d times, want 3 (self-cancel ignored)", count)
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending after self-cancel = %d, want 0", got)
	}
}

func TestSchedulerCancelNilAndDouble(t *testing.T) {
	s := NewScheduler()
	var zero Event
	zero.Cancel() // must not panic
	e := s.After(time.Second, func() { t.Fatal("canceled event fired") })
	e.Cancel()
	e.Cancel() // double cancel is a no-op
	s.RunUntil(2 * time.Second)
}
