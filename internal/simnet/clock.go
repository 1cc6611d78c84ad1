package simnet

import "time"

// Clock abstracts the passage of time for everything that runs over a
// Network. Two implementations exist:
//
//   - VirtualClock: deterministic discrete-event time, and the only
//     clock a Network runs on. Virtual time stands still while any
//     registered goroutine is runnable and jumps straight to the next
//     timer's expiry when all of them are blocked, so simulated link
//     latencies cost no wall-clock time.
//
//   - WallClock (the package-level Wall): real time via the time
//     package. It exists for ClockOf, which hands it to
//     transport-agnostic code (the registry server, MST, X2) running
//     over real sockets, as cmd/dlte-registry does.
//
// The contract for code running under a Clock:
//
//   - Spawn every goroutine that touches the simulated world with
//     Go, never with a bare `go` statement (a VirtualClock counts
//     runnable goroutines; an uncounted one makes time advance while
//     work is still pending).
//   - Prefer waiting through the clock itself: Sleep, or a clock-owned
//     Mailbox, whose Recv parks and wakes under the clock's own
//     accounting. Otherwise wrap every blocking operation the clock
//     cannot see — a channel select, sync.Cond.Wait, WaitGroup.Wait,
//     mutex acquisition that can stall — in Block/Unblock, and take
//     any timeout channels in that select from NewTimer/After on the
//     same clock. Only a goroutine inside Block may be woken by a
//     Timer/Ticker fire or by a handler's Poke. While none is, a
//     VirtualClock knows the world is quiescent exactly; while one is,
//     it must settle the scheduler (yield) before every step, so every
//     Block costs its whole world.
//   - Derive deadlines from Now on the same clock, never time.Now.
//
// WallClock implements Block/Unblock/Go as no-ops/bare spawns, so
// code written against the contract also runs over real sockets.
type Clock interface {
	// Now reports the current instant on this clock.
	Now() time.Time
	// Since is Now().Sub(t).
	Since(t time.Time) time.Duration
	// Until is t.Sub(Now()).
	Until(t time.Time) time.Duration
	// Sleep blocks the calling goroutine for d of this clock's time.
	Sleep(d time.Duration)
	// After returns a channel that delivers the clock's time once d
	// has elapsed. Prefer NewTimer when the wait may be abandoned.
	After(d time.Duration) <-chan time.Time
	// NewTimer returns a Timer that fires once after d.
	NewTimer(d time.Duration) *Timer
	// NewTicker returns a Ticker that fires every d. d must be > 0.
	NewTicker(d time.Duration) *Ticker
	// Go runs fn on a new goroutine registered with the clock.
	Go(fn func())
	// Block declares that the calling goroutine is about to wait on
	// something the clock cannot observe (a channel, a cond, a
	// WaitGroup). It must be paired with Unblock when the goroutine
	// resumes.
	Block()
	// Unblock declares that the goroutine blocked via Block is
	// runnable again.
	Unblock()
}

// Timer is a clock-agnostic one-shot timer. C delivers the clock's
// time when the timer fires.
type Timer struct {
	C    <-chan time.Time
	stop func() bool
}

// Stop cancels the timer. It reports whether the call prevented the
// timer from firing.
func (t *Timer) Stop() bool {
	if t.stop == nil {
		return false
	}
	return t.stop()
}

// Ticker is a clock-agnostic periodic timer.
type Ticker struct {
	C    <-chan time.Time
	stop func()
}

// Stop turns off the ticker.
func (t *Ticker) Stop() {
	if t.stop != nil {
		t.stop()
	}
}

// Wall is the process-wide wall-clock Clock.
var Wall Clock = wallClock{}

// wallClock adapts the time package to the Clock interface.
type wallClock struct{}

func (wallClock) Now() time.Time                         { return time.Now() }
func (wallClock) Since(t time.Time) time.Duration        { return time.Since(t) }
func (wallClock) Until(t time.Time) time.Duration        { return time.Until(t) }
func (wallClock) Sleep(d time.Duration)                  { time.Sleep(d) }
func (wallClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

func (wallClock) NewTimer(d time.Duration) *Timer {
	t := time.NewTimer(d)
	return &Timer{C: t.C, stop: t.Stop}
}

func (wallClock) NewTicker(d time.Duration) *Ticker {
	t := time.NewTicker(d)
	return &Ticker{C: t.C, stop: t.Stop}
}

func (wallClock) Go(fn func()) { go fn() }
func (wallClock) Block()       {}
func (wallClock) Unblock()     {}

// ClockOf returns the Clock governing v — any value exposing a
// `Clock() Clock` method (Network, Host, Conn, PacketConn, Listener,
// ue.BearerConn, …) — or Wall for plain OS-backed values such as
// *net.UDPConn. It lets transport-agnostic code (MST, registry, X2)
// inherit virtual time when running over a simulated network and real
// time when running over real sockets, without new constructor
// parameters.
func ClockOf(v any) Clock {
	if h, ok := v.(interface{ Clock() Clock }); ok {
		if c := h.Clock(); c != nil {
			return c
		}
	}
	return Wall
}
