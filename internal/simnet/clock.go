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
//     transport-agnostic code (the registry server, X2) running over
//     real sockets, as cmd/dlte-registry does.
//
// The contract for code running under a Clock:
//
//   - Spawn every goroutine that touches the simulated world with
//     Go, never with a bare `go` statement (a VirtualClock counts
//     runnable goroutines; an uncounted one makes time advance while
//     work is still pending).
//   - Wait only through the clock: Sleep, or a clock-owned Mailbox
//     (Recv, Wait, Close), whose receive parks and wakes under the
//     clock's own accounting. simnet's blocking reads and accepts are
//     such waits already. A goroutine woken any other way — a channel
//     send, a cond broadcast, a WaitGroup — is invisible to the clock.
//   - Block/Unblock bracket only a wait outside the simulator (a
//     harness joining worlds it drives). While a goroutine is inside
//     Block the clock cannot know the world is quiescent and settles
//     the scheduler (yields) before every step, so every Block costs
//     its whole world; with nobody inside Block, quiescence is exact.
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
	// Go runs fn on a new goroutine registered with the clock.
	Go(fn func())
	// Block declares that the calling goroutine is about to wait on
	// something outside the simulator. It must be paired with Unblock
	// when the goroutine resumes.
	Block()
	// Unblock declares that the goroutine blocked via Block is
	// runnable again.
	Unblock()
}

// Wall is the process-wide wall-clock Clock.
var Wall Clock = wallClock{}

// wallClock adapts the time package to the Clock interface.
type wallClock struct{}

func (wallClock) Now() time.Time                  { return time.Now() }
func (wallClock) Since(t time.Time) time.Duration { return time.Since(t) }
func (wallClock) Until(t time.Time) time.Duration { return time.Until(t) }
func (wallClock) Sleep(d time.Duration)           { time.Sleep(d) }
func (wallClock) Go(fn func())                    { go fn() }
func (wallClock) Block()                          {}
func (wallClock) Unblock()                        {}

// ClockOf returns the Clock governing v — any value exposing a
// `Clock() Clock` method (Network, Host, Conn, PacketConn, Listener,
// ue.BearerConn, …) — or Wall for plain OS-backed values such as
// *net.UDPConn. It lets transport-agnostic code (registry, X2) inherit
// virtual time when running over a simulated network and real time
// when running over real sockets, and MST find the virtual clock its
// socket runs on, without new constructor parameters.
func ClockOf(v any) Clock {
	if h, ok := v.(interface{ Clock() Clock }); ok {
		if c := h.Clock(); c != nil {
			return c
		}
	}
	return Wall
}
