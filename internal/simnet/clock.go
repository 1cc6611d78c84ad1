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
//     package. It exists for ClockOf, which hands it to the one
//     service that runs over real sockets: the registry server's
//     ServeConn, as cmd/dlte-registry drives it over TCP. (X2 and MST
//     refuse any socket that is not simnet's.)
//
// The contract for code running under a Clock:
//
//   - Spawn every goroutine that touches the simulated world with
//     Go, never with a bare `go` statement (a VirtualClock counts
//     runnable goroutines; an uncounted one makes time advance while
//     work is still pending).
//   - Wait only through the clock: Sleep, a clock-owned Mailbox, or
//     WaitUntil for a state change (never a Sleep poll), which park and
//     wake under the clock's own accounting; simnet's blocking reads
//     and accepts are mailbox waits. A goroutine woken any other way —
//     a channel send, a cond broadcast, a WaitGroup — is invisible.
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
// …) — or Wall for plain OS-backed values such as *net.TCPConn. It lets
// the registry server stamp its push deadlines in virtual time over a
// simulated network and in real time over real sockets, without new
// constructor parameters.
func ClockOf(v any) Clock {
	if h, ok := v.(interface{ Clock() Clock }); ok {
		if c := h.Clock(); c != nil {
			return c
		}
	}
	return Wall
}
