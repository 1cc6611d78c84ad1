package epc

// The goroutine-parking admission gate the event gate (gate.go)
// replaced, kept verbatim (renamed) as a build-internal reference
// implementation — the refheap_test.go / refdcf_test.go pattern. The
// differential test below drives both with the same randomized arrival
// scripts and requires the same admission trace. Test-only.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"dlte/internal/simnet"
)

type refGateWaiter struct {
	at    time.Time
	actor string
	ready chan struct{}
}

var refGateWaiterPool = sync.Pool{
	New: func() interface{} { return &refGateWaiter{ready: make(chan struct{}, 1)} },
}

type refGate struct {
	capacity int // admission slots; 0 means 1

	mu      sync.Mutex
	waiters []*refGateWaiter // sorted by (at, actor); small: one per eNB conn
	running int
}

func (g *refGate) enqueue(w *refGateWaiter) {
	g.mu.Lock()
	i := 0
	for i < len(g.waiters) && (g.waiters[i].at.Before(w.at) ||
		(g.waiters[i].at.Equal(w.at) && g.waiters[i].actor < w.actor)) {
		i++
	}
	g.waiters = append(g.waiters, nil)
	copy(g.waiters[i+1:], g.waiters[i:])
	g.waiters[i] = w
	g.mu.Unlock()
}

// tryAdmit pops every queue head an open slot can take — a whole run
// of same-window arrivals in one pass — and signals each admitted
// waiter's ready channel. Caller holds g.mu.
func (g *refGate) tryAdmit() {
	slots := g.capacity
	if slots < 1 {
		slots = 1
	}
	n := 0
	for g.running < slots && n < len(g.waiters) {
		w := g.waiters[n]
		g.waiters[n] = nil
		n++
		g.running++
		w.ready <- struct{}{}
	}
	if n > 0 {
		rem := copy(g.waiters, g.waiters[n:])
		clear := g.waiters[rem:]
		for i := range clear {
			clear[i] = nil
		}
		g.waiters = g.waiters[:rem]
	}
}

// run executes fn once admitted. All waits go through the clock
// (Sleep, Block-bracketed channel receives) so a VirtualClock sees
// queued goroutines as parked and advances virtual time
// deterministically.
func (g *refGate) run(clk simnet.Clock, actor string, fn func()) {
	w := refGateWaiterPool.Get().(*refGateWaiter)
	w.at = clk.Now()
	w.actor = actor
	g.enqueue(w)
	if _, virtual := clk.(*simnet.VirtualClock); virtual {
		// Same-instant arrivals finish enqueueing before admission
		// order is decided. Only a virtual clock has the quiescence
		// guarantee that makes the window meaningful; on a wall clock
		// the 1 ns sleep is a ~50 µs real timer for nothing.
		clk.Sleep(gateEpsilon)
	}
	g.mu.Lock()
	g.tryAdmit()
	g.mu.Unlock()
	select {
	case <-w.ready:
		// Admitted in our own pass (or by a peer before we got here).
	default:
		clk.Block()
		<-w.ready
		clk.Unblock()
	}

	fn()

	g.mu.Lock()
	g.running--
	g.tryAdmit()
	g.mu.Unlock()
	refGateWaiterPool.Put(w)
}

// --- differential ---------------------------------------------------------

// gateScript is one randomized workload for a single gate: capacity
// slots, hold (the ProcessingDelay an admitted message keeps its slot
// for; 0 = the serving gate's instantaneous work), and per association
// the virtual instants its messages reach the core. An association
// serves one message at a time, so a message that arrives while its
// predecessor is in flight enters the gate the moment the predecessor
// is done — then stamped with that instant, not its arrival.
type gateScript struct {
	capacity int
	hold     time.Duration
	arrivals map[string][]time.Duration
}

// admission is one trace entry: message idx of actor got its slot at
// virtual instant at.
type admission struct {
	at    time.Duration
	actor string
	idx   int
}

// between is what an association does between leaving this gate and
// re-entering it with its next message. A message that held a
// signaling-processor slot goes on through the serving gate first (one
// gateEpsilon); a serving-gate message is followed at once.
func (s gateScript) between() time.Duration {
	if s.hold > 0 {
		return gateEpsilon
	}
	return 0
}

// randomGateScript draws a contended script: a handful of associations
// whose messages arrive in same-instant bursts on a 1 µs grid. With a
// hold of 250 ns a burst backs up across several grid points, so the
// in-flight rule, slot hand-over at release and the registration
// window all fire; admission and release instants sit at +1 ns offsets
// off the grid, so a fresh arrival never shares an instant with a
// release (where the blocking gate's admission depends on which of the
// two goroutines the Go scheduler ran first).
func randomGateScript(rng *rand.Rand) gateScript {
	s := gateScript{capacity: 1 + rng.Intn(4), arrivals: map[string][]time.Duration{}}
	if rng.Intn(2) == 1 {
		s.hold = 250 * time.Nanosecond
	}
	for a, n := 0, 2+rng.Intn(5); a < n; a++ {
		// Names whose string order differs from creation order, as
		// "ap10:49153" sorts before "ap2:49153".
		actor := fmt.Sprintf("ap%d:49153", (a*7+3)%11)
		at := time.Duration(0)
		for m, msgs := 0, 1+rng.Intn(6); m < msgs; m++ {
			if rng.Intn(3) > 0 {
				at += time.Duration(rng.Intn(3)) * time.Microsecond
			}
			s.arrivals[actor] = append(s.arrivals[actor], at+time.Microsecond)
		}
	}
	return s
}

// runRefGate plays the script through the blocking gate, one goroutine
// per association standing in for the old per-association server.
func runRefGate(s gateScript) []admission {
	n := simnet.NewVirtualNetwork(simnet.Link{}, 1)
	defer n.Close()
	clk := n.Clock()
	start := clk.Now()
	g := &refGate{capacity: s.capacity}
	var mu sync.Mutex
	var trace []admission
	var wg sync.WaitGroup
	for actor, arrivals := range s.arrivals {
		actor, arrivals := actor, arrivals
		wg.Add(1)
		clk.Go(func() {
			defer wg.Done()
			for idx, at := range arrivals {
				if wait := at - clk.Since(start); wait > 0 {
					clk.Sleep(wait)
				}
				g.run(clk, actor, func() {
					mu.Lock()
					trace = append(trace, admission{clk.Since(start), actor, idx})
					mu.Unlock()
					if s.hold > 0 {
						clk.Sleep(s.hold)
					}
				})
				if d := s.between(); d > 0 {
					clk.Sleep(d)
				}
			}
		})
	}
	clk.Block()
	wg.Wait()
	clk.Unblock()
	return trace
}

// gateActor is the event-world association: arrivals queue, one
// message is in flight, the rest is continuations.
type gateActor struct {
	name     string
	g        *detGate
	hold     time.Duration
	between  time.Duration
	queued   int // arrived, not yet entered
	next     int // index of the next message to enter
	busy     bool
	timer    *simnet.Continuation
	admitted func()
	record   func(actor string, idx int)
}

const (
	evArrive uint64 = iota
	evHeld
	evReenter
)

func (a *gateActor) pump() {
	if a.busy || a.queued == 0 {
		return
	}
	a.queued--
	a.busy = true
	a.g.enter(a.name, a.admitted)
}

func (a *gateActor) onAdmit() {
	a.record(a.name, a.next)
	a.next++
	if a.hold > 0 {
		a.timer.After(a.hold, evHeld)
		return
	}
	a.g.release()
	a.served()
}

func (a *gateActor) served() {
	if a.between > 0 {
		a.timer.After(a.between, evReenter)
		return
	}
	a.busy = false
	a.pump()
}

func (a *gateActor) onEvent(ev uint64) {
	switch ev {
	case evArrive:
		a.queued++
		a.pump()
	case evHeld:
		a.g.release()
		a.served()
	case evReenter:
		a.busy = false
		a.pump()
	}
}

// runEventGate plays the script through detGate on the delivery thread.
func runEventGate(s gateScript) []admission {
	n := simnet.NewVirtualNetwork(simnet.Link{}, 1)
	defer n.Close()
	clk := n.Clock()
	start := clk.Now()
	g := &detGate{}
	g.init(n.MustAddHost("core"), s.capacity)
	var trace []admission
	var last time.Duration
	for name, arrivals := range s.arrivals {
		a := &gateActor{name: name, g: g, hold: s.hold, between: s.between()}
		a.admitted = a.onAdmit
		a.record = func(actor string, idx int) {
			trace = append(trace, admission{clk.Since(start), actor, idx})
		}
		a.timer = n.NewContinuation(a.onEvent)
		for _, at := range arrivals {
			a.timer.After(at, evArrive)
			if at > last {
				last = at
			}
		}
	}
	// Every message is served within (hold + 2 ns) of its turn; sleep
	// well past the worst backlog.
	total := 0
	for _, arrivals := range s.arrivals {
		total += len(arrivals)
	}
	clk.Sleep(last + time.Duration(total+1)*(s.hold+time.Microsecond))
	return trace
}

// canonical orders a trace for comparison. With one slot the gate's
// run order is fully determined and the trace is compared as recorded.
// With several, entrants admitted in one pass start in parallel in the
// blocking gate — their record order within the instant is goroutine
// wake order — so same-instant entries are put in (actor, idx) order
// on both sides; which entrant gets which instant is still compared
// exactly.
func canonical(tr []admission, capacity int) []admission {
	out := append([]admission(nil), tr...)
	if capacity > 1 {
		sort.SliceStable(out, func(i, j int) bool {
			if out[i].at != out[j].at {
				return out[i].at < out[j].at
			}
			if out[i].actor != out[j].actor {
				return out[i].actor < out[j].actor
			}
			return out[i].idx < out[j].idx
		})
	}
	return out
}

// stableRefTrace runs the script through the blocking gate until two
// consecutive runs agree. The oracle hands slots over with bare channel
// sends to parked goroutines — wakes the virtual clock only catches if
// the woken goroutine is scheduled within the advancer's settle budget
// (DESIGN.md §5b) — so on a loaded machine a run can let time slip past
// a waiter. That fragility is the oracle's, and one reason the gate
// became events; a trace is only trusted once it repeats.
func stableRefTrace(t *testing.T, s gateScript) []admission {
	t.Helper()
	prev := canonical(runRefGate(s), s.capacity)
	for attempt := 0; attempt < 8; attempt++ {
		cur := canonical(runRefGate(s), s.capacity)
		if reflect.DeepEqual(cur, prev) {
			return cur
		}
		prev = cur
	}
	t.Fatalf("blocking gate never produced the same trace twice running")
	return nil
}

// TestGateDifferentialVsBlockingGate: randomized scripts of (instant,
// association) arrivals at capacity 1–4, with and without a
// ProcessingDelay hold, must produce the same (admission instant,
// order) trace from the event gate as from the blocking gate it
// replaced.
func TestGateDifferentialVsBlockingGate(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		s := randomGateScript(rand.New(rand.NewSource(seed)))
		want := stableRefTrace(t, s)
		got := canonical(runEventGate(s), s.capacity)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (capacity %d, hold %v, %d associations): traces differ\nblocking gate: %v\nevent gate:    %v",
				seed, s.capacity, s.hold, len(s.arrivals), want, got)
		}
		if len(got) == 0 {
			t.Fatalf("seed %d: empty trace", seed)
		}
	}
}
