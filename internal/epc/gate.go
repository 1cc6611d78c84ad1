package epc

import (
	"time"

	"dlte/internal/simnet"
)

// gateEpsilon is the registration window of a deterministic gate:
// every entrant that arrives at one virtual instant gets this long
// (one virtual nanosecond — invisible at any rendered precision) to
// enqueue before admission order is decided. The window's close is a
// wheel event one nanosecond out, and every event of the arrival
// instant runs before it, so the queue is complete when the window
// closes.
const gateEpsilon = time.Nanosecond

// gateWaiter is one entrant awaiting admission, keyed by virtual
// arrival time with an actor ID (the eNB connection ID) as tiebreak.
// admit runs on the delivery thread once the entrant holds a slot.
type gateWaiter struct {
	at    time.Time
	actor string
	admit func()
}

// detGate admits work onto a bounded number of slots in deterministic
// order: strictly by (virtual arrival time, actor ID), both functions
// of simulation state alone. Messages on one S1AP association are
// inherently serial (enbConn keeps one in flight), so the key is total.
//
// The gate is a data structure plus events, not a place goroutines
// park: enter queues the entrant and books one tick per arrival
// instant at +gateEpsilon; the tick and every release call tryAdmit,
// which pops the whole admissible run of queue heads — entrants whose
// window has closed, while slots last — and runs each one's admit
// continuation inline. An entrant keeps its slot until it calls
// release, possibly from a later event (a ProcessingDelay completion).
// Everything here runs on the network's delivery thread (DESIGN.md
// §14), so the gate needs no lock.
//
// Two gates are built on this: the core's serving gate (capacity 1 —
// at most one per-UE signaling message in flight, which is what makes
// session state single-writer) and the modeled signaling processor of
// a centralized EPC (capacity =
// SignalingProcessors, each admitted message holding its slot for
// ProcessingDelay — an M/D/k queue in virtual time).
type detGate struct {
	capacity int // admission slots; 0 means 1

	clk    simnet.Clock
	tick   *simnet.Continuation // closes registration windows
	tickAt time.Time            // latest instant a tick is booked for

	waiters   []gateWaiter // sorted by (at, actor); live from head
	head      int
	running   int
	admitting bool // tryAdmit is on the stack; releases fold into its loop
}

// init binds the gate to the clock and the delivery thread of the
// core's host.
func (g *detGate) init(host *simnet.Host, capacity int) {
	g.capacity = capacity
	g.clk = host.Clock()
	g.tick = host.Network().NewContinuation(func(uint64) { g.tryAdmit() })
}

// enter queues an entrant arriving now; admit runs once it holds a
// slot, never before the caller returns to the delivery loop.
func (g *detGate) enter(actor string, admit func()) {
	now := g.clk.Now()
	if g.head == len(g.waiters) {
		g.waiters, g.head = g.waiters[:0], 0
	} else if g.head >= 32 && 2*g.head >= len(g.waiters) {
		// A saturated gate never drains: reclaim the admitted prefix.
		n := copy(g.waiters, g.waiters[g.head:])
		for i := n; i < len(g.waiters); i++ {
			g.waiters[i] = gateWaiter{}
		}
		g.waiters, g.head = g.waiters[:n], 0
	}
	// Arrival instants only grow, so the slot is found from the tail.
	i := len(g.waiters)
	g.waiters = append(g.waiters, gateWaiter{})
	for ; i > g.head && g.waiters[i-1].at.Equal(now) && g.waiters[i-1].actor > actor; i-- {
		g.waiters[i] = g.waiters[i-1]
	}
	g.waiters[i] = gateWaiter{at: now, actor: actor, admit: admit}
	if t := now.Add(gateEpsilon); t.After(g.tickAt) {
		g.tickAt = t
		g.tick.After(gateEpsilon, 0)
	}
}

// release frees the caller's slot and admits whoever it unblocks.
func (g *detGate) release() {
	g.running--
	g.tryAdmit()
}

// tryAdmit pops every queue head an open slot can take — a whole run
// of same-window arrivals in one pass — and runs each admitted
// entrant's continuation. A head whose window is still open (it
// arrived at this very instant) ends the pass; its tick is booked.
func (g *detGate) tryAdmit() {
	if g.admitting {
		return
	}
	g.admitting = true
	slots := g.capacity
	if slots < 1 {
		slots = 1
	}
	now := g.clk.Now()
	for g.running < slots && g.head < len(g.waiters) {
		w := &g.waiters[g.head]
		if w.at.Add(gateEpsilon).After(now) {
			break
		}
		admit := w.admit
		*w = gateWaiter{}
		g.head++
		g.running++
		admit()
	}
	g.admitting = false
}
