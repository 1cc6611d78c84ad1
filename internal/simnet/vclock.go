package simnet

import (
	"container/heap"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// VirtualClock is a deterministic discrete-event Clock. It tracks how
// many registered goroutines are runnable ("busy"); when that count
// reaches zero the world is quiescent — everyone is parked in a clock
// wait (Sleep, a Mailbox receive, WaitUntil, a Block bracket) — and a
// background advancer jumps virtual time straight to the next event and
// runs it: a timer's expiry, or a dispatcher's delivery batch. Simulated
// latencies therefore cost microseconds of wall time instead of their
// face value, and two runs with the same seed see the same virtual
// timeline.
//
// Every simnet delivery is a dispatcher event, a blocking reader's
// included: the batch puts the chunk in the reader's mailbox at its
// instant, and that Put counts the woken reader busy. So a delivery
// in flight is always an event the advancer can see, and nothing else
// has to hold time back.
//
// The zero value is not usable; call NewVirtual. The goroutine that
// creates the clock is the initial registered goroutine and must be
// the one driving the simulation.
type VirtualClock struct {
	mu   sync.Mutex
	cond *sync.Cond // wakes the advancer; waited on only by it

	base time.Time     // fixed epoch virtual instants are rendered from
	now  time.Duration // virtual time since base

	busy    int // registered goroutines currently runnable
	blocked int // goroutines inside a Block/Unblock bracket
	yields  int // settle-loop scheduler yields, for tests
	gen     uint64
	seq     uint64
	timers  waiterHeap
	untimed []*vwaiter // receivers parked with no timeout (Mailbox.Wait); Close releases them
	closed  bool

	// preds/conds: parked WaitUntil waiters, oldest first, and their
	// predicates. ran: a goroutine parked or a batch ran since a check.
	preds []*vwaiter
	conds []func() bool
	ran   bool

	// disp holds the dispatchers attached to this clock (one per
	// Network that registered an endpoint; almost always zero or one).
	// The advancer treats their earliest pending delivery as the
	// second event source next to timers.
	disp []*dispatcher

	live  atomic.Int64  // goroutines spawned via Go that have not returned
	parks atomic.Uint64 // goroutine parks: Sleep, Block, Mailbox receives
}

// vwaiter is one parked goroutine's wakeup: wake is its 1-buffered
// token channel. The advancer, or unpark's caller, transfers the busy
// slot to it before sending; Close just sends. A negative at marks an
// untimed park: idx then indexes c.untimed, not the heap.
type vwaiter struct {
	at   time.Duration
	seq  uint64
	idx  int
	wake chan struct{}
}

// release lets the goroutine parked on w run by sending its one token.
// Every parked waiter — a Sleep's pooled one, a Mailbox's receive — is
// re-armed park after park, so the token is a send, never a close.
func (w *vwaiter) release() {
	select {
	case w.wake <- struct{}{}:
	default: // one park, one token: cannot happen, and must not block under c.mu
	}
}

type waiterHeap []*vwaiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h waiterHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *waiterHeap) Push(x interface{}) {
	w := x.(*vwaiter)
	w.idx = len(*h)
	*h = append(*h, w)
}
func (h *waiterHeap) Pop() interface{} {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.idx = -1
	*h = old[:n-1]
	return w
}

// virtualEpoch is the fixed origin of every VirtualClock. It is
// deliberately far from the real date so a wall-clock deadline leaking
// into a virtual world is obvious (it lands decades in the future and
// never fires early).
var virtualEpoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// liveClocks counts open VirtualClocks process-wide. The parallel
// experiment harness runs many worlds concurrently, and each world's
// settle loop (settleLocked) must give its own runnable-but-unscheduled
// goroutines a chance to surface before time moves — a chance measured
// in scheduler yields, which foreign worlds' goroutines also consume.
// The settle budget therefore scales with how many worlds are sharing
// the scheduler.
var liveClocks atomic.Int64

// NewVirtual returns a VirtualClock at its epoch with the calling
// goroutine registered as the single runnable driver.
func NewVirtual() *VirtualClock {
	c := &VirtualClock{base: virtualEpoch, busy: 1}
	c.cond = sync.NewCond(&c.mu)
	liveClocks.Add(1)
	go c.advance()
	return c
}

// Close shuts the clock down: the advancer exits and every parked
// sleeper is released (their sleeps end early). Further clock calls
// are safe no-ops; Now keeps returning the final virtual time.
//
// Close then waits (bounded) for goroutines spawned via Go to return,
// so a subsequent world starts on a quiet scheduler — leftover churn
// from a dying world would otherwise perturb the next clock's settle
// loop and with it run-to-run determinism.
func (c *VirtualClock) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	liveClocks.Add(-1)
	for _, ws := range [][]*vwaiter{c.timers, c.untimed} {
		for _, w := range ws {
			w.idx = -1
			w.release()
		}
	}
	c.timers, c.untimed, c.preds, c.conds = nil, nil, nil, nil
	c.cond.Broadcast()
	c.mu.Unlock()

	deadline := time.Now().Add(200 * time.Millisecond)
	for i := 0; c.live.Load() > 0 && time.Now().Before(deadline); i++ {
		if i < 100 {
			runtime.Gosched()
		} else {
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// Now implements Clock. Virtual time only moves while every
// registered goroutine is parked, so between two clock waits a
// goroutine always observes a single consistent instant.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.base.Add(c.now)
}

// Since implements Clock.
func (c *VirtualClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// Until implements Clock.
func (c *VirtualClock) Until(t time.Time) time.Duration { return t.Sub(c.Now()) }

// sleepWaiters recycles Sleep's and WaitUntil's waiters, each with its
// 1-buffered wake channel, so a steady-state park allocates nothing. A
// waiter goes back only after its token has arrived: by then the clock
// has taken it off the heap and holds no reference to it.
var sleepWaiters = sync.Pool{New: func() any {
	return &vwaiter{wake: make(chan struct{}, 1)}
}}

// Sleep implements Clock: the goroutine parks and virtual time will
// reach now+d before it runs again.
func (c *VirtualClock) Sleep(d time.Duration) {
	c.mu.Lock()
	if c.closed || d <= 0 {
		c.mu.Unlock()
		runtime.Gosched()
		return
	}
	w := sleepWaiters.Get().(*vwaiter)
	c.parkLocked(w, c.now+d)
	c.mu.Unlock()
	<-w.wake // the advancer transfers our busy slot back before sending
	sleepWaiters.Put(w)
}

// WaitUntil parks the caller until cond holds or timeout passes, and
// reports whether cond holds. The advancer checks cond before it moves
// time, so the caller resumes at the instant the state changed. Like a
// handler, cond runs on the advancer: it must not wait, write, or take
// a lock a parked goroutine may hold.
func (c *VirtualClock) WaitUntil(timeout time.Duration, cond func() bool) bool {
	if cond() {
		return true
	}
	c.mu.Lock()
	if c.closed || timeout <= 0 {
		c.mu.Unlock()
		return false
	}
	w := sleepWaiters.Get().(*vwaiter)
	c.parkLocked(w, c.now+timeout)
	c.preds, c.conds = append(c.preds, w), append(c.conds, cond)
	c.mu.Unlock()
	<-w.wake
	sleepWaiters.Put(w)
	return cond()
}

// parkLocked gives up the caller's busy slot until w is released: by
// the advancer at virtual instant at (a heap entry), or — for a
// negative at, an untimed park — only by unpark or Close. An untimed
// park is kept off the heap rather than given a far-future instant,
// which the advancer would fire, jumping an idle world to the horizon.
// Caller holds c.mu.
func (c *VirtualClock) parkLocked(w *vwaiter, at time.Duration) {
	w.at = at
	if at < 0 {
		w.idx = len(c.untimed)
		c.untimed = append(c.untimed, w)
	} else {
		c.seq++
		w.seq = c.seq
		heap.Push(&c.timers, w)
	}
	c.parks.Add(1)
	c.idleLocked()
}

// idleLocked gives up the caller's busy slot after it ran; c.mu held.
func (c *VirtualClock) idleLocked() {
	c.busy--
	c.ran = true
	if c.busy == 0 {
		c.cond.Broadcast()
	}
}

// Go implements Clock: fn runs registered, so virtual time stands
// still while it is runnable.
func (c *VirtualClock) Go(fn func()) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		go fn()
		return
	}
	c.busy++
	c.gen++
	c.live.Add(1)
	c.mu.Unlock()
	go func() {
		defer func() {
			c.mu.Lock()
			c.idleLocked()
			c.mu.Unlock()
			c.live.Add(-1)
		}()
		fn()
	}()
}

// park is the clock half of a Mailbox receive: it arms w (whose wake
// channel is 1-buffered, see release) to fire d from now — or, for a
// negative d, parks it untimed — and gives up the caller's busy slot,
// exactly as Sleep does. It reports false on a closed clock, where
// nothing is armed and only the mailbox itself can wake the receiver.
func (c *VirtualClock) park(w *vwaiter, d time.Duration) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	at := d
	if d >= 0 {
		at = c.now + d
	}
	c.parkLocked(w, at)
	return true
}

// unpark is the clock half of a Mailbox wake: it cancels w's timeout
// (or takes it off the untimed list) and takes a busy slot on the
// parked receiver's behalf, so the receiver is counted runnable before
// it is released — the same transfer the advancer makes for a Sleep. It
// reports false when w has already fired: the advancer (or Close) made
// the transfer and released the receiver itself.
func (c *VirtualClock) unpark(w *vwaiter) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w.idx < 0 {
		return false
	}
	if w.at < 0 {
		last := len(c.untimed) - 1
		c.untimed[w.idx] = c.untimed[last]
		c.untimed[w.idx].idx = w.idx
		c.untimed[last] = nil
		c.untimed = c.untimed[:last]
		w.idx = -1
	} else {
		heap.Remove(&c.timers, w.idx)
	}
	c.busy++
	return true
}

// Block implements Clock. While any goroutine is inside a Block/Unblock
// bracket the advancer settles the scheduler before every step, since
// such a goroutine can be made runnable behind the clock's back. Only
// waits outside the simulator need it; see Clock.
func (c *VirtualClock) Block() {
	c.mu.Lock()
	c.blocked++
	c.parks.Add(1)
	c.idleLocked()
	c.mu.Unlock()
}

// Unblock implements Clock. It panics without a matching Block: the
// unmatched call would hide a blocked goroutine from the settle rule.
func (c *VirtualClock) Unblock() {
	c.mu.Lock()
	if c.blocked == 0 {
		c.mu.Unlock()
		panic("simnet: VirtualClock.Unblock without a matching Block")
	}
	c.blocked--
	c.busy++
	c.gen++
	c.mu.Unlock()
}

// Pending reports the number of timed parks (sleeps, mailbox receives
// with a timeout). Intended for tests.
func (c *VirtualClock) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers)
}

// attachDispatcher registers a Network's dispatcher as an event source
// for the advancer.
func (c *VirtualClock) attachDispatcher(d *dispatcher) {
	c.mu.Lock()
	c.disp = append(c.disp, d)
	c.mu.Unlock()
}

// nowDur returns the current virtual time as a duration since the
// clock's base — the representation delivery events are keyed on.
func (c *VirtualClock) nowDur() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// stabilizeRounds bounds the advancer's settle loop: how many yield
// rounds of unchanged state it requires before trusting that no woken
// goroutine is still on a run queue waiting to declare itself busy.
// This is the single-world budget for ordinary steps; settleRounds
// scales it by the number of concurrently-open clocks, because each
// runtime.Gosched may run a foreign world's goroutine instead of one
// of ours.
const stabilizeRounds = 12

// maxStabilizeRounds caps the scaled settle budget. Yields under load
// execute other worlds' useful work, so a generous cap costs little
// wall time; it only bounds advancer latency on an otherwise idle
// scheduler.
const maxStabilizeRounds = 384

// settleRounds is the current settle budget: the per-world base per
// live VirtualClock sharing the scheduler.
func settleRounds() int {
	n := int(liveClocks.Load())
	if n < 1 {
		n = 1
	}
	return min(stabilizeRounds*n, maxStabilizeRounds)
}

// stepKind classifies what one advancer step did, which decides
// whether the next step must settle the Go scheduler first.
type stepKind int

const (
	stepIdle     stepKind = iota // nothing to step
	stepWake                     // released a parked goroutine
	stepDispatch                 // a dispatch batch is due at c.now
)

// advance is the clock's background engine. Whenever the world is
// quiescent (busy == 0) and wakeups or dispatch deliveries are
// scheduled, it settles the Go scheduler, releases a WaitUntil whose
// predicate now holds, or else moves virtual time one step: to the
// earliest timer (firing it) or the earliest dispatch batch (running
// its handlers inline, and filling the mailboxes of reader endpoints).
//
// Settle rounds are the expensive part of a step, and they exist only
// to catch goroutines that became runnable outside the clock's
// bookkeeping — which only a goroutine inside Block can be, so a world
// with nobody blocked never settles (settleLocked). A dispatch batch
// that provably woke nobody — its handlers only wrote to handler
// endpoints — skips the settle before the next step; that skip is what
// makes a handler-to-handler hop a plain scheduler event instead of a
// park/settle/unpark round.
func (c *VirtualClock) advance() {
	c.mu.Lock()
	defer c.mu.Unlock()
	needSettle := true
	for {
		if c.closed {
			// Deliveries scheduled during teardown (every conn close
			// becomes a dispatcher event) would otherwise strand, and
			// with them any goroutine waiting on a handler to see EOF;
			// run them so Close's drain finishes promptly.
			disp := append([]*dispatcher(nil), c.disp...)
			c.mu.Unlock()
			for _, d := range disp {
				d.flush()
			}
			c.mu.Lock()
			return
		}
		if c.busy > 0 || !c.pendingWorkLocked() { // a WaitUntil's timeout is pending work
			c.cond.Wait()
			needSettle = true
			continue
		}
		if needSettle && !c.settleLocked() {
			continue // someone became runnable; re-evaluate
		}
		if len(c.preds) > 0 && c.ran && c.checkPredsLocked() {
			continue // the world moved during the check
		}
		kind, d := c.stepLocked()
		switch kind {
		case stepIdle, stepWake:
			needSettle = true
		case stepDispatch:
			at := c.now
			gen := c.gen
			c.mu.Unlock()
			d.runAt(at)
			c.mu.Lock()
			needSettle = c.gen != gen || c.busy > 0
			c.ran = true
		}
	}
}

// pendingWorkLocked reports whether any event source has work.
func (c *VirtualClock) pendingWorkLocked() bool {
	if len(c.timers) > 0 {
		return true
	}
	for _, d := range c.disp {
		if d.pending.Load() > 0 {
			return true
		}
	}
	return false
}

// settleLocked gives runnable-but-unscheduled goroutines (a receiver
// whose channel was just filled, a select whose timer just fired) a
// chance to run and re-register as busy before time moves. It reports
// whether the world stayed quiescent throughout.
//
// Only a goroutine inside Block can be such a receiver. With busy == 0
// and blocked == 0 every registered goroutine is parked in a clock-owned
// wait — a Sleep or a Mailbox receive — and only the advancer, unpark
// or Close can release one, each doing busy++ under c.mu first. So with nobody blocked the yields could find no one, and
// the world is quiescent exactly.
func (c *VirtualClock) settleLocked() bool {
	if c.blocked == 0 {
		return true
	}
	gen := c.gen
	rounds := settleRounds()
	for i := 0; i < rounds; i++ {
		c.mu.Unlock()
		runtime.Gosched()
		c.mu.Lock()
		c.yields++
		if c.closed || c.busy > 0 || c.gen != gen {
			return false
		}
	}
	return true
}

// checkPredsLocked runs the predicates, oldest first, with c.mu released
// (no simulated state moves: all are parked, handlers run only here) and
// makes the first that holds due now, so the next step releases it as a
// timer: one per quiescent point, keeping same-instant wakes sequential.
// It reports whether something outside the simulator ran meanwhile.
func (c *VirtualClock) checkPredsLocked() bool {
	c.ran = false
	conds := c.conds // only this goroutine removes entries; Close drops the slice
	c.mu.Unlock()
	hit := slices.IndexFunc(conds, func(cond func() bool) bool { return cond() })
	c.mu.Lock()
	if moved := c.closed || c.busy > 0 || c.ran; moved || hit < 0 {
		return moved
	}
	c.preds[hit].at = c.now
	heap.Fix(&c.timers, c.preds[hit].idx)
	return false
}

// stepLocked advances virtual time by one event from its two sources.
// At one instant timers run first (a goroutine whose Sleep or receive
// timeout ends there runs before same-instant deliveries), then
// dispatch batches. For stepDispatch the returned dispatcher's batch at
// the (already advanced) current instant must be run by the caller
// with the clock unlocked.
func (c *VirtualClock) stepLocked() (stepKind, *dispatcher) {
	nextTimer := time.Duration(-1)
	if len(c.timers) > 0 {
		nextTimer = c.timers[0].at
	}
	nextDispatch := time.Duration(-1)
	var dispSrc *dispatcher
	for _, d := range c.disp {
		if at, ok := d.next(); ok {
			if at < c.now {
				at = c.now // already due: runs at the current instant
			}
			if nextDispatch < 0 || at < nextDispatch {
				nextDispatch, dispSrc = at, d
			}
		}
	}
	if nextTimer >= 0 && (nextDispatch < 0 || nextTimer <= nextDispatch) {
		w := heap.Pop(&c.timers).(*vwaiter)
		if i := slices.Index(c.preds, w); i >= 0 { // a WaitUntil ends
			c.preds, c.conds = slices.Delete(c.preds, i, i+1), slices.Delete(c.conds, i, i+1)
		}
		if w.at > c.now {
			c.now = w.at
		}
		c.busy++ // transfer a busy slot to the woken goroutine
		w.release()
		return stepWake, nil
	}
	if nextDispatch >= 0 {
		// The bound may be an upper-wheel slot boundary rather than an
		// exact event instant; advancing to it and running the (possibly
		// empty) batch lets the wheel flatten that slot into its run,
		// which makes the next bound exact.
		if nextDispatch > c.now {
			c.now = nextDispatch
		}
		return stepDispatch, dispSrc
	}
	return stepIdle, nil
}
