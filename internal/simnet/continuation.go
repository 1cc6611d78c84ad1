package simnet

import "time"

// Continuation is a self-addressed dispatch endpoint: After schedules
// fn(arg) to run on the network's delivery thread d from now, exactly
// like a delivery to a handler-mode conn — a wheel event ordered with
// every other same-instant event by (instant, endpoint ID, scheduling
// order) — and at steady state scheduling one allocates nothing. It is
// how an actor that lives in handlers waits for time to pass without a
// goroutine to park: a protocol timer, a modeled service time, a
// connection's arrival at a listener.
//
// fn runs under the handler contract (DESIGN.md §14): it must not block
// on the clock, and it wakes goroutines only through a simnet write or
// a Mailbox.Put. Unlike a conn's deliveries, an endpoint's continuation
// events are not FIFO: each fires at its own instant, so a short wait
// scheduled after a long one fires first.
// Continuation events are not counted as ExecStats.HandlerDispatches.
type Continuation struct{ dc *dconn }

// NewContinuation registers a continuation endpoint on the network. The
// endpoint's ID — its rank among same-instant events — is assigned
// here, in registration order with conn handlers.
func (n *Network) NewContinuation(fn func(arg uint64)) *Continuation {
	dc := n.dispatcherFor().register(new(dconn))
	dc.cont = fn
	return &Continuation{dc: dc}
}

// After schedules fn(arg) at now+d (d <= 0: as soon as the delivery
// thread is free, still at the current instant).
func (c *Continuation) After(d time.Duration, arg uint64) {
	c.dc.d.sendArg(c.dc, nil, nil, arg, d)
}

// Stop drops every event still scheduled and refuses new ones.
func (c *Continuation) Stop() { c.dc.d.markClosed(c.dc) }
