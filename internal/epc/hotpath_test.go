package epc

import (
	"testing"

	"dlte/internal/simnet"
)

// These are the allocation gates for the per-attach hot path: the
// deterministic gate runs on every signaling message. The FSM
// transition itself is gated to zero allocations in the session
// package (TestFireNoAllocs).

func newHotpathCore(t *testing.T) *Core {
	t.Helper()
	n := simnet.NewVirtualNetwork(simnet.Link{}, 1)
	t.Cleanup(n.Close)
	c, err := NewCore(n.MustAddHost("core"), Config{Name: "hot", TAC: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestGateRunAllocBound pins the deterministic gate's steady-state
// cost at zero: entering, being admitted (through the
// registration-window tick event) and releasing allocate nothing once
// the queue exists (the entrant's continuation is a func value bound
// once per association, as enbConn does). A pass's only allocations
// are the test's own Sleep.
func TestGateRunAllocBound(t *testing.T) {
	ran := 0
	var g *detGate
	admit := func() { ran++; g.release() }

	vn := simnet.NewVirtualNetwork(simnet.Link{}, 1)
	t.Cleanup(vn.Close)
	g = &detGate{}
	g.init(vn.MustAddHost("core"), 1)
	clk := vn.Clock()
	pass := func() {
		g.enter("actor", admit)
		clk.Sleep(2 * gateEpsilon) // past the window: the tick has run
	}
	pass()
	before := ran
	if got := testing.AllocsPerRun(200, pass); got > 2 { // the Sleep's waiter and wake channel
		t.Errorf("virtual-clock gate pass allocates %v per run, want ≤ 2 (the test's own Sleep)", got)
	}
	if ran-before < 200 {
		t.Errorf("admitted %d of ≥200 entrants", ran-before)
	}
}
