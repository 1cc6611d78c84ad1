package epc_test

import (
	"fmt"
	"testing"
	"time"

	"dlte/internal/auth"
	"dlte/internal/enb"
	"dlte/internal/epc"
	"dlte/internal/simnet"
	"dlte/internal/ue"
)

// TestSupersedeLeaksNothing moves UEs back and forth between two
// eNodeBs of one core. "slow" sits 100 ms from the core and "fast" next
// to it, so a UE that leaves slow attaches at fast before slow's release
// request lands: the new attach supersedes a session the core still
// holds (the gateway's supersede path), and the late release no longer
// owns the IMSI. A UE that leaves fast is released before it re-attaches
// at slow. Once each round settles, every per-UE table must read what it
// read after the first round. A round at slow settles while the last
// UE's AttachComplete is still on the slow link, so in the round at fast
// after it the superseded session completes after its successor; once
// that round's stale AttachCompletes have landed, the core must know the
// GUTI each UE holds. After every UE detaches (the last round is at
// fast) the tables are empty and the core's sockets are back to what it
// held before any attach.
func TestSupersedeLeaksNothing(t *testing.T) {
	net := simnet.NewVirtualNetwork(simnet.Link{}, 1)
	t.Cleanup(net.Close)
	vc := net.Clock().(*simnet.VirtualClock)
	coreHost := net.MustAddHost("core")
	core, err := epc.NewCore(coreHost, epc.Config{Name: "core", TAC: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(core.Close)
	l, err := coreHost.Listen(epc.S1APPort)
	if err != nil {
		t.Fatal(err)
	}
	core.ServeS1AP(l)
	net.SetLink("slow", "core", simnet.Link{Latency: 100 * time.Millisecond})
	var enbs []*enb.ENodeB
	for i, name := range []string{"slow", "fast"} {
		e, err := enb.New(net.MustAddHost(name), enb.Config{ID: uint32(i + 1), TAC: 7, MMEAddr: "core:36412"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		enbs = append(enbs, e)
	}
	const n = 4
	var ues []*ue.Device
	for i := 0; i < n; i++ {
		sim, err := auth.NewSIM(auth.IMSI(fmt.Sprintf("0010100000003%02d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := core.Provision(sim); err != nil {
			t.Fatal(err)
		}
		d, err := ue.NewDevice(net.MustAddHost(fmt.Sprintf("ue%d", i)), sim)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		ues = append(ues, d)
	}

	type tables struct {
		epc.Tables
		tunnels, sessions, sockets, radio, conns int
	}
	read := func() tables {
		u := tables{Tables: core.Tables(), sessions: core.Gateway().NumSessions(), sockets: coreHost.NumPacketConns(), conns: net.NumConns()}
		u.tunnels = core.Gateway().NumTunnels()
		for _, e := range enbs {
			u.tunnels += e.NumTunnels()
			u.radio += e.NumUEs()
		}
		return u
	}
	settle := func(what string, want tables) {
		t.Helper()
		if !vc.WaitUntil(5*time.Second, func() bool { return read() == want }) {
			t.Fatalf("%s: tables %+v, want %+v", what, read(), want)
		}
	}
	gutis := make([]uint64, n)
	attaches := uint64(0)
	attachAll := func(e *enb.ENodeB) {
		t.Helper()
		for i, d := range ues {
			res, err := d.Attach(e.AirAddr(), 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			gutis[i] = res.GUTI
		}
		attaches += n
	}
	// landed waits until the core has counted every AttachComplete sent,
	// a superseded session's included.
	landed := func(what string) {
		t.Helper()
		if !vc.WaitUntil(5*time.Second, func() bool { return core.Stats().Attaches == attaches }) {
			t.Fatalf("%s: the core counted %d attaches, want %d", what, core.Stats().Attaches, attaches)
		}
	}
	knowsGUTIs := func(what string) {
		t.Helper()
		for i, g := range gutis {
			if !core.KnownGUTI(g) {
				t.Fatalf("%s: the core does not know UE %d's GUTI %#x", what, i, g)
			}
		}
	}

	idle := read()
	attachAll(enbs[0])
	landed("first round")
	one := read()
	knowsGUTIs("first round")
	if one.Contexts != n || one.Registered != n || one.GUTIs != n || one.sessions != n || one.radio != n ||
		one.tunnels != 3*n || one.sockets != idle.sockets+n || one.conns != idle.conns+2*n {
		t.Fatalf("after %d attaches: %+v (before any: %+v)", n, one, idle)
	}
	for k := 2; k <= 6; k++ {
		to := enbs[(k+1)%2]
		attachAll(to)
		if to == enbs[1] {
			// Every UE attached at fast while slow's releases were in
			// flight: the core held both contexts of each UE.
			if got := core.Tables().Contexts; got != 2*n {
				t.Fatalf("round %d: %d S1 contexts as the attaches at fast returned, want %d (old and new)", k, got, 2*n)
			}
		}
		what := fmt.Sprintf("after round %d", k)
		settle(what, one)
		if to == enbs[1] {
			// Not after a round at slow: waiting for its last
			// AttachComplete would take the race out of the next round.
			landed(what)
			settle(what, one)
			knowsGUTIs(what)
		}
	}
	for _, d := range ues {
		if err := d.Detach(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	settle("after every UE detached", tables{sockets: idle.sockets, conns: idle.conns})
}
