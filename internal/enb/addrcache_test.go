package enb

import (
	"net"
	"testing"
	"time"

	"dlte/internal/epc"
	"dlte/internal/s1ap"
	"dlte/internal/simnet"
)

// TestSGWAddrCache runs the eNodeB's InitialContextSetupRequest handler
// with the gateway address in a buffer the test owns. The eNodeB caches
// the parsed address by its bytes: scribbling over the frame after the
// handler returns leaves the cached address intact, another gateway's
// address is parsed and becomes the cached one, and a malformed address
// sets up no tunnel, every time, and displaces nothing.
func TestSGWAddrCache(t *testing.T) {
	n := simnet.NewVirtualNetwork(simnet.Link{}, 1)
	defer n.Close()
	coreHost := n.MustAddHost("core")
	core, err := epc.NewCore(coreHost, epc.Config{Name: "core", TAC: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer core.Close()
	l, err := coreHost.Listen(epc.S1APPort)
	if err != nil {
		t.Fatal(err)
	}
	core.ServeS1AP(l)
	e, err := New(n.MustAddHost("ap"), Config{ID: 1, TAC: 7, MMEAddr: "core:36412"})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ueHost := n.MustAddHost("ue")
	for i := 0; i < 4; i++ {
		if _, err := ueHost.Dial(e.AirAddr()); err != nil {
			t.Fatal(err)
		}
	}
	if !n.Clock().(*simnet.VirtualClock).WaitUntil(time.Second, func() bool { return e.NumUEs() == 4 }) {
		t.Fatalf("%d radio contexts, want 4", e.NumUEs())
	}
	setup := func(id uint32, sgw []byte) {
		e.handleS1(&s1ap.MsgView{Type: s1ap.TypeInitialContextSetupRequest, ENBUEID: id, MMEUEID: id, SGWAddr: sgw, SGWTEID: 100 + id})
	}
	cached := func(want string) {
		t.Helper()
		key := []byte(want)
		var got net.Addr
		if n := testing.AllocsPerRun(20, func() { got, _ = e.sgw.Parse(key) }); n != 0 || got == nil || got.String() != want {
			t.Fatalf("cache holds %v (%v allocs to look %s up), want %s at no allocation", got, n, want, want)
		}
	}

	frame := []byte("core:2152")
	setup(1, frame)
	for i := range frame {
		frame[i] = 'x'
	}
	cached("core:2152")
	if e.NumTunnels() != 2 {
		t.Fatalf("%d tunnels after one context setup, want 2", e.NumTunnels())
	}

	setup(2, []byte("core2:2152"))
	cached("core2:2152")
	for i := 0; i < 3; i++ {
		setup(3, []byte("core2"))
		if e.NumTunnels() != 4 {
			t.Fatalf("malformed gateway address: %d tunnels, want 4", e.NumTunnels())
		}
	}
	cached("core2:2152")
	setup(4, []byte("core2:2152"))
	if e.NumTunnels() != 6 {
		t.Fatalf("%d tunnels after three context setups, want 6", e.NumTunnels())
	}
}
