package epc_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"dlte/internal/auth"
	"dlte/internal/enb"
	"dlte/internal/epc"
	"dlte/internal/simnet"
	"dlte/internal/ue"
)

// TestIdleSessionWorldFootprint measures the core+eNB-side heap
// retained per idle registered UE: each UE attaches through the real
// signaling stack and its Device is then closed, so what remains is
// exactly the state the network keeps for a quiescent subscriber
// (EPC session + GTP tunnel + gateway NAT entry + HSS record + simnet
// host). Measured as a marginal slope between two population sizes so
// fixed world overhead cancels. This is the regression tripwire for
// per-session retention on the network side; the per-session NAS
// number is pinned separately in internal/nas, and compact (SoA)
// idle UEs are priced by internal/exp BenchmarkIdleWorld.
func TestIdleSessionWorldFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement; skipped in -short")
	}
	net := simnet.NewVirtualNetwork(simnet.Link{}, 1)
	defer net.Close()
	coreHost := net.MustAddHost("core")
	core, err := epc.NewCore(coreHost, epc.Config{
		Name: "idle-core", TAC: 7, DirectBreakout: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer core.Close()
	l, err := coreHost.Listen(epc.S1APPort)
	if err != nil {
		t.Fatal(err)
	}
	core.ServeS1AP(l)
	apHost := net.MustAddHost("ap0")
	e, err := enb.New(apHost, enb.Config{
		ID: 1, TAC: 7,
		MMEAddr: fmt.Sprintf("%s:%d", coreHost.Name(), epc.S1APPort),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	attachBatch := func(from, to int) {
		for i := from; i < to; i++ {
			imsi := auth.IMSI(fmt.Sprintf("00101%010d", i))
			sim, serr := auth.NewSIM(imsi)
			if serr != nil {
				t.Fatal(serr)
			}
			if perr := core.Provision(sim); perr != nil {
				t.Fatal(perr)
			}
			ueHost := net.MustAddHost("ue-" + string(imsi))
			d, derr := ue.NewDevice(ueHost, sim)
			if derr != nil {
				t.Fatal(derr)
			}
			if _, aerr := d.Attach(e.AirAddr(), 30*time.Second); aerr != nil {
				t.Fatalf("attach %d: %v", i, aerr)
			}
			d.Close() // the session idles on without its Device
		}
	}

	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}

	const n1, n2 = 128, 512
	attachBatch(0, n1)
	h1 := heap()
	attachBatch(n1, n2)
	h2 := heap()
	perUE := float64(h2-h1) / float64(n2-n1)
	t.Logf("idle registered UE ≈ %.0f B retained on the network side", perUE)
	// CI-safe bound ~6x the measured ~1.4 KB: the budget is dominated
	// by the simnet host and GTP/NAT entries, not the NAS session
	// (~0.7 KB, pinned in internal/nas).
	if perUE > 8*1024 {
		t.Errorf("network retains %.0f B per idle UE, want ≤ 8KiB", perUE)
	}
}
