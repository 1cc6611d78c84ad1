package exp

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"dlte/internal/core"
	"dlte/internal/leaktest"
	"dlte/internal/mobility"
	"dlte/internal/simnet"
	"dlte/internal/ue"
)

// benchHandoverWorld builds a 2-AP cooperative world with n UEs parked
// at the cell-edge midpoint, radio to both cells, all attached at ap1.
// Returns a teardown-free scenario (caller closes) plus the devices.
func benchHandoverWorld(b testing.TB, n int) *handoverBench {
	b.Helper()
	m := mobility.NewMeter()
	s, aps, err := newMobilityWorld(2, 1.0, 42, m)
	if err != nil {
		b.Fatal(err)
	}
	if err := associate(s, aps); err != nil {
		s.Close()
		b.Fatal(err)
	}
	hb := &handoverBench{s: s, aps: aps, m: m}
	mid := aps[0].Position().Add(500, 0)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("ho%d", i)
		d, _, err := attachNewUE(s, aps[0], name, imsiFor(77, i+1), 0.5)
		if err != nil {
			s.Close()
			b.Fatal(err)
		}
		// Radio to the neighbor too, so the ping-pong never has to
		// re-plumb the air interface inside the timed region.
		if err := s.ConnectUERadio(name, aps[1].ID(), mid); err != nil {
			s.Close()
			b.Fatal(err)
		}
		hb.ues = append(hb.ues, d)
	}
	return hb
}

type handoverBench struct {
	s   *core.Scenario
	aps []*core.AccessPoint
	m   *mobility.Meter
	ues []*ue.Device
}

// BenchmarkHandover prices the mobility plane end to end on the real
// stack (DESIGN.md §12): X2 prepare/ack choreography, break-before-make
// NAS re-attach, GTP TEID re-point, transport path migration, and the
// complete/retire exchange.
//
//   - single: one UE ping-pongs between the two APs; each op is one
//     full prepared handover arc.
//   - storm: a 16-UE population hands over in one wave per op —
//     prepare all, move all, complete all — the mobility-plane
//     analogue of epc's BenchmarkAttachStorm.
func BenchmarkHandover(b *testing.B) {
	b.Run("single", func(b *testing.B) {
		hb := benchHandoverWorld(b, 1)
		defer hb.s.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src, dst := hb.aps[i%2], hb.aps[(i+1)%2]
			if _, err := probeHandover(hb.s, src, dst, hb.ues[0], hb.m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("storm", func(b *testing.B) {
		const pop = 16
		hb := benchHandoverWorld(b, pop)
		defer hb.s.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src, dst := hb.aps[i%2], hb.aps[(i+1)%2]
			for j, d := range hb.ues {
				// Mid-wave the source still holds the UEs that have
				// not moved yet, so settle on the per-UE count, not 0.
				if err := benchArc(hb, src, dst, d, pop-1-j); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// arcAllocsBound bounds the allocations of one prepared handover arc
// (BenchmarkHandover/single's op): 1.1× the 49 it measured once the X2
// receive path decoded in place and the mobility plane's sends and
// records stopped allocating. What is left is session state — the
// gateway session and its TEIDs, the S1 and NAS contexts, the UE's new
// air conn, the imported subscriber — and the meter's record. Before
// that change an arc cost 81. Allocation counts do not depend on the
// machine, so the bound means the same on any host.
const arcAllocsBound = 54

// TestHandoverArcAllocs runs prepared handover arcs between two APs,
// one UE ping-ponging, and bounds the allocations per arc. The
// collector is off and GOMAXPROCS is 1, so no pool is emptied or
// missed mid-run.
func TestHandoverArcAllocs(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("the race detector's shadow allocations inflate the count")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	hb := benchHandoverWorld(t, 1)
	defer hb.s.Close()
	arcs := 0
	run := func(n int) {
		for end := arcs + n; arcs < end; arcs++ {
			src, dst := hb.aps[arcs%2], hb.aps[(arcs+1)%2]
			if _, err := probeHandover(hb.s, src, dst, hb.ues[0], hb.m); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(4) // both directions, twice: every pool and scratch message is warm
	const n = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(n)
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.2f allocs per handover arc, bound %d", got, arcAllocsBound)
	if got > arcAllocsBound {
		t.Errorf("a handover arc allocates %.2f times, want at most %d", got, arcAllocsBound)
	}
}

// benchArc is probeHandover with a population-aware settle condition:
// after this UE completes, the source must be down to `remaining`
// sessions (probeHandover insists on 0, which only fits a lone UE).
func benchArc(hb *handoverBench, src, dst *core.AccessPoint, d *ue.Device, remaining int) error {
	imsi := d.IMSI()
	vc := hb.s.Clock().(*simnet.VirtualClock)
	edge := src.Position().DistanceTo(dst.Position()) / 2
	if err := src.Mobility.Prepare(dst.ID(), d.Publication(), scenRSRP(edge)); err != nil {
		return err
	}
	if !vc.WaitUntil(5*time.Second, func() bool {
		return src.Mobility.State(imsi) == mobility.StatePrepared
	}) {
		return fmt.Errorf("storm: prepare %s→%s stuck in %v", src.ID(), dst.ID(), src.Mobility.State(imsi))
	}
	start := vc.Now()
	hr, err := d.Handover(dst.AirAddr(), 15*time.Second)
	if err != nil {
		return fmt.Errorf("storm: handover %s→%s: %w", src.ID(), dst.ID(), err)
	}
	hb.m.InterruptionStart(imsi, start)
	hb.m.InterruptionEnd(imsi, start.Add(hr.Interruption))
	hb.m.AddNAS(imsi, hr.SignalingBytes)
	if err := dst.Mobility.NotifyComplete(src.ID(), imsi); err != nil {
		return err
	}
	if !vc.WaitUntil(5*time.Second, func() bool {
		return src.Mobility.State(imsi) == mobility.StateCompleted &&
			src.Core.Gateway().NumSessions() == remaining
	}) {
		return fmt.Errorf("storm: complete %s→%s never settled", src.ID(), dst.ID())
	}
	return nil
}
