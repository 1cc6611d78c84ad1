package epc_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dlte/internal/auth"
	"dlte/internal/enb"
	"dlte/internal/epc"
	"dlte/internal/simnet"
	"dlte/internal/ue"
)

// stormBed is a zero-latency world sized for throughput benchmarking:
// one core, several eNodeBs (each its own S1AP association), and a
// population of provisioned UEs. With no modeled link latency or
// processing delay, virtual time stands still and wall time measures
// the signaling stack's real CPU cost.
type stormBed struct {
	net *simnet.Network
	ues []*ue.Device
	air []string // air address per UE
}

func newStormBed(b testing.TB, nENB, uesPerENB int) *stormBed {
	b.Helper()
	return newStormBedOn(b, simnet.NewVirtualNetwork(simnet.Link{}, 1), nENB, uesPerENB)
}

// newStormBedOn builds the storm world on net, whose clock the calling
// goroutine must drive.
func newStormBedOn(b testing.TB, net *simnet.Network, nENB, uesPerENB int) *stormBed {
	b.Helper()
	sb := &stormBed{net: net}
	coreHost := sb.net.MustAddHost("core")
	core, err := epc.NewCore(coreHost, epc.Config{
		Name: "bench-core", TAC: 7, DirectBreakout: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	l, err := coreHost.Listen(epc.S1APPort)
	if err != nil {
		b.Fatal(err)
	}
	core.ServeS1AP(l)
	b.Cleanup(func() {
		core.Close()
		sb.net.Close()
	})

	for i := 0; i < nENB; i++ {
		apHost := sb.net.MustAddHost(fmt.Sprintf("ap%d", i))
		e, err := enb.New(apHost, enb.Config{
			ID: uint32(i + 1), TAC: 7,
			MMEAddr: fmt.Sprintf("%s:%d", coreHost.Name(), epc.S1APPort),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(e.Close)
		for j := 0; j < uesPerENB; j++ {
			imsi := auth.IMSI(fmt.Sprintf("00101%010d", i*100+j))
			sim, err := auth.NewSIM(imsi)
			if err != nil {
				b.Fatal(err)
			}
			if err := core.Provision(sim); err != nil {
				b.Fatal(err)
			}
			ueHost := sb.net.MustAddHost("ue-" + string(imsi))
			d, err := ue.NewDevice(ueHost, sim)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(d.Close)
			sb.ues = append(sb.ues, d)
			sb.air = append(sb.air, e.AirAddr())
		}
	}
	return sb
}

// storm re-attaches every UE concurrently (re-attach without detach
// supersedes, so each round exercises the full attach path).
func (sb *stormBed) storm(b *testing.B) {
	clk := sb.net.Clock()
	var wg sync.WaitGroup
	errs := make(chan error, len(sb.ues))
	for i, d := range sb.ues {
		wg.Add(1)
		air := sb.air[i]
		clk.Go(func() {
			defer wg.Done()
			if _, err := d.Attach(air, 30*time.Second); err != nil {
				errs <- err
			}
		})
	}
	clk.Block()
	wg.Wait()
	clk.Unblock()
	select {
	case err := <-errs:
		b.Fatalf("attach: %v", err)
	default:
	}
}

// BenchmarkAttachStorm measures attach-storm throughput: 8 eNodeB
// associations × 4 UEs re-attach concurrently per iteration.
func BenchmarkAttachStorm(b *testing.B) {
	sb := newStormBed(b, 8, 4)
	sb.storm(b) // warm: first attach allocates sessions and tunnels
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb.storm(b)
	}
}
