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

// stormBed is a real-clock, zero-latency world sized for throughput
// benchmarking: one core, several eNodeBs (each its own S1AP
// association), and a population of provisioned UEs. With no modeled
// link latency or processing delay, wall time measures the signaling
// stack's real CPU cost — the thing session sharding parallelizes.
// The shard sweep only spreads when GOMAXPROCS > 1; on a single-CPU
// runner all shard counts serialize onto one core and measure flat.
type stormBed struct {
	net *simnet.Network
	ues []*ue.Device
	air []string // air address per UE
}

func newStormBed(b testing.TB, shards, nENB, uesPerENB int) *stormBed {
	b.Helper()
	return newStormBedOn(b, simnet.New(simnet.Link{}, 1), shards, nENB, uesPerENB)
}

// newStormBedOn builds the storm world on net (whose creator must be
// the calling goroutine when it runs a virtual clock).
func newStormBedOn(b testing.TB, net *simnet.Network, shards, nENB, uesPerENB int) *stormBed {
	b.Helper()
	sb := &stormBed{net: net}
	coreHost := sb.net.MustAddHost("core")
	core, err := epc.NewCore(coreHost, epc.Config{
		Name: "bench-core", TAC: 7, DirectBreakout: true,
		Shards: shards,
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
	var wg sync.WaitGroup
	errs := make(chan error, len(sb.ues))
	for i, d := range sb.ues {
		wg.Add(1)
		go func(d *ue.Device, air string) {
			defer wg.Done()
			if _, err := d.Attach(air, 30*time.Second); err != nil {
				errs <- err
			}
		}(d, sb.air[i])
	}
	wg.Wait()
	select {
	case err := <-errs:
		b.Fatalf("attach: %v", err)
	default:
	}
}

// BenchmarkAttachStorm measures attach-storm throughput at increasing
// session-shard counts: 8 eNodeB associations × 4 UEs re-attach
// concurrently per iteration. On a multi-core machine, higher shard
// counts admit more sessions' signaling in parallel; results are
// identical regardless (sharding is keyed on IMSI/GUTI, and each UE's
// state machine is served serially either way).
func BenchmarkAttachStorm(b *testing.B) {
	for _, shards := range []int{1, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sb := newStormBed(b, shards, 8, 4)
			sb.storm(b) // warm: first attach allocates sessions and tunnels
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sb.storm(b)
			}
		})
	}
}
