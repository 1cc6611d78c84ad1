package exp

import (
	"fmt"
	"sync"
	"time"

	"dlte/internal/auth"
	"dlte/internal/enb"
	"dlte/internal/epc"
	"dlte/internal/metrics"
	"dlte/internal/simnet"
	"dlte/internal/ue"
)

// E2b saturates the user plane: N UEs stream windowed echo traffic
// concurrently through (a) a dLTE stub core with direct breakout at
// the AP and (b) a telecom EPC whose GTP tunnel hauls every packet
// across a WAN. Virtual time makes the throughput numbers exact and
// reproducible: each UE's flow rides disjoint bandwidth-limited links,
// so delivery instants — and therefore packets/second — are functions
// of the topology alone, not of host scheduling. The CPU-side cost of
// the same fast path (ns/packet, allocs/packet) is measured by the
// benchmarks in internal/gtp and internal/epc (see EXPERIMENTS.md E2b
// methodology), which keeps this table byte-identical across runs.

// E2bResult quantifies data-plane saturation for both architectures.
type E2bResult struct {
	Table *metrics.Table
	// AggregatePktsPerSec maps (tunneled, nUE) to aggregate delivered
	// packets per virtual second; keys are "dlte-N" / "telecom-N".
	AggregatePktsPerSec map[string]float64
	// Drops is the total user-plane drops observed across all runs
	// (expected 0; nonzero would flag an overrun or decode bug).
	Drops uint64
}

// e2bPackets is the per-UE echo count (round trips) per run.
const (
	e2bPackets      = 200
	e2bPacketsQuick = 60
	e2bWindow       = 8
	e2bPayloadBytes = 512
)

// e2bRun holds one (architecture, N) world's measurements.
type e2bRun struct {
	tunneled bool
	nUE      int
	// elapsed is the longest per-UE virtual duration from first send
	// to last echo received.
	elapsed time.Duration
	// delivered and sent sum across UEs.
	delivered, sent int
	drops           epc.UserPlaneDrops
}

// RunE2b measures user-plane saturation (data-plane companion to E2's
// RTT comparison): tunneled EPC vs direct breakout under N concurrent
// bulk flows.
func RunE2b(opt Options) (E2bResult, error) {
	res := E2bResult{AggregatePktsPerSec: make(map[string]float64)}
	ueCounts := []int{1, 4, 16}
	packets := e2bPackets
	if opt.Quick {
		ueCounts = []int{1, 4}
		packets = e2bPacketsQuick
	}

	runs := make([]e2bRun, 0, 2*len(ueCounts))
	for _, tunneled := range []bool{false, true} {
		for _, n := range ueCounts {
			runs = append(runs, e2bRun{tunneled: tunneled, nUE: n})
		}
	}
	err := forEachWorld(opt, len(runs), func(i int) error {
		r := &runs[i]
		return e2bWorld(r, packets, opt.Seed+int64(i)*1000)
	})
	if err != nil {
		return res, err
	}

	t := metrics.NewTable("E2b — user-plane saturation: direct breakout vs EPC tunnel",
		"architecture", "UEs", "pkts offered", "delivered", "delivery %", "agg pkts/s", "agg Mbps", "drops")
	for _, r := range runs {
		arch, key := "dLTE (breakout)", fmt.Sprintf("dlte-%d", r.nUE)
		if r.tunneled {
			arch, key = "telecom LTE", fmt.Sprintf("telecom-%d", r.nUE)
		}
		pps := float64(r.delivered) / r.elapsed.Seconds()
		res.AggregatePktsPerSec[key] = pps
		res.Drops += r.drops.Total()
		t.AddRow(arch, r.nUE, r.sent, r.delivered,
			100*float64(r.delivered)/float64(r.sent),
			pps, pps*e2bPayloadBytes*8/1e6, r.drops.Total())
	}
	res.Table = t
	opt.emit(t)
	return res, nil
}

// e2bWorld builds one architecture world, attaches r.nUE UEs, streams
// the windowed echo load concurrently, and records the result into r.
//
// Determinism: every UE gets its own air link and its own echo host,
// so no two flows share a bandwidth-limited (stateful) link — shared
// segments (AP↔EPC WAN, breakout hops) carry latency only. Per-flow
// delivery times then depend only on the topology and the virtual
// clock, regardless of how the runtime schedules the UE goroutines.
func e2bWorld(r *e2bRun, packets int, seed int64) error {
	n := simnet.NewVirtualNetwork(defaultWAN, seed)
	defer n.Close()

	ap, err := n.AddHost("ap")
	if err != nil {
		return err
	}
	coreHost := ap
	if r.tunneled {
		coreHost, err = n.AddHost("epc")
		if err != nil {
			return err
		}
		n.SetLink("ap", "epc", simnet.Link{Latency: 40 * time.Millisecond})
	}
	core, err := epc.NewCore(coreHost, epc.Config{
		Name: "e2b-core", TAC: 7, DirectBreakout: !r.tunneled,
	})
	if err != nil {
		return err
	}
	defer core.Close()
	l, err := coreHost.Listen(epc.S1APPort)
	if err != nil {
		return err
	}
	core.ServeS1AP(l)

	site, err := enb.New(ap, enb.Config{
		ID: 1, TAC: 7, MMEAddr: fmt.Sprintf("%s:%d", coreHost.Name(), epc.S1APPort),
	})
	if err != nil {
		return err
	}
	defer site.Close()

	type flow struct {
		dev  *ue.Device
		sink string
	}
	flows := make([]flow, r.nUE)
	for i := range flows {
		sim, err := auth.NewSIM(imsiFor(21, i+1))
		if err != nil {
			return err
		}
		if err := core.Provision(sim); err != nil {
			return err
		}
		ueHost, err := n.AddHost(fmt.Sprintf("ue%d", i))
		if err != nil {
			return err
		}
		// The air leg is each flow's bandwidth bottleneck; it is private
		// to the UE, so its serialization state is flow-local.
		n.SetLink(ueHost.Name(), "ap", simnet.Link{
			Latency: 2 * time.Millisecond, BandwidthBps: 20e6,
		})
		sinkName := fmt.Sprintf("ott%d", i)
		echo, err := newEcho(n, sinkName, 9000)
		if err != nil {
			return err
		}
		defer echo.Close()
		dev, err := ue.NewDevice(ueHost, sim)
		if err != nil {
			return err
		}
		defer dev.Close()
		if _, err := dev.Attach(site.AirAddr(), 30*time.Second); err != nil {
			return fmt.Errorf("e2b attach ue%d: %w", i, err)
		}
		flows[i] = flow{dev: dev, sink: sinkName + ":9000"}
	}

	clk := n.Clock()
	payload := make([]byte, e2bPayloadBytes)
	var (
		mu      sync.Mutex
		longest time.Duration
		okTotal int
		firstE  error
	)
	g := newGroup(clk)
	for i := range flows {
		f := flows[i]
		g.spawn(func() {
			got, took, err := e2bStream(f.dev, f.sink, payload, packets)
			mu.Lock()
			defer mu.Unlock()
			okTotal += got
			if took > longest {
				longest = took
			}
			if err != nil && firstE == nil {
				firstE = err
			}
		})
	}
	g.wait()
	if firstE != nil {
		return firstE
	}

	r.sent = r.nUE * packets
	r.delivered = okTotal
	r.elapsed = longest
	r.drops = core.Stats().UserPlaneDrops
	return nil
}

// e2bStream pushes `packets` echo round trips through the bearer with
// at most e2bWindow requests in flight, returning the delivered count
// and the virtual time from first send to last echo.
func e2bStream(dev *ue.Device, sink string, payload []byte, packets int) (int, time.Duration, error) {
	bc := dev.Bearer()
	defer bc.Close()
	addr, err := simnet.ParseAddr(sink)
	if err != nil {
		return 0, 0, err
	}
	clk := bc.Clock()
	start := clk.Now()
	buf := make([]byte, 2*e2bPayloadBytes)
	sent, recvd := 0, 0
	for recvd < packets {
		for sent < packets && sent-recvd < e2bWindow {
			if _, err := bc.WriteTo(payload, addr); err != nil {
				return recvd, clk.Since(start), err
			}
			sent++
		}
		bc.SetReadDeadline(clk.Now().Add(10 * time.Second))
		if _, _, err := bc.ReadFrom(buf); err != nil {
			// A lost window would stall the whole stream; report how far
			// it got rather than failing the run.
			return recvd, clk.Since(start), nil
		}
		recvd++
	}
	return recvd, clk.Since(start), nil
}
