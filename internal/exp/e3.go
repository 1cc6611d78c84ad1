package exp

import (
	"fmt"
	"sync"
	"time"

	"dlte/internal/baseline"
	"dlte/internal/core"
	"dlte/internal/geo"
	"dlte/internal/metrics"
	"dlte/internal/radio"
	"dlte/internal/simnet"
	"dlte/internal/ue"
	"dlte/internal/x2"
)

// E3Result quantifies §4.1's scaling claim: one stub per AP scales
// naturally with AP count, while a shared centralized EPC's signaling
// processor saturates.
type E3Result struct {
	Table *metrics.Table
	// ProcTable is the E3b sweep: the centralized core at MaxAPs with a
	// sharded MME serving 1, 4, and 8 signaling messages in parallel.
	ProcTable *metrics.Table
	// P99ByArch maps "dlte"/"central" → AP count → p99 attach ms.
	P99ByArch map[string]map[int]float64
	// ShardedP99ByProcs maps signaling-processor count → p99 attach ms
	// for the centralized core at MaxAPs (the E3b sweep).
	ShardedP99ByProcs map[int]float64
	// Largest N swept.
	MaxAPs int
}

// e3ProcDelay is the modeled per-message core processing time; both
// architectures get identical processors — dLTE just has one per AP.
const e3ProcDelay = 2 * time.Millisecond

// uesPerAP is the attach-storm size per site.
const uesPerAP = 3

// e3ProcSweep is the E3b signaling-processor counts swept on the
// centralized core at MaxAPs. K=1 is the classic single-threaded MME;
// larger K models a sharded MME draining K messages concurrently.
var e3ProcSweep = []int{1, 4, 8}

// RunE3 runs simultaneous attach storms against dLTE stubs and a
// shared centralized EPC at increasing AP counts, then sweeps the
// centralized core's signaling-processor count at the largest storm
// (E3b): sharding the MME recovers some headroom, but the shared core
// remains the serialization point dLTE removes entirely.
func RunE3(opt Options) (E3Result, error) {
	res := E3Result{
		P99ByArch:         map[string]map[int]float64{"dlte": {}, "central": {}},
		ShardedP99ByProcs: map[int]float64{},
	}
	apCounts := []int{1, 2, 4, 8}
	if opt.Quick {
		apCounts = []int{1, 4}
	}
	res.MaxAPs = apCounts[len(apCounts)-1]

	t := metrics.NewTable("E3 — §4.1: local-core scaling under attach storms",
		"architecture", "APs", "UEs", "attach p50 ms", "attach p99 ms", "core msgs")

	// Each (architecture, AP count) point is an independent world, and
	// so is each E3b processor count; run them all concurrently and
	// render rows index-ordered afterwards. Index layout:
	// [0, len(apCounts)) dLTE storms, [len, 2*len) central storms,
	// [2*len, 2*len+len(e3ProcSweep)) E3b processor sweep at MaxAPs.
	type point struct {
		p50, p99 float64
		msgs     uint64
	}
	pts := make([]point, 2*len(apCounts)+len(e3ProcSweep))
	err := forEachWorld(opt, len(pts), func(i int) error {
		var (
			p point
			e error
		)
		switch {
		case i < len(apCounts):
			nAP := apCounts[i]
			p.p50, p.p99, p.msgs, e = runDLTEStorm(nAP, opt.Seed)
			if e != nil {
				return fmt.Errorf("E3 dlte n=%d: %w", nAP, e)
			}
		case i < 2*len(apCounts):
			nAP := apCounts[i-len(apCounts)]
			p.p50, p.p99, p.msgs, e = runCentralStorm(nAP, opt.Seed, 1)
			if e != nil {
				return fmt.Errorf("E3 central n=%d: %w", nAP, e)
			}
		default:
			procs := e3ProcSweep[i-2*len(apCounts)]
			p.p50, p.p99, p.msgs, e = runCentralStorm(res.MaxAPs, opt.Seed, procs)
			if e != nil {
				return fmt.Errorf("E3b central k=%d: %w", procs, e)
			}
		}
		pts[i] = p
		return nil
	})
	if err != nil {
		return res, err
	}
	for i, nAP := range apCounts {
		res.P99ByArch["dlte"][nAP] = pts[i].p99
		t.AddRow("dLTE stubs", nAP, nAP*uesPerAP, pts[i].p50, pts[i].p99, pts[i].msgs)
	}
	for i, nAP := range apCounts {
		p := pts[len(apCounts)+i]
		res.P99ByArch["central"][nAP] = p.p99
		t.AddRow("telecom LTE", nAP, nAP*uesPerAP, p.p50, p.p99, p.msgs)
	}
	res.Table = t

	pt := metrics.NewTable("E3b — sharded MME: attach storm vs signaling processors",
		"architecture", "signaling procs", "APs", "UEs", "attach p50 ms", "attach p99 ms")
	for i, procs := range e3ProcSweep {
		p := pts[2*len(apCounts)+i]
		res.ShardedP99ByProcs[procs] = p.p99
		pt.AddRow("telecom LTE (sharded MME)", procs, res.MaxAPs, res.MaxAPs*uesPerAP, p.p50, p.p99)
	}
	// The comparison row: dLTE at the same storm size, where every AP
	// is its own core and the latency floor needs no provisioning.
	pt.AddRow("dLTE stubs", res.MaxAPs, res.MaxAPs, res.MaxAPs*uesPerAP,
		pts[len(apCounts)-1].p50, pts[len(apCounts)-1].p99)
	res.ProcTable = pt
	opt.emit(t, pt)
	return res, nil
}

// runDLTEStorm attaches uesPerAP UEs at each of nAP independent stub
// APs simultaneously. Each stub carries exactly the same per-message
// processing cost as the centralized core — the only difference under
// test is that dLTE has one processor per site instead of one shared.
func runDLTEStorm(nAP int, seed int64) (p50, p99 float64, coreMsgs uint64, err error) {
	s, err := core.NewScenario(defaultWAN, seed)
	if err != nil {
		return 0, 0, 0, err
	}
	defer s.Close()
	aps := make([]*core.AccessPoint, 0, nAP)
	for i := 0; i < nAP; i++ {
		ap, aerr := s.AddAP(core.APConfig{
			ID:       fmt.Sprintf("ap%d", i+1),
			Position: geo.Pt(float64(i)*3000, 0),
			Band:     radio.LTEBand5, HeightM: 20, EIRPdBm: 58,
			Mode: x2.ModeFairShare, TAC: uint16(i + 1),
			ProcessingDelay: e3ProcDelay,
		})
		if aerr != nil {
			return 0, 0, 0, aerr
		}
		aps = append(aps, ap)
	}
	hist := metrics.NewHistogram()
	g := newGroup(s.Clock())
	var mu sync.Mutex
	var firstErr error
	for i, ap := range aps {
		// Pre-provision all this AP's subscribers (published keys).
		devices := make([]*ue.Device, 0, uesPerAP)
		for j := 0; j < uesPerAP; j++ {
			name := fmt.Sprintf("ue-%d-%d", i, j)
			d, derr := s.AddUE(name, imsiFor(3, i*100+j))
			if derr != nil {
				return 0, 0, 0, derr
			}
			if cerr := s.ConnectUERadio(name, ap.ID(), ap.Position().Add(1000, 0)); cerr != nil {
				return 0, 0, 0, cerr
			}
			devices = append(devices, d)
		}
		if _, kerr := ap.SyncSubscriberKeys(); kerr != nil {
			return 0, 0, 0, kerr
		}
		for _, d := range devices {
			d := d
			ap := ap
			g.spawn(func() {
				r, aerr := d.Attach(ap.AirAddr(), 60*time.Second)
				mu.Lock()
				defer mu.Unlock()
				if aerr != nil && firstErr == nil {
					firstErr = aerr
					return
				}
				hist.ObserveDuration(r.Duration)
			})
		}
	}
	g.wait()
	clk := s.Clock()
	if firstErr != nil {
		return 0, 0, 0, firstErr
	}
	// Attach() returns when the UE sends its fire-and-forget
	// AttachComplete; drain until every core has processed its last one
	// so the message count is a complete, deterministic total rather
	// than a racy snapshot.
	for {
		var attaches uint64
		for _, ap := range aps {
			attaches += ap.Core.Stats().Attaches
		}
		if attaches >= uint64(nAP*uesPerAP) {
			break
		}
		clk.Sleep(time.Millisecond)
	}
	var msgs uint64
	for _, ap := range aps {
		msgs += ap.Core.Stats().SignalingMessages
	}
	return hist.Quantile(0.5), hist.Quantile(0.99), msgs, nil
}

// runCentralStorm attaches the same UE population through one shared
// EPC whose signaling processor costs e3ProcDelay per message; procs
// is the modeled number of parallel signaling processors (1 = the
// classic single-threaded MME, >1 = E3b's sharded MME).
func runCentralStorm(nAP int, seed int64, procs int) (p50, p99 float64, coreMsgs uint64, err error) {
	n := simnet.NewVirtualNetwork(simnet.Link{Latency: 10 * time.Millisecond}, seed)
	defer n.Close()
	central, err := baseline.NewCentralized(n, "epc", baseline.CentralizedConfig{
		TAC:                 1,
		WANLink:             simnet.Link{Latency: 10 * time.Millisecond},
		ProcessingDelay:     e3ProcDelay,
		SignalingProcessors: procs,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer central.Close()

	type site struct{ air string }
	sites := make([]site, 0, nAP)
	for i := 0; i < nAP; i++ {
		e, serr := central.AddSite(fmt.Sprintf("cell%d", i))
		if serr != nil {
			return 0, 0, 0, serr
		}
		sites = append(sites, site{air: e.AirAddr()})
	}

	hist := metrics.NewHistogram()
	g := newGroup(n.Clock())
	var mu sync.Mutex
	var firstErr error
	for i := range sites {
		for j := 0; j < uesPerAP; j++ {
			imsi := imsiFor(4, i*100+j)
			sim, serr := newProvisionedSIM(central, imsi)
			if serr != nil {
				return 0, 0, 0, serr
			}
			host, herr := n.AddHost(fmt.Sprintf("ue-%d-%d", i, j))
			if herr != nil {
				return 0, 0, 0, herr
			}
			n.SetLink(host.Name(), fmt.Sprintf("cell%d", i), simnet.Link{Latency: 5 * time.Millisecond})
			d, derr := ue.NewDevice(host, sim)
			if derr != nil {
				return 0, 0, 0, derr
			}
			air := sites[i].air
			g.spawn(func() {
				r, aerr := d.Attach(air, 120*time.Second)
				mu.Lock()
				defer mu.Unlock()
				if aerr != nil && firstErr == nil {
					firstErr = aerr
					return
				}
				hist.ObserveDuration(r.Duration)
			})
		}
	}
	g.wait()
	clk := n.Clock()
	if firstErr != nil {
		return 0, 0, 0, firstErr
	}
	// Same drain as the dLTE storm: the last AttachComplete per UE is
	// still in flight when Attach() returns.
	for central.Core.Stats().Attaches < uint64(nAP*uesPerAP) {
		clk.Sleep(time.Millisecond)
	}
	return hist.Quantile(0.5), hist.Quantile(0.99), central.Core.Stats().SignalingMessages, nil
}
