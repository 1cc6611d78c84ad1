package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"dlte/internal/auth"
	"dlte/internal/baseline"
	"dlte/internal/core"
	"dlte/internal/exp"
	"dlte/internal/geo"
	"dlte/internal/mobility"
	"dlte/internal/ott"
	"dlte/internal/radio"
	"dlte/internal/simnet"
	"dlte/internal/ue"
	"dlte/internal/x2"
)

// workload is one row of the benchmark: a closed-loop load shape, the
// GOMAXPROCS it gates at, and how much of it one second of -seconds
// buys.
type workload struct {
	name string
	why  string
	// procs is the GOMAXPROCS the workload runs at. The four real-stack
	// workloads gate at 1 (see README "GOMAXPROCS policy"); the compact
	// world scales with workers and takes min(nproc, 4).
	procs func() int
	// segments is how many fresh worlds one run builds; opsPerSecond
	// converts -seconds into the fixed op count, split evenly over the
	// segments. It is calibrated once on the reference box so that
	// -seconds N times about N seconds there; it is a constant, so two
	// commits run with the same arguments do identical work.
	segments     int
	opsPerSecond float64
	unit, opName string
	// build makes a fresh world from the seed. tr, when non-nil,
	// receives spans for the lifecycle calls build and close make.
	build func(seed int64, tr *tracer) (world, error)
}

func one() int { return 1 }

func cityProcs() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// opsPerSegment is the fixed timed-op count of one segment.
func (wl *workload) opsPerSegment(seconds float64) int {
	n := int(math.Round(wl.opsPerSecond * seconds / float64(wl.segments)))
	if n < 1 {
		n = 1
	}
	return n
}

var workloads = []*workload{
	{
		name:  "attach_storm",
		why:   "control plane in steady state: 32 UEs re-attach concurrently (ue, enb, s1ap, epc, nas, auth, session over simnet streams); no mobility, almost no user plane",
		procs: one, segments: 5, opsPerSecond: 420, unit: "attach", opName: "round of 32",
		build: buildStorm,
	},
	{
		name:  "handover_wave",
		why:   "mobility plane: 16 cell-edge UEs ping-pong between two cooperative APs (mobility, x2, registry key sync, epc import and retire, settle polls that park on the clock)",
		procs: one, segments: 5, opsPerSecond: 460, unit: "arc", opName: "wave of 16",
		build: buildWave,
	},
	{
		name:  "bearer_echo",
		why:   "user plane: 4 UEs stream 512 B echoes through air, gtp, the epc gateway NAT and simnet datagrams, so a dispatch change that helps streams and hurts packets shows",
		procs: one, segments: 5, opsPerSecond: 92, unit: "round trip", opName: "batch of 4x250",
		build: buildEcho,
	},
	{
		name:  "experiment_suite",
		why:   "what dlte-sim -exp all -quick users wait for: dozens of short-lived worlds in build-run-teardown mode, plus phy, registry churn and the compact worlds",
		procs: one, segments: 1, opsPerSecond: 1.25, unit: "experiment", opName: "pass of 14",
		build: buildSuite,
	},
	{
		name:  "city_corridor",
		why:   "200k-UE compact corridor: timing wheel, sharded scheduler and idle pool at a working set beyond L2, no goroutine per actor; the only workload where workers are the product",
		procs: cityProcs, segments: 1, opsPerSecond: 0.42, unit: "event", opName: "world",
		build: buildCity,
	},
}

func workloadByName(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// wan is every scenario's default Internet link: 10 ms one way.
var wan = simnet.Link{Latency: 10 * time.Millisecond}

func imsiFor(block, i int) auth.IMSI {
	return auth.IMSI(fmt.Sprintf("00101%02d%08d", block%100, i))
}

// scenarioWorld is what the three real-stack worlds share: a
// core.Scenario, its APs and UEs, and lifecycle calls wrapped in spans
// (the core.* and registry.* rows of the ledger).
type scenarioWorld struct {
	tr  *tracer
	s   *core.Scenario
	aps []*core.AccessPoint
	ues []*ue.Device
	dig simDigest
}

func newScenarioWorld(seed int64, tr *tracer) (*scenarioWorld, error) {
	sp := tr.begin("core.new_scenario", noSpan, -1)
	s, err := core.NewScenario(wan, seed)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &scenarioWorld{tr: tr, s: s, dig: newSimDigest()}, nil
}

func (w *scenarioWorld) addAP(i int, x float64, mode x2.Mode, m *mobility.Meter) (*core.AccessPoint, error) {
	sp := w.tr.begin("core.add_ap", noSpan, -1)
	ap, err := w.s.AddAP(core.APConfig{
		ID:       fmt.Sprintf("ap%d", i+1),
		Position: geo.Pt(x, 0),
		Band:     radio.LTEBand5,
		HeightM:  20, EIRPdBm: 58,
		Mode:  mode,
		TAC:   uint16(i + 1),
		Meter: m,
	})
	w.tr.end(sp)
	if err == nil {
		w.aps = append(w.aps, ap)
	}
	return ap, err
}

// addUE provisions a UE and gives it radio to each of the named APs
// from position pos.
func (w *scenarioWorld) addUE(name string, imsi auth.IMSI, pos geo.Point, aps ...*core.AccessPoint) (*ue.Device, error) {
	sp := w.tr.begin("core.add_ue", noSpan, -1)
	d, err := w.s.AddUE(name, imsi)
	w.tr.end(sp)
	if err != nil {
		return nil, err
	}
	for _, ap := range aps {
		sp := w.tr.begin("core.connect_radio", noSpan, -1)
		err := w.s.ConnectUERadio(name, ap.ID(), pos)
		w.tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	w.ues = append(w.ues, d)
	return d, nil
}

// syncKeys imports every published subscriber key into ap's HSS.
func (w *scenarioWorld) syncKeys(ap *core.AccessPoint) error {
	sp := w.tr.begin("registry.sync_keys", noSpan, -1)
	_, err := ap.SyncSubscriberKeys()
	w.tr.end(sp)
	return err
}

func (w *scenarioWorld) digest() (uint64, bool) { return w.dig.sum(), true }

func (w *scenarioWorld) counters() counts {
	es := w.s.Net.ExecStats()
	c := counts{dispatches: es.HandlerDispatches, legacy: es.LegacyDeliveries, parks: es.GoroutineParks}
	for _, ap := range w.aps {
		st := ap.Core.Stats()
		c.sigMsgs += st.SignalingMessages
		c.attaches += st.Attaches
		c.rejects += st.Rejects
		c.upDrops += st.UserPlaneDrops.Total()
	}
	for _, d := range w.ues {
		c.nasBytes += d.SignalingBytes()
	}
	return c
}

func (w *scenarioWorld) close() {
	sp := w.tr.begin("core.close", noSpan, -1)
	w.s.Close()
	w.tr.end(sp)
}

// join runs fn once per index on clock-registered goroutines and waits
// for all of them, bracketing the wait the way the clock contract asks.
func join(clk simnet.Clock, n int, fn func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		clk.Go(func() {
			defer wg.Done()
			fn(i)
		})
	}
	clk.Block()
	wg.Wait()
	clk.Unblock()
}

// settle polls cond on the world's clock, 5 ms of virtual time apart —
// the same poll-and-Sleep pattern the experiments use, so its park and
// wake cost is part of what handover_wave measures.
func settle(clk simnet.Clock, timeout time.Duration, cond func() bool) bool {
	deadline := clk.Now().Add(timeout)
	for clk.Now().Before(deadline) {
		if cond() {
			return true
		}
		clk.Sleep(5 * time.Millisecond)
	}
	return cond()
}

// nearCell draws a UE's distance from its AP, in meters: 0.1 to 4 km,
// inside the radius where band 5's air link runs at its top rate. The
// seed therefore moves UEs about without changing the world's shape:
// host cost must not depend on the seed, or runs at different seeds
// could not be compared. (Beyond 5 km the rate falls in steps, flows
// with different rates stop arriving at the same virtual instants, and
// the advancer batches less: bearer_echo measured 57 k to 91 k round
// trips/s over ten seeds drawn from 0.5 to 20 km.)
func nearCell(rng *rand.Rand) float64 { return 100 + 3900*rng.Float64() }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// --- attach_storm ---------------------------------------------------------

const (
	stormAPs      = 4
	stormUEsPerAP = 8
)

type stormWorld struct {
	*scenarioWorld
	air  []string
	res  []ue.AttachResult
	err  []error
	durs []time.Duration // one round's virtual attach latencies
}

func buildStorm(seed int64, tr *tracer) (world, error) {
	rng := rand.New(rand.NewSource(seed))
	sw, err := newScenarioWorld(seed, tr)
	if err != nil {
		return nil, err
	}
	w := &stormWorld{scenarioWorld: sw}
	fail := func(err error) (world, error) { w.s.Close(); return nil, err }
	for i := 0; i < stormAPs; i++ {
		if _, err := w.addAP(i, float64(i)*3000, x2.ModeFairShare, nil); err != nil {
			return fail(err)
		}
	}
	for i, ap := range w.aps {
		for j := 0; j < stormUEsPerAP; j++ {
			pos := ap.Position().Add(0, nearCell(rng))
			if _, err := w.addUE(fmt.Sprintf("ue%d-%d", i, j), imsiFor(11, i*100+j+1), pos, ap); err != nil {
				return fail(err)
			}
			w.air = append(w.air, ap.AirAddr())
		}
	}
	for _, ap := range w.aps {
		if err := w.syncKeys(ap); err != nil {
			return fail(err)
		}
	}
	w.res = make([]ue.AttachResult, len(w.ues))
	w.err = make([]error, len(w.ues))
	return w, nil
}

// op re-attaches every UE concurrently; re-attach without detach
// supersedes, so each round walks the whole attach path.
func (w *stormWorld) op(i int, tr *tracer) (units, failed int) {
	round := tr.begin("storm.round", noSpan, i)
	join(w.s.Clock(), len(w.ues), func(k int) {
		sp := tr.begin("ue.attach", round, i)
		w.res[k], w.err[k] = w.ues[k].Attach(w.air[k], 30*time.Second)
		tr.end(sp)
	})
	tr.end(round)
	w.durs = w.durs[:0]
	for k, r := range w.res {
		if w.err[k] != nil || r.IP == "" || r.GUTI == 0 {
			failed++
			continue
		}
		w.durs = append(w.durs, r.Duration)
		tr.observe("sim.attach_ms", ms(r.Duration))
	}
	// The round's latencies are folded as a multiset. An AP's admission
	// gate serves same-instant arrivals 1 ns apart in the order their
	// goroutines reached it, so which UE pays which nanosecond is Go
	// scheduling; the set of latencies is the simulated statistic.
	sort.Slice(w.durs, func(a, b int) bool { return w.durs[a] < w.durs[b] })
	for _, d := range w.durs {
		w.dig.u64(uint64(d))
	}
	return len(w.ues), failed
}

// --- handover_wave --------------------------------------------------------

const (
	waveUEs     = 16
	waveSpacing = 1000.0 // m between the two APs
)

type waveWorld struct {
	*scenarioWorld
	meter *mobility.Meter
	rsrp  []float64 // per UE, what the source hears at the cell edge
	waves int
}

// edgeRSRP is log-distance path loss anchored at -60 dBm @ 100 m,
// 35 dB per decade — the compiled scenarios' radio model.
func edgeRSRP(dM float64) float64 { return -60 - 35*math.Log10(dM/100) }

func buildWave(seed int64, tr *tracer) (world, error) {
	rng := rand.New(rand.NewSource(seed))
	sw, err := newScenarioWorld(seed, tr)
	if err != nil {
		return nil, err
	}
	w := &waveWorld{scenarioWorld: sw, meter: mobility.NewMeter()}
	fail := func(err error) (world, error) { w.s.Close(); return nil, err }
	for i := 0; i < 2; i++ {
		if _, err := w.addAP(i, float64(i)*waveSpacing, x2.ModeCooperative, w.meter); err != nil {
			return fail(err)
		}
	}
	for _, ap := range w.aps {
		sp := tr.begin("registry.discover", noSpan, -1)
		_, err := ap.DiscoverPeers()
		tr.end(sp)
		if err != nil {
			return fail(err)
		}
	}
	if !settle(w.s.Clock(), 5*time.Second, func() bool {
		return len(w.aps[0].Agent.Peers()) == 1 && len(w.aps[1].Agent.Peers()) == 1
	}) {
		return fail(fmt.Errorf("X2 mesh never settled"))
	}
	for j := 0; j < waveUEs; j++ {
		// The seed scatters the UEs within 50 m of the midpoint; both
		// cells stay audible, so the ping-pong never re-plumbs radio.
		off := waveSpacing/2 + 100*rng.Float64() - 50
		pos := w.aps[0].Position().Add(off, 0)
		if _, err := w.addUE(fmt.Sprintf("ho%d", j), imsiFor(77, j+1), pos, w.aps...); err != nil {
			return fail(err)
		}
		w.rsrp = append(w.rsrp, edgeRSRP(off))
	}
	if err := w.syncKeys(w.aps[0]); err != nil {
		return fail(err)
	}
	for _, d := range w.ues {
		if _, err := d.Attach(w.aps[0].AirAddr(), 15*time.Second); err != nil {
			return fail(err)
		}
	}
	return w, nil
}

// op moves the whole population from one AP to the other, one full
// prepared handover arc at a time.
func (w *waveWorld) op(i int, tr *tracer) (units, failed int) {
	src, dst := w.aps[w.waves%2], w.aps[(w.waves+1)%2]
	w.waves++
	wave := tr.begin("wave", noSpan, i)
	for j, d := range w.ues {
		if err := w.arc(src, dst, d, j, wave, i, tr); err != nil {
			failed++
		}
	}
	tr.end(wave)
	return len(w.ues), failed
}

// arc is one handover: X2 prepare and ack, break-before-make NAS
// re-attach at the target, complete and retire at the source. After it
// exactly one of the two cores may hold the UE's session.
func (w *waveWorld) arc(src, dst *core.AccessPoint, d *ue.Device, j int, wave spanID, op int, tr *tracer) error {
	clk := w.s.Clock()
	imsi := d.IMSI()
	arc := tr.begin("arc", wave, op)
	defer tr.end(arc)

	sp := tr.begin("mobility.prepare", arc, op)
	call := tr.begin("mobility.Plane.Prepare", sp, op)
	err := src.Mobility.Prepare(dst.ID(), d.Publication(), w.rsrp[j])
	tr.end(call)
	if err == nil && !settle(clk, 5*time.Second, func() bool {
		return src.Mobility.State(imsi) == mobility.StatePrepared
	}) {
		err = fmt.Errorf("prepare %s->%s stuck in %v", src.ID(), dst.ID(), src.Mobility.State(imsi))
	}
	tr.end(sp)
	if err != nil {
		return err
	}

	sp = tr.begin("mobility.execute", arc, op)
	start := clk.Now()
	hr, err := d.Handover(dst.AirAddr(), 15*time.Second)
	tr.end(sp)
	if err != nil {
		return err
	}
	w.meter.InterruptionStart(imsi, start)
	w.meter.InterruptionEnd(imsi, start.Add(hr.Interruption))
	w.meter.AddNAS(imsi, hr.SignalingBytes)

	sp = tr.begin("mobility.complete", arc, op)
	call = tr.begin("mobility.Plane.NotifyComplete", sp, op)
	err = dst.Mobility.NotifyComplete(src.ID(), imsi)
	tr.end(call)
	remaining := len(w.ues) - 1 - j // the source still holds the UEs that have not moved
	if err == nil && !settle(clk, 5*time.Second, func() bool {
		return src.Mobility.State(imsi) == mobility.StateCompleted &&
			src.Core.Gateway().NumSessions() == remaining
	}) {
		err = fmt.Errorf("complete %s->%s never settled", src.ID(), dst.ID())
	}
	tr.end(sp)
	if err != nil {
		return err
	}
	if got := dst.Core.Gateway().NumSessions(); got != j+1 {
		return fmt.Errorf("target holds %d sessions after arc %d, want %d", got, j, j+1)
	}
	if hr.IP == "" || hr.GUTI == 0 {
		return fmt.Errorf("handover returned no IP or GUTI")
	}
	w.dig.u64(uint64(hr.Interruption))
	w.dig.u64(hr.SignalingBytes)
	tr.observe("sim.ho_interrupt_ms", ms(hr.Interruption))
	return nil
}

// digest also covers the X2 bytes the shared meter charged; that reads
// every record, so it is done here, once per segment, not per arc.
func (w *waveWorld) digest() (uint64, bool) {
	d := newSimDigest()
	d.u64(w.dig.sum())
	d.u64(w.counters().x2Bytes)
	return d.sum(), true
}

func (w *waveWorld) counters() counts {
	c := w.scenarioWorld.counters()
	for _, r := range w.meter.Records() {
		c.x2Bytes += r.X2Bytes
		c.handovers++
	}
	return c
}

// --- bearer_echo ----------------------------------------------------------

const (
	echoUEs       = 4
	echoPerBatch  = 250 // round trips per UE per batch
	echoWindow    = 8
	echoPayload   = 512
	echoPort      = 9000
	echoReadLimit = 10 * time.Second
)

// echoFlow is one UE streaming to its own echo host.
type echoFlow struct {
	bc      *ue.BearerConn
	sink    simnet.Addr
	payload []byte // seed-drawn; the first 8 bytes carry the sequence number
	buf     []byte
	seq     uint64
	sentAt  [echoWindow]time.Time
	rtts    []time.Duration // virtual round-trip times of the last batch
	failed  int
	srv     *ott.EchoServer
}

// echoFlows is the load bearer_echo and its tunnel variant share.
type echoFlows []*echoFlow

// add starts flow i's echo server on a host of its own, so no two
// flows share a stateful link.
func (fs *echoFlows) add(n *simnet.Network, i, payload int, rng *rand.Rand) (*echoFlow, error) {
	host, err := n.AddHost(fmt.Sprintf("ott%d", i))
	if err != nil {
		return nil, err
	}
	srv, err := ott.NewEchoServer(host, echoPort)
	if err != nil {
		return nil, err
	}
	f := &echoFlow{
		srv:     srv,
		sink:    simnet.Addr{Host: host.Name(), Port: echoPort},
		payload: make([]byte, payload),
		buf:     make([]byte, 2*payload),
		rtts:    make([]time.Duration, 0, echoPerBatch),
	}
	rng.Read(f.payload)
	*fs = append(*fs, f)
	return f, nil
}

func (fs echoFlows) closeServers() {
	for _, f := range fs {
		f.srv.Close()
	}
}

// stream pushes echoPerBatch round trips through the bearer with at
// most echoWindow requests in flight, and checks every echoed byte.
func (f *echoFlow) stream(batch spanID, op int, tr *tracer) {
	clk := f.bc.Clock()
	f.failed, f.rtts = 0, f.rtts[:0]
	sent, recvd := 0, 0
	for recvd < echoPerBatch {
		for sent < echoPerBatch && sent-recvd < echoWindow {
			binary.BigEndian.PutUint64(f.payload, f.seq+uint64(sent))
			f.sentAt[sent%echoWindow] = clk.Now()
			sp := tr.begin("bearer.write", batch, op)
			_, err := f.bc.WriteTo(f.payload, f.sink)
			tr.end(sp)
			if err != nil {
				f.failed += echoPerBatch - recvd
				return
			}
			sent++
		}
		f.bc.SetReadDeadline(clk.Now().Add(echoReadLimit))
		sp := tr.begin("bearer.read", batch, op)
		n, _, err := f.bc.ReadFrom(f.buf)
		tr.end(sp)
		if err != nil { // a lost window stalls the stream: everything left fails
			f.failed += echoPerBatch - recvd
			return
		}
		// A flow's datagrams stay in order, so echo k must carry
		// sequence number k and the flow's seed-drawn bytes behind it.
		binary.BigEndian.PutUint64(f.payload, f.seq+uint64(recvd))
		if !bytes.Equal(f.buf[:n], f.payload) {
			f.failed++
		}
		f.rtts = append(f.rtts, clk.Since(f.sentAt[recvd%echoWindow]))
		recvd++
	}
	f.seq += echoPerBatch
}

// batch runs one batch on every flow at once and folds the virtual
// round-trip times.
func (fs echoFlows) batch(clk simnet.Clock, dig simDigest, i int, tr *tracer) (units, failed int) {
	batch := tr.begin("echo.batch", noSpan, i)
	join(clk, len(fs), func(k int) { fs[k].stream(batch, i, tr) })
	tr.end(batch)
	for _, f := range fs {
		failed += f.failed
		for _, rtt := range f.rtts {
			dig.u64(uint64(rtt))
			tr.observe("sim.echo_rtt_ms", ms(rtt))
		}
	}
	return len(fs) * echoPerBatch, failed
}

type echoWorld struct {
	*scenarioWorld
	flows echoFlows
}

func buildEcho(seed int64, tr *tracer) (world, error) { return buildEchoSized(seed, echoPayload, tr) }

// buildEchoSized is bearer_echo's world at a given payload size: one
// AP with direct breakout, four attached UEs, one echo host each.
func buildEchoSized(seed int64, payload int, tr *tracer) (world, error) {
	rng := rand.New(rand.NewSource(seed))
	sw, err := newScenarioWorld(seed, tr)
	if err != nil {
		return nil, err
	}
	w := &echoWorld{scenarioWorld: sw}
	fail := func(err error) (world, error) { w.close(); return nil, err }
	ap, err := w.addAP(0, 0, x2.ModeFairShare, nil)
	if err != nil {
		return fail(err)
	}
	for i := 0; i < echoUEs; i++ {
		pos := ap.Position().Add(0, nearCell(rng))
		if _, err := w.addUE(fmt.Sprintf("ue%d", i), imsiFor(21, i+1), pos, ap); err != nil {
			return fail(err)
		}
		if _, err := w.flows.add(w.s.Net, i, payload, rng); err != nil {
			return fail(err)
		}
	}
	if err := w.syncKeys(ap); err != nil {
		return fail(err)
	}
	for i, d := range w.ues {
		if _, err := d.Attach(ap.AirAddr(), 30*time.Second); err != nil {
			return fail(err)
		}
		w.flows[i].bc = d.Bearer()
	}
	return w, nil
}

func (w *echoWorld) op(i int, tr *tracer) (units, failed int) {
	return w.flows.batch(w.s.Clock(), w.dig, i, tr)
}

func (w *echoWorld) close() {
	w.flows.closeServers()
	w.scenarioWorld.close()
}

// tunnelWorld is bearer_echo's load on the telecom baseline: the same
// four flows, but every packet tunnels through a centralized EPC 40 ms
// from the cell site. Only the ledger's breakout-vs-tunnel row uses it.
type tunnelWorld struct {
	net     *simnet.Network
	central *baseline.Centralized
	devs    []*ue.Device
	flows   echoFlows
	dig     simDigest
}

func buildTunnel(seed int64, _ *tracer) (world, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &tunnelWorld{net: simnet.NewVirtualNetwork(wan, seed), dig: newSimDigest()}
	fail := func(err error) (world, error) { w.close(); return nil, err }
	var err error
	w.central, err = baseline.NewCentralized(w.net, "epc", baseline.CentralizedConfig{
		TAC: 1, WANLink: simnet.Link{Latency: 40 * time.Millisecond},
	})
	if err != nil {
		return fail(err)
	}
	site, err := w.central.AddSite("cell")
	if err != nil {
		return fail(err)
	}
	for i := 0; i < echoUEs; i++ {
		sim, err := auth.NewSIM(imsiFor(22, i+1))
		if err != nil {
			return fail(err)
		}
		if err := w.central.Core.Provision(sim); err != nil {
			return fail(err)
		}
		host, err := w.net.AddHost(fmt.Sprintf("ue%d", i))
		if err != nil {
			return fail(err)
		}
		// The same seed-drawn air link bearer_echo's UE i gets.
		w.net.SetLink(host.Name(), "cell", core.AirLink(radio.LTEBand5, nearCell(rng)/1000))
		d, err := ue.NewDevice(host, sim)
		if err != nil {
			return fail(err)
		}
		w.devs = append(w.devs, d)
		f, err := w.flows.add(w.net, i, echoPayload, rng)
		if err != nil {
			return fail(err)
		}
		if _, err := d.Attach(site.AirAddr(), 30*time.Second); err != nil {
			return fail(err)
		}
		f.bc = d.Bearer()
	}
	return w, nil
}

func (w *tunnelWorld) op(i int, tr *tracer) (units, failed int) {
	return w.flows.batch(w.net.Clock(), w.dig, i, tr)
}

func (w *tunnelWorld) digest() (uint64, bool) { return w.dig.sum(), true }
func (w *tunnelWorld) counters() counts       { return counts{} }

func (w *tunnelWorld) close() {
	w.flows.closeServers()
	for _, d := range w.devs {
		d.Close()
	}
	if w.central != nil {
		w.central.Close()
	}
	w.net.Close()
}

// --- experiment_suite -----------------------------------------------------

// experiment adapts one exp.RunE* entry point to a common shape.
type experiment struct {
	name string
	run  func(exp.Options) error
}

func adapt[R any](name string, run func(exp.Options) (R, error)) experiment {
	return experiment{name, func(o exp.Options) error { _, err := run(o); return err }}
}

var experiments = []experiment{
	adapt("E1", exp.RunE1), adapt("E2", exp.RunE2), adapt("E2b", exp.RunE2b),
	adapt("E3", exp.RunE3), adapt("E4", exp.RunE4), adapt("E5", exp.RunE5),
	adapt("E6", exp.RunE6), adapt("E7", exp.RunE7), adapt("E8", exp.RunE8),
	adapt("E9", exp.RunE9), adapt("E10", exp.RunE10), adapt("E11", exp.RunE11),
	adapt("E12", exp.RunE12), adapt("E13", exp.RunE13),
}

type suiteWorld struct {
	seed        int64
	parallelism int // exp.Options.Parallelism: 1 when gating
	buf         bytes.Buffer
	// ref is the digest every pass's rendered tables must equal: the
	// first pass's, unless the caller pinned another run's.
	ref      uint64
	passes   int
	agreeing int // passes whose tables equal ref
}

func buildSuite(seed int64, _ *tracer) (world, error) {
	return &suiteWorld{seed: seed, parallelism: 1}, nil
}

// op runs all fourteen experiments in quick mode and renders their
// tables. An experiment fails if it returns an error or renders no
// table row.
func (w *suiteWorld) op(i int, tr *tracer) (units, failed int) {
	pass := tr.begin("suite.pass", noSpan, i)
	tables := newSimDigest()
	for _, e := range experiments {
		w.buf.Reset()
		sp := tr.begin("exp."+e.name, pass, i)
		err := e.run(exp.Options{Quick: true, Seed: w.seed, Parallelism: w.parallelism, Out: &w.buf})
		tr.end(sp)
		// A rendered table is a title, a header, a rule, then rows.
		if err != nil || bytes.Count(w.buf.Bytes(), []byte("\n")) < 4 {
			failed++
			continue
		}
		tables.bytes(w.buf.Bytes())
	}
	tr.end(pass)
	if w.passes == 0 && w.ref == 0 {
		w.ref = tables.sum()
	}
	w.passes++
	if tables.sum() == w.ref {
		w.agreeing++
	}
	return len(experiments), failed
}

// digest is stable when every pass rendered the same bytes.
func (w *suiteWorld) digest() (uint64, bool) { return w.ref, w.agreeing == w.passes }
func (w *suiteWorld) counters() counts       { return counts{} }
func (w *suiteWorld) close()                 {}

// --- city_corridor --------------------------------------------------------

var citySpec = exp.ScenarioSpec{
	Name: "bench-corridor", Kind: exp.KindCorridor,
	UEs: 200_000, APs: 32, SpacingM: 1000, SpeedMps: 25,
	Horizon: 120 * time.Second,
}

// cityOutcome is what one compact world simulated.
type cityOutcome struct {
	events, handovers uint64
	p50, p99          float64
}

type cityWorld struct {
	spec     exp.ScenarioSpec
	seed     int64
	workers  int
	first    cityOutcome
	worlds   int
	agreeing int // worlds whose outcome equals the first's
}

func buildCity(seed int64, _ *tracer) (world, error) {
	return &cityWorld{spec: citySpec, seed: seed, workers: cityProcs()}, nil
}

// op compiles, runs and verifies one corridor world. Its units are the
// simulated events; all of them fail if the world does not verify.
func (w *cityWorld) op(i int, tr *tracer) (units, failed int) {
	out, _, err := w.run(w.workers, i, tr)
	if w.worlds == 0 {
		w.first = out
	}
	w.worlds++
	if out == w.first {
		w.agreeing++
	}
	units = int(out.events)
	if err != nil {
		if units == 0 {
			units = 1
		}
		return units, units
	}
	return units, 0
}

// run is one world at the given worker count. The compiled scenario is
// returned so a caller can weigh its heap while it is still live.
func (w *cityWorld) run(workers, op int, tr *tracer) (cityOutcome, *exp.CompiledScenario, error) {
	world := tr.begin("city.world", noSpan, op)
	defer tr.end(world)
	sp := tr.begin("city.compile", world, op)
	cs, err := exp.CompileScenario(w.spec, exp.SchemeDLTE, w.seed, workers)
	tr.end(sp)
	if err != nil {
		return cityOutcome{}, nil, err
	}
	sp = tr.begin("city.run", world, op)
	err = cs.Run()
	tr.end(sp)
	if err != nil {
		return cityOutcome{}, nil, err
	}
	sp = tr.begin("city.verify", world, op)
	err = cs.Verify()
	tr.end(sp)
	out := cityOutcome{events: cs.Events(), handovers: cs.Handovers()}
	out.p50, out.p99 = cs.InterruptionQuantiles()
	return out, cs, err
}

// digest is stable when every world of the run simulated the same
// events, handovers and interruption quantiles.
func (w *cityWorld) digest() (uint64, bool) {
	d := newSimDigest()
	d.u64(w.first.events)
	d.u64(w.first.handovers)
	d.f64(w.first.p50)
	d.f64(w.first.p99)
	return d.sum(), w.agreeing == w.worlds
}

func (w *cityWorld) counters() counts { return counts{} }
func (w *cityWorld) close()           {}
