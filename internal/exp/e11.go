package exp

import (
	"fmt"
	"time"

	"dlte/internal/baseline"
	"dlte/internal/core"
	"dlte/internal/geo"
	"dlte/internal/metrics"
	"dlte/internal/mobility"
	"dlte/internal/radio"
	"dlte/internal/s1ap"
	"dlte/internal/simnet"
	"dlte/internal/ue"
	"dlte/internal/x2"
)

// E11 — city-scale mobility under the unified mobility plane
// (DESIGN.md §12). Three compiled scenarios — a vehicular corridor
// through a string of APs, a 50k flash crowd converging on a handful of
// cells, and an AP failure/recovery wave — each run under both schemes
// (dLTE's distributed planes vs the telecom baseline's MME-masked
// handover), reporting handover interruption p50/p99, session survival
// through the failure wave, and signaling bytes per handover.
//
// Two measurement layers per scenario:
//
//   - The compact layer (internal/exp/scenario.go) lowers the spec onto
//     per-region slot arrays, each region running its UEs' chains to
//     the horizon: tens of thousands of SoA UEs evaluate the real
//     mobility.Trigger per measurement tick; handover counts, modeled
//     interruption quantiles, and failure-wave survival come from
//     commutative per-region tallies.
//   - The probe layer drives ONE real UE through the full stack — X2
//     prepare via mobility.Plane, break-before-make re-attach, GTP
//     re-point — with a shared mobility.Meter stitching the source
//     plane's X2 bytes and the UE seam's interruption window into one
//     Record per handover. Probe numbers anchor the compact model to
//     the real protocol cost.
//
// Determinism: tables are byte-identical at any -p. The compact
// worlds are worker-invariant by construction; the probe worlds run on
// virtual clocks; telecom byte costs come from real codec sizes, not
// timing.

// E11Result carries the table plus headline metrics per scenario name.
type E11Result struct {
	Table *metrics.Table
	// Handovers / TelecomHandovers are the compact worlds' totals.
	Handovers, TelecomHandovers map[string]uint64
	// Survival / TelecomSurvival are the failure-wave session survival
	// rates (1.0 outside a failure wave).
	Survival, TelecomSurvival map[string]float64
	// ProbeInterruptMs is the real-stack measured handover interruption
	// (median across probe handovers).
	ProbeInterruptMs map[string]float64
	// BytesPerHandover is the dLTE probe's measured signaling cost
	// (X2 choreography + NAS re-attach); TelecomBytesPerHandover is the
	// baseline's codec-derived cost (X2 request/ack + S1AP path switch).
	BytesPerHandover        map[string]float64
	TelecomBytesPerHandover float64
	// FailureProbeSurvived / FailureProbeTelecomSurvived are the real
	// failure-wave probe outcomes: a dLTE UE re-attaching to a
	// surviving island vs a telecom UE stranded behind a dead EPC.
	FailureProbeSurvived, FailureProbeTelecomSurvived bool
}

// e11Specs declares the three scenarios. Quick shrinks populations and
// horizons for CI; the shapes are identical.
func e11Specs(opt Options) []ScenarioSpec {
	if opt.Quick {
		return []ScenarioSpec{
			{Name: "corridor", Kind: KindCorridor, UEs: 2_000, APs: 8,
				SpacingM: 1000, SpeedMps: 25, Horizon: 120 * time.Second},
			{Name: "flash-crowd", Kind: KindFlashCrowd, UEs: 5_000, APs: 12,
				SpacingM: 1000, HotCells: 4, Promotions: 2,
				ConvergeAt: 30 * time.Second, DisperseAt: 80 * time.Second,
				Horizon: 110 * time.Second},
			{Name: "failure-wave", Kind: KindFailureWave, UEs: 3_000, APs: 10,
				SpacingM: 1000, FailAPs: 3,
				FailAt: 30 * time.Second, RecoverAt: 80 * time.Second,
				Horizon: 110 * time.Second},
		}
	}
	return []ScenarioSpec{
		{Name: "corridor", Kind: KindCorridor, UEs: 10_000, APs: 12,
			SpacingM: 1000, SpeedMps: 25, Horizon: 240 * time.Second},
		{Name: "flash-crowd", Kind: KindFlashCrowd, UEs: 50_000, APs: 20,
			SpacingM: 1000, HotCells: 4, Promotions: 4,
			ConvergeAt: 60 * time.Second, DisperseAt: 150 * time.Second,
			Horizon: 200 * time.Second},
		{Name: "failure-wave", Kind: KindFailureWave, UEs: 20_000, APs: 12,
			SpacingM: 1000, FailAPs: 4,
			FailAt: 60 * time.Second, RecoverAt: 150 * time.Second,
			Horizon: 200 * time.Second},
	}
}

// telecomHandoverBytes is the baseline's per-handover signaling cost,
// sized from the real codecs: the inter-eNodeB X2 request/ack plus the
// S1AP path switch the MME needs to re-point the core tunnel. Framing
// matches the X2 agent's 4-byte length prefix.
func telecomHandoverBytes() (uint64, error) {
	var total uint64
	for _, m := range []x2.Message{
		&x2.HandoverRequest{IMSI: "001010000000000", SourceAP: "site1", RSRPdBm: -9500},
		&x2.HandoverRequestAck{IMSI: "001010000000000", Accepted: true},
	} {
		b, err := x2.Marshal(m)
		if err != nil {
			return 0, err
		}
		total += uint64(len(b) + 4)
	}
	for _, m := range []s1ap.MsgView{
		{Type: s1ap.TypePathSwitchRequest, MMEUEID: 1, NewENBAddr: []byte("site2:2152"), NewENBTEID: 1},
		{Type: s1ap.TypePathSwitchAck, MMEUEID: 1},
	} {
		b, err := s1ap.Append(nil, &m)
		if err != nil {
			return 0, err
		}
		total += uint64(len(b) + 4)
	}
	return total, nil
}

// e11Row is one scenario's full outcome, filled by one forEachWorld
// job (compact dLTE + compact or derived telecom + real probe legs).
type e11Row struct {
	spec ScenarioSpec

	hoDLTE, hoTelecom uint64
	p50DLTE, p99DLTE  float64
	p50Tel, p99Tel    float64
	survDLTE, survTel float64
	probeMs           float64 // real-stack dLTE handover interruption (median)
	probeBytes        float64 // real-stack dLTE signaling bytes per handover
	probeSurvived     bool    // failure wave: dLTE probe re-attached on an island
	probeTelSurvived  bool    // failure wave: telecom probe behind the dead EPC
	promoted          int     // flash crowd: compact UEs replayed through the stack
	promoP50          float64 // their real attach p50, ms
}

// newMobilityWorld is newDLTEWorld with cooperative X2 mode and a
// shared mobility meter threaded into every AP — the probe worlds'
// standard shape.
func newMobilityWorld(n int, apKm float64, seed int64, m *mobility.Meter) (*core.Scenario, []*core.AccessPoint, error) {
	s, err := core.NewScenario(defaultWAN, seed)
	if err != nil {
		return nil, nil, err
	}
	aps := make([]*core.AccessPoint, 0, n)
	for i := 0; i < n; i++ {
		ap, err := s.AddAP(core.APConfig{
			ID:       fmt.Sprintf("ap%d", i+1),
			Position: geo.Pt(float64(i)*apKm*1000, 0),
			Band:     radio.LTEBand5,
			HeightM:  20, EIRPdBm: 58,
			Mode:  x2.ModeCooperative,
			TAC:   uint16(i + 1),
			Meter: m,
		})
		if err != nil {
			s.Close()
			return nil, nil, err
		}
		aps = append(aps, ap)
	}
	if _, err := s.Net.AddHost("ott"); err != nil {
		s.Close()
		return nil, nil, err
	}
	return s, aps, nil
}

// associate peers every AP via the registry and waits for the X2 mesh.
func associate(s *core.Scenario, aps []*core.AccessPoint) error {
	for _, ap := range aps {
		if _, err := ap.DiscoverPeers(); err != nil {
			return err
		}
	}
	if !s.Clock().(*simnet.VirtualClock).WaitUntil(5*time.Second, func() bool {
		for _, ap := range aps {
			if ap.Agent.PeerCount() < len(aps)-1 {
				return false
			}
		}
		return true
	}) {
		return fmt.Errorf("e11: X2 mesh never settled")
	}
	return nil
}

// probeHandover runs one full-arc handover of device d from src to dst
// through the mobility plane, stitching the interruption window and
// NAS bytes into the shared meter. Returns the measured interruption.
func probeHandover(s *core.Scenario, src, dst *core.AccessPoint, d *ue.Device, m *mobility.Meter) (time.Duration, error) {
	imsi := d.IMSI()
	vc := s.Clock().(*simnet.VirtualClock)
	// RSRP at the cell edge between the two APs.
	edge := src.Position().DistanceTo(dst.Position()) / 2
	if err := src.Mobility.Prepare(dst.ID(), d.Publication(), scenRSRP(edge)); err != nil {
		return 0, err
	}
	if !vc.WaitUntil(5*time.Second, func() bool {
		return src.Mobility.State(imsi) == mobility.StatePrepared
	}) {
		return 0, fmt.Errorf("e11: prepare %s→%s stuck in %v", src.ID(), dst.ID(), src.Mobility.State(imsi))
	}
	start := vc.Now()
	hr, err := d.Handover(dst.AirAddr(), 15*time.Second)
	if err != nil {
		return 0, fmt.Errorf("e11: handover %s→%s: %w", src.ID(), dst.ID(), err)
	}
	m.InterruptionStart(imsi, start)
	m.InterruptionEnd(imsi, start.Add(hr.Interruption))
	m.AddNAS(imsi, hr.SignalingBytes)
	if err := dst.Mobility.NotifyComplete(src.ID(), imsi); err != nil {
		return 0, err
	}
	if !vc.WaitUntil(5*time.Second, func() bool {
		return src.Mobility.State(imsi) == mobility.StateCompleted &&
			src.Core.Gateway().NumSessions() == 0
	}) {
		return 0, fmt.Errorf("e11: complete %s→%s never settled", src.ID(), dst.ID())
	}
	return hr.Interruption, nil
}

// probeCorridor drives one real UE down a 4-AP corridor: three full
// handovers, each metered end to end. Returns the median interruption
// and mean signaling bytes per handover.
func probeCorridor(seed int64) (float64, float64, error) {
	m := mobility.NewMeter()
	s, aps, err := newMobilityWorld(4, 1.0, seed, m)
	if err != nil {
		return 0, 0, err
	}
	defer s.Close()
	if err := associate(s, aps); err != nil {
		return 0, 0, err
	}
	d, _, err := attachNewUE(s, aps[0], "car", imsiFor(11, 1), 0.4)
	if err != nil {
		return 0, 0, err
	}
	defer d.Close()
	h := metrics.NewHistogram()
	for i := 0; i+1 < len(aps); i++ {
		// The car reaches the next cell edge; radio follows it.
		pos := aps[i+1].Position().Add(-400, 0)
		if err := s.ConnectUERadio("car", aps[i+1].ID(), pos); err != nil {
			return 0, 0, err
		}
		gap, err := probeHandover(s, aps[i], aps[i+1], d, m)
		if err != nil {
			return 0, 0, err
		}
		h.ObserveDuration(gap)
	}
	var bytes, n uint64
	for _, rec := range m.Records() {
		if rec.SignalingBytes() > 0 {
			bytes += rec.SignalingBytes()
			n++
		}
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("e11: corridor probe metered no handovers")
	}
	return h.Quantile(0.5), float64(bytes) / float64(n), nil
}

// probeFlash replays the compact world's merged promotion log through
// the real stack — each promoted UE becomes a full Device attaching at
// one of the hot cells — then disperses one of them through a real
// plane handover. Returns the promotion attach p50 and the disperse
// handover's interruption/bytes.
func probeFlash(seed int64, promos []scenPromo) (promoP50, hoMs, hoBytes float64, err error) {
	m := mobility.NewMeter()
	s, aps, err := newMobilityWorld(4, 1.0, seed, m)
	if err != nil {
		return 0, 0, 0, err
	}
	defer s.Close()
	if err := associate(s, aps); err != nil {
		return 0, 0, 0, err
	}
	ph := metrics.NewHistogram()
	var last *ue.Device
	for i, pr := range promos {
		name := fmt.Sprintf("fan%d", pr.gi)
		d, ar, aerr := attachNewUE(s, aps[i%len(aps)], name, imsiFor(11, 100+int(pr.gi)), 0.3)
		if aerr != nil {
			return 0, 0, 0, fmt.Errorf("e11: flash promote gi=%d: %w", pr.gi, aerr)
		}
		ph.Observe(ms(ar.Duration))
		if i == 0 {
			last = d // the disperse probe
		} else {
			defer d.Close()
		}
	}
	if last == nil {
		return 0, 0, 0, fmt.Errorf("e11: flash probe got no promotions")
	}
	defer last.Close()
	// Disperse: the first fan leaves the hot cell for its neighbour.
	pos := aps[1].Position().Add(-400, 0)
	if err := s.ConnectUERadio(fmt.Sprintf("fan%d", promos[0].gi), aps[1].ID(), pos); err != nil {
		return 0, 0, 0, err
	}
	gap, err := probeHandover(s, aps[0], aps[1], last, m)
	if err != nil {
		return 0, 0, 0, err
	}
	var rec mobility.Record
	for _, r := range m.Records() {
		if r.IMSI == last.IMSI() {
			rec = r
		}
	}
	return ph.Quantile(0.5), ms(gap), float64(rec.SignalingBytes()), nil
}

// probeFailureDLTE crashes the probe's serving AP (simnet link cut —
// the AP is unreachable from UE, registry, and peers) and checks the
// UE re-attaches to a surviving island. Returns (survived, outage).
func probeFailureDLTE(seed int64) (bool, time.Duration, error) {
	s, aps, err := newMobilityWorld(3, 2.0, seed, nil)
	if err != nil {
		return false, 0, err
	}
	defer s.Close()
	// The survivor island must authenticate the refugee locally: sync
	// the open registry's published keys ahead of time (dLTE's standing
	// posture — any AP can serve any published subscriber).
	d, _, err := attachNewUE(s, aps[0], "refugee", imsiFor(11, 500), 0.8)
	if err != nil {
		return false, 0, err
	}
	defer d.Close()
	if _, err := aps[1].SyncSubscriberKeys(); err != nil {
		return false, 0, err
	}
	pos := aps[0].Position().Add(800, 0)
	if err := s.ConnectUERadio("refugee", aps[1].ID(), pos); err != nil {
		return false, 0, err
	}
	// The wave hits: ap1 drops off the network entirely.
	for _, peer := range []string{"refugee", aps[1].ID(), aps[2].ID(), "registry", "ott"} {
		s.Net.SetLinkDown(aps[0].ID(), peer, true)
	}
	clk := s.Clock()
	t0 := clk.Now()
	if _, err := d.Attach(aps[1].AirAddr(), 10*time.Second); err != nil {
		return false, 0, nil // stranded: no island in reach
	}
	outage := clk.Now().Sub(t0)
	// Recovery: the AP restarts; nothing should still reference it.
	for _, peer := range []string{"refugee", aps[1].ID(), aps[2].ID(), "registry", "ott"} {
		s.Net.SetLinkDown(aps[0].ID(), peer, false)
	}
	return true, outage, nil
}

// probeFailureTelecom runs the same wave against the centralized
// baseline: the wave takes out the operator core's site, so even the
// surviving cell site cannot attach anyone — sessions behind a dead
// EPC do not survive.
func probeFailureTelecom(seed int64) (bool, error) {
	n := simnet.NewVirtualNetwork(defaultWAN, seed)
	defer n.Close()
	central, err := baseline.NewCentralized(n, "epc", baseline.CentralizedConfig{
		TAC: 11, WANLink: defaultWAN,
	})
	if err != nil {
		return false, err
	}
	defer central.Close()
	site1, err := central.AddSite("site1")
	if err != nil {
		return false, err
	}
	site2, err := central.AddSite("site2")
	if err != nil {
		return false, err
	}
	d, _, err := attachCentralUE(n, central, "site1", site1.AirAddr(), imsiFor(11, 600))
	if err != nil {
		return false, err
	}
	defer d.Close()
	// The wave takes the core's site with it: both cell sites lose
	// their backhaul to the EPC.
	n.SetLinkDown("site1", central.CoreHost(), true)
	n.SetLinkDown("site2", central.CoreHost(), true)
	// The UE can hear site2 perfectly well — but site2 has no core.
	n.SetLink("ue-"+string(imsiFor(11, 600)), "site2", simnet.Link{Latency: 5 * time.Millisecond})
	if _, err := d.Attach(site2.AirAddr(), 5*time.Second); err != nil {
		return false, nil // stranded, as the architecture dictates
	}
	return true, nil
}

// runE11Compact runs the scenario's compact worlds and fills the row's
// compact columns, returning the dLTE world's promotion log for the
// flash-crowd probe.
//
// Only a failure wave compiles a telecom world. Elsewhere the scheme
// changes nothing but the code a handover's interruption counts at: no
// cell fails, so measure never takes the telecom-dead branch and the
// telecom world replays the dLTE world's movement exactly. Its row is
// therefore derived — the same handover count, every interruption the
// flat centralHandoverMs, survival 1.0 — and
// TestE11DerivedTelecomMatchesSimulated holds the derivation to the
// simulated world.
func runE11Compact(spec ScenarioSpec, opt Options, seed int64) (e11Row, []scenPromo, error) {
	row := e11Row{spec: spec}
	w, err := runCompactScenario(spec, SchemeDLTE, seed, opt.workers())
	if err != nil {
		return row, nil, err
	}
	row.hoDLTE = w.Handovers()
	row.p50DLTE, row.p99DLTE = w.InterruptionQuantiles()
	_, _, row.survDLTE = w.Outage()
	var promos []scenPromo
	if spec.Kind == KindFlashCrowd {
		promos = w.Promotions()
	}

	if spec.Kind != KindFailureWave {
		row.hoTelecom = row.hoDLTE
		row.p50Tel, row.p99Tel = scenTelecomQuantiles(row.hoDLTE)
		row.survTel = 1.0
		return row, promos, nil
	}
	tw, err := runCompactScenario(spec, SchemeTelecom, seed, opt.workers())
	if err != nil {
		return row, nil, err
	}
	row.hoTelecom = tw.Handovers()
	row.p50Tel, row.p99Tel = tw.InterruptionQuantiles()
	_, _, row.survTel = tw.Outage()
	return row, promos, nil
}

// runCompactScenario compiles, runs and verifies one compact world.
func runCompactScenario(spec ScenarioSpec, scheme Scheme, seed int64, workers int) (*CompiledScenario, error) {
	w, err := CompileScenario(spec, scheme, seed, workers)
	if err != nil {
		return nil, err
	}
	if err := w.Run(); err != nil {
		return nil, err
	}
	return w, w.Verify()
}

// runE11Scenario executes one scenario end to end: the compact worlds
// plus the scenario's real probe legs.
func runE11Scenario(spec ScenarioSpec, opt Options, seed int64) (e11Row, error) {
	row, promos, err := runE11Compact(spec, opt, seed)
	if err != nil {
		return row, err
	}

	switch spec.Kind {
	case KindCorridor:
		probeMs, probeBytes, err := probeCorridor(seed)
		if err != nil {
			return row, err
		}
		row.probeMs, row.probeBytes = probeMs, probeBytes
	case KindFlashCrowd:
		row.promoted = len(promos)
		pp50, hoMs, hoBytes, err := probeFlash(seed, promos)
		if err != nil {
			return row, err
		}
		row.promoP50, row.probeMs, row.probeBytes = pp50, hoMs, hoBytes
	case KindFailureWave:
		survived, outage, err := probeFailureDLTE(seed)
		if err != nil {
			return row, err
		}
		row.probeSurvived, row.probeMs = survived, ms(outage)
		// Bytes per handover: the wave's re-attach is a cold attach at
		// the island (no X2 prepare possible — the source is dead), so
		// reuse the corridor probe's full-arc cost for the table.
		_, probeBytes, err := probeCorridor(seed + 7)
		if err != nil {
			return row, err
		}
		row.probeBytes = probeBytes
		telOK, err := probeFailureTelecom(seed)
		if err != nil {
			return row, err
		}
		row.probeTelSurvived = telOK
	}
	return row, nil
}

// RunE11 runs the three scenarios (each an independent job under
// opt.Parallelism) and renders one table, dLTE and telecom rows per
// scenario.
func RunE11(opt Options) (E11Result, error) {
	res := E11Result{
		Handovers:        map[string]uint64{},
		TelecomHandovers: map[string]uint64{},
		Survival:         map[string]float64{},
		TelecomSurvival:  map[string]float64{},
		ProbeInterruptMs: map[string]float64{},
		BytesPerHandover: map[string]float64{},
	}
	telBytes, err := telecomHandoverBytes()
	if err != nil {
		return res, err
	}
	res.TelecomBytesPerHandover = float64(telBytes)

	specs := e11Specs(opt)
	rows := make([]e11Row, len(specs))
	err = forEachWorld(opt, len(specs), func(i int) error {
		r, e := runE11Scenario(specs[i], opt, opt.Seed+int64(i)*1000)
		rows[i] = r
		return e
	})
	if err != nil {
		return res, err
	}

	t := metrics.NewTable("E11 — §4.2 at city scale: compiled mobility scenarios, dLTE vs telecom",
		"scenario", "scheme", "UEs", "handovers", "interrupt p50 ms", "p99 ms", "probe ms", "B/handover", "survival %")
	for _, r := range rows {
		name := r.spec.Name
		probeDLTE := fmt.Sprintf("%.1f", r.probeMs)
		probeTel := fmt.Sprintf("%.1f", centralHandoverMs)
		survTelProbe := ""
		if r.spec.Kind == KindFailureWave {
			if !r.probeSurvived {
				probeDLTE = "stranded"
			}
			if r.probeTelSurvived {
				survTelProbe = " (probe survived?)"
			} else {
				probeTel = "dead EPC"
			}
		}
		t.AddRow(name, SchemeDLTE.String(), r.spec.UEs, r.hoDLTE,
			fmt.Sprintf("%.1f", r.p50DLTE), fmt.Sprintf("%.1f", r.p99DLTE),
			probeDLTE, fmt.Sprintf("%.0f", r.probeBytes),
			fmt.Sprintf("%.1f", 100*r.survDLTE))
		t.AddRow(name, SchemeTelecom.String(), r.spec.UEs, r.hoTelecom,
			fmt.Sprintf("%.1f", r.p50Tel), fmt.Sprintf("%.1f", r.p99Tel),
			probeTel, fmt.Sprintf("%.0f", float64(telBytes)),
			fmt.Sprintf("%.1f%s", 100*r.survTel, survTelProbe))

		res.Handovers[name] = r.hoDLTE
		res.TelecomHandovers[name] = r.hoTelecom
		res.Survival[name] = r.survDLTE
		res.TelecomSurvival[name] = r.survTel
		res.ProbeInterruptMs[name] = r.probeMs
		res.BytesPerHandover[name] = r.probeBytes
		if r.spec.Kind == KindFailureWave {
			res.FailureProbeSurvived = r.probeSurvived
			res.FailureProbeTelecomSurvived = r.probeTelSurvived
		}
	}
	res.Table = t
	opt.emit(t)
	return res, nil
}
