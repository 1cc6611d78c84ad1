package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// The traced run: every per-layer metric in one pass. It runs the
// isolated probes, then a short untraced and a short traced segment of
// each workload (their ratio is the tracing overhead), then the
// multi-core reliability checks, and last folds unit costs and
// per-unit counts into the ledger. The workload named on the command
// line decides nothing here but is recorded with the result.

// perLayer lists every per-layer metric a traced run reports, in the
// order the ledger prints them. BENCHMARK.json lists the same names.
var perLayer = []metricDef{
	// simnet: unit costs from probes, per-unit counts from ExecStats.
	{name: "simnet.stream_hop_ns", unit: "ns", better: "lower"},
	{name: "simnet.pkt_hop_ns", unit: "ns", better: "lower"},
	{name: "simnet.sleep_wake_ns", unit: "ns", better: "lower"},
	{name: "simnet.timer_ns", unit: "ns", better: "lower"},
	{name: "simnet.dispatches_per_attach", unit: "count", better: "lower"},
	{name: "simnet.legacy_deliveries_per_attach", unit: "count", better: "lower"},
	{name: "simnet.parks_per_attach", unit: "count", better: "lower"},
	{name: "simnet.dispatches_per_arc", unit: "count", better: "lower"},
	{name: "simnet.legacy_deliveries_per_arc", unit: "count", better: "lower"},
	{name: "simnet.parks_per_arc", unit: "count", better: "lower"},
	{name: "simnet.dispatches_per_rt", unit: "count", better: "lower"},
	{name: "simnet.legacy_deliveries_per_rt", unit: "count", better: "lower"},
	{name: "simnet.parks_per_rt", unit: "count", better: "lower"},
	// wire / s1ap / nas / auth / session.
	{name: "wire.frame_ns", unit: "ns", better: "lower"},
	{name: "s1ap.codec_ns", unit: "ns", better: "lower"},
	{name: "s1ap.msgs_per_attach", unit: "count", better: "lower"},
	{name: "nas.attach_proc_ns", unit: "ns", better: "lower"},
	{name: "nas.detach_proc_ns", unit: "ns", better: "lower"},
	{name: "nas.bytes_per_attach", unit: "B", better: "lower"},
	{name: "auth.vector_ns", unit: "ns", better: "lower"},
	{name: "session.attach_fsm_ns", unit: "ns", better: "lower"},
	// epc / gtp / enb / ue.
	{name: "ue.lone_attach_us", unit: "us", better: "lower"},
	{name: "epc.attaches_per_attempt", unit: "ratio", better: "higher"},
	{name: "epc.rejects", unit: "count", better: "lower"},
	{name: "epc.up_drops", unit: "count", better: "lower"},
	{name: "gtp.send_demux_ns", unit: "ns", better: "lower"},
	{name: "bearer.write_ns", unit: "ns", better: "lower"},
	{name: "bearer.read_ns", unit: "ns", better: "lower"},
	{name: "bearer.rt64_ns", unit: "ns", better: "lower"},
	{name: "bearer.rt1200_ns", unit: "ns", better: "lower"},
	{name: "bearer.tunnel_rt_ns", unit: "ns", better: "lower"},
	// mobility / x2 / registry.
	{name: "mobility.arc_us", unit: "us", better: "lower"},
	{name: "mobility.prepare_us", unit: "us", better: "lower"},
	{name: "mobility.execute_us", unit: "us", better: "lower"},
	{name: "mobility.complete_us", unit: "us", better: "lower"},
	{name: "mobility.x2_bytes_per_ho", unit: "B", better: "lower"},
	{name: "mobility.nas_bytes_per_ho", unit: "B", better: "lower"},
	{name: "mobility.trigger_ns", unit: "ns", better: "lower"},
	{name: "x2.marshal_ns", unit: "ns", better: "lower"},
	{name: "registry.sync_keys_us", unit: "us", better: "lower"},
	{name: "registry.discover_us", unit: "us", better: "lower"},
	{name: "registry.get_ns", unit: "ns", better: "lower"},
	{name: "registry.inregion_ns", unit: "ns", better: "lower"},
	{name: "registry.join_ns", unit: "ns", better: "lower"},
	// core: world lifecycle.
	{name: "core.new_scenario_us", unit: "us", better: "lower"},
	{name: "core.add_ap_us", unit: "us", better: "lower"},
	{name: "core.add_ue_us", unit: "us", better: "lower"},
	{name: "core.connect_radio_us", unit: "us", better: "lower"},
	{name: "core.close_us", unit: "us", better: "lower"},
	// exp / phy / metrics.
	{name: "exp.E1_ms", unit: "ms", better: "lower"},
	{name: "exp.E2_ms", unit: "ms", better: "lower"},
	{name: "exp.E2b_ms", unit: "ms", better: "lower"},
	{name: "exp.E3_ms", unit: "ms", better: "lower"},
	{name: "exp.E4_ms", unit: "ms", better: "lower"},
	{name: "exp.E5_ms", unit: "ms", better: "lower"},
	{name: "exp.E6_ms", unit: "ms", better: "lower"},
	{name: "exp.E7_ms", unit: "ms", better: "lower"},
	{name: "exp.E8_ms", unit: "ms", better: "lower"},
	{name: "exp.E9_ms", unit: "ms", better: "lower"},
	{name: "exp.E10_ms", unit: "ms", better: "lower"},
	{name: "exp.E11_ms", unit: "ms", better: "lower"},
	{name: "exp.E12_ms", unit: "ms", better: "lower"},
	{name: "exp.E13_ms", unit: "ms", better: "lower"},
	{name: "phy.dcf32_ms", unit: "ms", better: "lower"},
	{name: "phy.dcf256_ms", unit: "ms", better: "lower"},
	{name: "phy.coex_ms", unit: "ms", better: "lower"},
	{name: "metrics.hist_observe_ns", unit: "ns", better: "lower"},
	{name: "metrics.hist_quantile_us", unit: "us", better: "lower"},
	// compact world.
	{name: "city.compile_ms", unit: "ms", better: "lower"},
	{name: "city.run_ms", unit: "ms", better: "lower"},
	{name: "city.verify_ms", unit: "ms", better: "lower"},
	{name: "city.heap_bytes_per_ue", unit: "B", better: "lower"},
	{name: "city.worker_speedup", unit: "ratio", better: "higher"},
	{name: "ue.idlepool_cycle_ns", unit: "ns", better: "lower"},
	// simulated statistics: a pure speed-up leaves every one identical.
	{name: "sim.attach_ms_p50", unit: "ms", better: "lower"},
	{name: "sim.attach_ms_p99", unit: "ms", better: "lower"},
	{name: "sim.ho_interrupt_ms_p50", unit: "ms", better: "lower"},
	{name: "sim.echo_rtt_ms_p50", unit: "ms", better: "lower"},
	{name: "sim.city_events", unit: "count", better: "lower"},
	{name: "sim.city_handovers", unit: "count", better: "lower"},
	{name: "sim.city_interrupt_ms_p50", unit: "ms", better: "lower"},
	// multi-core reliability, at GOMAXPROCS = nproc; never gating.
	{name: "mp.attach_fail_ratio", unit: "ratio", better: "lower"},
	{name: "mp.suite_fail_ratio", unit: "ratio", better: "lower"},
	{name: "mp.suite_digest_agree", unit: "ratio", better: "higher"},
	{name: "mp.suite_speedup", unit: "ratio", better: "higher"},
	// ledger: share of a unit's CPU that count x unit cost explains.
	{name: "ledger.attach_attributed_ratio", unit: "ratio", better: "higher"},
	{name: "ledger.handover_attributed_ratio", unit: "ratio", better: "higher"},
	{name: "ledger.echo_attributed_ratio", unit: "ratio", better: "higher"},
	// tracing overhead: traced / untraced units_per_s.
	{name: "trace.overhead_ratio.attach_storm", unit: "ratio", better: "higher"},
	{name: "trace.overhead_ratio.handover_wave", unit: "ratio", better: "higher"},
	{name: "trace.overhead_ratio.bearer_echo", unit: "ratio", better: "higher"},
	{name: "trace.overhead_ratio.experiment_suite", unit: "ratio", better: "higher"},
	{name: "trace.overhead_ratio.city_corridor", unit: "ratio", better: "higher"},
}

// ledgerItem is one row of a workload's cost ledger: how many times a
// unit enters a layer, and what one entry costs in isolation.
type ledgerItem struct {
	what   string
	count  float64 // per unit
	costNs float64 // per count, from a probe or a span
}

// attributed sums count x cost over the items, in microseconds.
func attributed(items []ledgerItem) float64 {
	var ns float64
	for _, it := range items {
		ns += it.count * it.costNs
	}
	return ns / 1e3
}

// traceShare is how much of -seconds a traced run spends on each
// workload's traced segment (and again on its untraced twin).
const traceShare = 0.05

// pair runs one untraced and one traced single-segment run of wl with
// the same op count, adding their unit counts to total.
func pair(wl *workload, seed int64, seconds float64, tr *tracer, total *runResult) (plain, traced segment, err error) {
	one := *wl
	one.segments = 1
	ops := one.opsPerSegment(seconds * traceShare)
	p, err := runSegments(&one, seed, ops, nil)
	if err != nil {
		return segment{}, segment{}, err
	}
	t, err := runSegments(&one, seed, ops, tr)
	if err != nil {
		return segment{}, segment{}, err
	}
	total.add(p)
	total.add(t)
	if !p.digestsAgree() || !t.digestsAgree() || p.segs[0].digest != t.segs[0].digest {
		err = fmt.Errorf("%s: traced and untraced segments simulated different things", wl.name)
	}
	return p.segs[0], t.segs[0], err
}

// add folds another run's unit counts into r.
func (r *runResult) add(o runResult) {
	r.attempted += o.attempted
	r.failed += o.failed
}

func unitsPerS(s segment) float64 { return float64(s.units) / s.wallS }

// rtNs runs one untraced single-segment run of an echo-shaped world
// and reports host nanoseconds per round trip.
func rtNs(build func(int64, *tracer) (world, error), seed int64, seconds float64, total *runResult) (float64, error) {
	wl := *workloadByName("bearer_echo")
	wl.segments, wl.build = 1, build
	r, err := runSegments(&wl, seed, wl.opsPerSegment(seconds*traceShare), nil)
	if err != nil {
		return 0, err
	}
	total.add(r)
	return 1e9 / unitsPerS(r.segs[0]), nil
}

// pairMetrics records what every traced/untraced pair yields: the
// tracing overhead, and for a real-stack world the simnet execution
// counters per unit (per names the unit: attach, arc, rt).
func pairMetrics(m map[string]float64, workload, per string, plain, traced segment) {
	m["trace.overhead_ratio."+workload] = unitsPerS(traced) / unitsPerS(plain)
	if per == "" {
		return
	}
	c, u := traced.counts, float64(traced.units)
	m["simnet.dispatches_per_"+per] = float64(c.dispatches) / u
	m["simnet.legacy_deliveries_per_"+per] = float64(c.legacy) / u
	m["simnet.parks_per_"+per] = float64(c.parks) / u
}

// simnetItems are the two ledger rows every real-stack unit has:
// deliveries priced at half a hop probe (a probe round trip is two),
// goroutine parks at one sleep/wake.
func simnetItems(m map[string]float64, per, hop string) []ledgerItem {
	return []ledgerItem{
		{"simnet deliveries (" + hop + " / 2)", m["simnet.dispatches_per_"+per] + m["simnet.legacy_deliveries_per_"+per], m["simnet."+hop+"_ns"] / 2},
		{"clock parks (sleep/wake)", m["simnet.parks_per_"+per], m["simnet.sleep_wake_ns"]},
	}
}

func runTraced(w io.Writer, named *workload, seed int64, seconds int, out string) (record, error) {
	secs := float64(seconds)
	tr := newTracer()
	var total runResult

	runtime.GOMAXPROCS(1)
	m, err := probes()
	if err != nil {
		return record{}, err
	}

	// --- attach_storm
	plain, traced, err := pair(workloadByName("attach_storm"), seed, secs, tr, &total)
	if err != nil {
		return record{}, err
	}
	pairMetrics(m, "attach_storm", "attach", plain, traced)
	c, u := traced.counts, float64(traced.units)
	m["s1ap.msgs_per_attach"] = float64(c.sigMsgs) / u
	m["nas.bytes_per_attach"] = float64(c.nasBytes) / u
	m["epc.attaches_per_attempt"] = float64(c.attaches) / u
	m["epc.rejects"] = float64(c.rejects)
	m["sim.attach_ms_p50"] = percentile(tr.values["sim.attach_ms"], 0.50)
	m["sim.attach_ms_p99"] = percentile(tr.values["sim.attach_ms"], 0.99)
	attachCPU := plain.cpuUs / float64(plain.units)
	attachItems := append(simnetItems(m, "attach", "stream_hop"),
		ledgerItem{"s1ap codec + wire frame", m["s1ap.msgs_per_attach"], m["s1ap.codec_ns"] + m["wire.frame_ns"]},
		ledgerItem{"nas two-sided attach (incl. auth vector, session fsm)", 1, m["nas.attach_proc_ns"]},
	)
	if err := loneAttaches(seed, tr); err != nil {
		return record{}, err
	}

	// --- handover_wave
	plain, traced, err = pair(workloadByName("handover_wave"), seed, secs, tr, &total)
	if err != nil {
		return record{}, err
	}
	pairMetrics(m, "handover_wave", "arc", plain, traced)
	c, u = traced.counts, float64(traced.units)
	m["mobility.x2_bytes_per_ho"] = float64(c.x2Bytes) / float64(c.handovers)
	m["mobility.nas_bytes_per_ho"] = float64(c.nasBytes) / float64(c.handovers)
	m["sim.ho_interrupt_ms_p50"] = percentile(tr.values["sim.ho_interrupt_ms"], 0.50)
	arcCPU := plain.cpuUs / float64(plain.units)
	arcItems := append(simnetItems(m, "arc", "stream_hop"),
		ledgerItem{"s1ap codec + wire frame", float64(c.sigMsgs) / u, m["s1ap.codec_ns"] + m["wire.frame_ns"]},
		ledgerItem{"nas two-sided re-attach", 1, m["nas.attach_proc_ns"]},
		ledgerItem{"x2 marshal + wire frame (push, request, ack, complete)", 4, m["x2.marshal_ns"] + m["wire.frame_ns"]},
	)

	// --- bearer_echo, and its payload-size and tunnel variants
	plain, traced, err = pair(workloadByName("bearer_echo"), seed, secs, tr, &total)
	if err != nil {
		return record{}, err
	}
	pairMetrics(m, "bearer_echo", "rt", plain, traced)
	m["epc.up_drops"] = float64(traced.counts.upDrops)
	m["sim.echo_rtt_ms_p50"] = percentile(tr.values["sim.echo_rtt_ms"], 0.50)
	echoCPU := plain.cpuUs / float64(plain.units)
	for name, build := range map[string]func(int64, *tracer) (world, error){
		"bearer.rt64_ns":      func(s int64, t *tracer) (world, error) { return buildEchoSized(s, 64, t) },
		"bearer.rt1200_ns":    func(s int64, t *tracer) (world, error) { return buildEchoSized(s, 1200, t) },
		"bearer.tunnel_rt_ns": buildTunnel,
	} {
		if m[name], err = rtNs(build, seed, secs, &total); err != nil {
			return record{}, err
		}
	}

	// --- experiment_suite
	suiteP1, traced, err := pair(workloadByName("experiment_suite"), seed, secs, tr, &total)
	if err != nil {
		return record{}, err
	}
	pairMetrics(m, "experiment_suite", "", suiteP1, traced)

	// --- city_corridor
	soloRunNs, err := tracedCity(seed, secs, tr, m, &total)
	if err != nil {
		return record{}, err
	}

	// --- multi-core reliability
	if err := multiCore(seed, secs, suiteP1, m); err != nil {
		return record{}, err
	}
	runtime.GOMAXPROCS(1)

	// --- spans
	st := tr.stats()
	meanNs := func(name string) float64 { return float64(st[name].total) / float64(st[name].count) }
	m["ue.lone_attach_us"] = float64(st["ue.lone_attach"].median) / 1e3
	m["bearer.write_ns"] = meanNs("bearer.write")
	m["bearer.read_ns"] = meanNs("bearer.read")
	m["mobility.arc_us"] = meanNs("arc") / 1e3
	for _, ph := range []string{"mobility.prepare", "mobility.execute", "mobility.complete"} {
		m[ph+"_us"] = meanNs(ph) / 1e3
	}
	for _, name := range []string{"registry.sync_keys", "registry.discover", "core.new_scenario", "core.add_ap", "core.add_ue", "core.connect_radio", "core.close"} {
		m[name+"_us"] = float64(st[name].median) / 1e3
	}
	for _, e := range experiments {
		m["exp."+e.name+"_ms"] = float64(st["exp."+e.name].median) / 1e6
	}
	for _, ph := range []string{"compile", "run", "verify"} {
		m["city."+ph+"_ms"] = float64(st["city."+ph].median) / 1e6
	}
	m["city.worker_speedup"] = soloRunNs / float64(st["city.run"].median)
	echoItems := append(simnetItems(m, "rt", "pkt_hop"),
		ledgerItem{"bearer write path (span)", 1, m["bearer.write_ns"]},
	)

	// --- ledger
	fmt.Fprintf(w, "traced run  seed %d  (workload %s named; a traced run covers all five)\n", seed, named.name)
	for _, l := range []struct {
		metric, unit string
		cpuUs        float64
		items        []ledgerItem
	}{
		{"ledger.attach_attributed_ratio", "attach", attachCPU, attachItems},
		{"ledger.handover_attributed_ratio", "arc", arcCPU, arcItems},
		{"ledger.echo_attributed_ratio", "round trip", echoCPU, echoItems},
	} {
		got := attributed(l.items)
		m[l.metric] = got / l.cpuUs
		fmt.Fprintf(w, "\nledger: one %s costs %.2f us of CPU (untraced, GOMAXPROCS 1)\n", l.unit, l.cpuUs)
		for _, it := range l.items {
			fmt.Fprintf(w, "  %8.2f x %9.1f ns = %8.2f us  %s\n", it.count, it.costNs, it.count*it.costNs/1e3, it.what)
		}
		fmt.Fprintf(w, "  attributed %.2f us = %.3f of %.2f us; unattributed remainder %.2f us\n",
			got, got/l.cpuUs, l.cpuUs, l.cpuUs-got)
	}
	arcSum := m["mobility.prepare_us"] + m["mobility.execute_us"] + m["mobility.complete_us"]
	fmt.Fprintf(w, "\nmobility phases sum to %.2f us against an arc span of %.2f us (ratio %.3f, base the arc span)\n",
		arcSum, m["mobility.arc_us"], arcSum/m["mobility.arc_us"])
	fmt.Fprintf(w, "city.worker_speedup %.3f = 1-worker run span / %d-worker run span\n", m["city.worker_speedup"], cityProcs())

	// --- result
	rec := record{
		Workload: named.name, Seed: seed, Seconds: seconds, Trace: 1,
		Attempted: total.attempted, Failed: total.failed,
		Metrics: make(map[string]measured), Machine: fingerprint(1),
	}
	rec.Correct = total.failed == 0
	fmt.Fprintf(w, "\n%-40s %16s %s\n", "per-layer metric", "value", "unit")
	for _, d := range perLayer {
		v, ok := m[d.name]
		if !ok {
			return record{}, fmt.Errorf("traced run produced no %s", d.name)
		}
		rec.Metrics[d.name] = measured{v, d.unit}
		fmt.Fprintf(w, "%-40s %16.6g %s\n", d.name, v, d.unit)
	}
	names := make([]string, 0, len(st))
	for name := range st {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\n%-32s %9s %14s %14s %12s\n", "span", "count", "total ms", "self ms", "median us")
	for _, name := range names {
		s := st[name]
		fmt.Fprintf(w, "%-32s %9d %14.3f %14.3f %12.2f\n", name, s.count,
			float64(s.total)/1e6, float64(s.self)/1e6, float64(s.median)/1e3)
	}
	if out != "" {
		if err := tr.writeSpans(out + ".spans.jsonl"); err != nil {
			return record{}, err
		}
	}
	return rec, nil
}

// loneAttaches times one UE re-attaching by itself in an otherwise
// idle storm world: the latency floor a storm round's p50 sits on.
func loneAttaches(seed int64, tr *tracer) error {
	w, err := buildStorm(seed, nil)
	if err != nil {
		return err
	}
	defer w.close()
	sw := w.(*stormWorld)
	for i := 0; i < 128; i++ {
		sp := noSpan
		if i >= 8 { // the first few allocate the session and its tunnel
			sp = tr.begin("ue.lone_attach", noSpan, i)
		}
		_, err := sw.ues[0].Attach(sw.air[0], 30*time.Second)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("lone attach: %w", err)
		}
	}
	return nil
}

// tracedCity runs the compact world untraced, traced, and on a single
// worker, weighs the live heap of the last, and returns its run span.
func tracedCity(seed int64, secs float64, tr *tracer, m map[string]float64, total *runResult) (soloRunNs float64, err error) {
	city := workloadByName("city_corridor")
	procs := city.procs()
	runtime.GOMAXPROCS(procs)
	plain, traced, err := pair(city, seed, secs, tr, total)
	if err != nil {
		return 0, err
	}
	pairMetrics(m, "city_corridor", "", plain, traced)

	cw := &cityWorld{spec: citySpec, seed: seed}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	solo := newTracer()
	out, cs, err := cw.run(1, 0, solo)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(cs)
	m["city.heap_bytes_per_ue"] = float64(after.HeapAlloc-before.HeapAlloc) / float64(citySpec.UEs)
	m["sim.city_events"] = float64(out.events)
	m["sim.city_handovers"] = float64(out.handovers)
	m["sim.city_interrupt_ms_p50"] = out.p50
	total.attempted += int(out.events)
	return float64(solo.stats()["city.run"].median), nil
}

// multiCore repeats the storm and the suite at GOMAXPROCS = nproc,
// where the clock's settle heuristic is known to misfire (ROADMAP item
// 1). Nothing here gates: the figures say how far the real stack is
// from being measurable on every core.
func multiCore(seed int64, secs float64, suiteP1 segment, m map[string]float64) error {
	runtime.GOMAXPROCS(runtime.NumCPU())
	storm := *workloadByName("attach_storm")
	storm.segments = 1
	r, err := runSegments(&storm, seed, storm.opsPerSegment(secs*traceShare), nil)
	if err != nil {
		// A world that cannot even be built at nproc is the failure
		// this metric exists to show.
		m["mp.attach_fail_ratio"] = 1
	} else {
		m["mp.attach_fail_ratio"] = float64(r.failed) / float64(r.attempted)
	}

	passes := int(secs*0.6 + 0.5)
	if passes < 2 {
		passes = 2
	}
	w := &suiteWorld{seed: seed, parallelism: 0, ref: suiteP1.digest}
	attempted, failed := 0, 0
	before := readUsage()
	for i := 0; i < passes; i++ {
		u, f := w.op(i, nil)
		attempted += u
		failed += f
	}
	wall := readUsage().at.Sub(before.at).Seconds()
	m["mp.suite_fail_ratio"] = float64(failed) / float64(attempted)
	m["mp.suite_digest_agree"] = float64(w.agreeing) / float64(passes)
	m["mp.suite_speedup"] = (median(suiteP1.opMs) / 1e3) / (wall / float64(passes))
	return nil
}
