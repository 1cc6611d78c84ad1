package exp

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"dlte/internal/leaktest"
	"dlte/internal/registry"
)

// Every experiment runs in Quick mode and must reproduce the paper's
// qualitative shape — these are the repository's headline assertions.

func quick() Options { return Options{Quick: true, Seed: 42} }

func TestE1DesignSpaceShape(t *testing.T) {
	res, err := RunE1(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !res.DLTEOpen {
		t.Error("dLTE is not open: a newcomer AP failed to join and serve")
	}
	if res.TelecomOpen {
		t.Error("telecom core accepted a rogue eNodeB")
	}
	if res.DLTEAggMbps <= res.WiFiAggMbps {
		t.Errorf("coordinated aggregate %v ≤ CSMA %v", res.DLTEAggMbps, res.WiFiAggMbps)
	}
	if res.DLTERangeKm < 5*res.WiFiRangeKm {
		t.Errorf("LTE range %v < 5× WiFi range %v", res.DLTERangeKm, res.WiFiRangeKm)
	}
	if res.Table.NumRows() != 5 {
		t.Errorf("table rows = %d", res.Table.NumRows())
	}
}

func TestE2DataPathShape(t *testing.T) {
	res, err := RunE2(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Breakout beats the tunnel once the EPC sits beyond the AP's own
	// Internet distance, and the gap grows with distance.
	var prev float64
	for _, lat := range []int{20, 80} {
		rtt := res.CentralRTTms[lat]
		if rtt <= res.DLTERTTms {
			t.Errorf("central RTT %v at %dms ≤ dLTE %v", rtt, lat, res.DLTERTTms)
		}
		if rtt <= prev {
			t.Errorf("central RTT not increasing with EPC distance: %v after %v", rtt, prev)
		}
		prev = rtt
	}
	if res.CentralAttachms <= res.DLTEAttachms {
		t.Errorf("central attach %v ≤ dLTE attach %v", res.CentralAttachms, res.DLTEAttachms)
	}
}

func TestE3CoreScalingShape(t *testing.T) {
	res, err := RunE3(quick())
	if err != nil {
		t.Fatal(err)
	}
	d1, dN := res.P99ByArch["dlte"][1], res.P99ByArch["dlte"][res.MaxAPs]
	c1, cN := res.P99ByArch["central"][1], res.P99ByArch["central"][res.MaxAPs]
	// The centralized core's p99 grows with scale; dLTE's stays flat
	// (within noise).
	if cN <= c1 {
		t.Errorf("central p99 did not grow: %v → %v", c1, cN)
	}
	if dN > 3*d1+50 {
		t.Errorf("dLTE p99 not flat: %v → %v", d1, dN)
	}
	// At max scale, centralized saturation is visible vs dLTE.
	if cN <= dN {
		t.Errorf("at %d APs: central p99 %v ≤ dLTE p99 %v", res.MaxAPs, cN, dN)
	}
	// E3b: a sharded MME (more signaling processors) relieves the
	// storm — p99 at K=8 must beat the single-processor core. (At the
	// quick storm size K=8 drains the queue entirely, converging on
	// dLTE's latency floor; the centralized core's remaining cost is
	// capacity provisioning, not queueing.)
	k1, k8 := res.ShardedP99ByProcs[1], res.ShardedP99ByProcs[8]
	if k1 == 0 || k8 == 0 {
		t.Fatalf("E3b sweep missing points: %v", res.ShardedP99ByProcs)
	}
	if k8 >= k1 {
		t.Errorf("E3b: p99 at K=8 procs %v ≥ K=1 %v", k8, k1)
	}
	// The K=1 sweep point and the E3 central row at MaxAPs are the
	// same world; their p99s must agree exactly.
	if k1 != cN {
		t.Errorf("E3b K=1 p99 %v != E3 central p99 %v at %d APs", k1, cN, res.MaxAPs)
	}
}

func TestE4MobilityShape(t *testing.T) {
	res, err := RunE4(quick())
	if err != nil {
		t.Fatal(err)
	}
	// MST keeps disruption well below the legacy reconnect path, and
	// both sessions must actually recover.
	if res.MSTDisruptionMs >= res.LegacyDisruptionMs {
		t.Errorf("MST disruption %v ≥ legacy %v", res.MSTDisruptionMs, res.LegacyDisruptionMs)
	}
	if res.LegacyDisruptionMs >= 10000 {
		t.Error("legacy session never recovered after the roam")
	}
	// And the paper's honest concession: MME-masked handover still
	// beats dLTE's re-attach (its breakdown under rapid mobility).
	if res.MSTDisruptionMs <= res.CentralDisruptionMs {
		t.Logf("note: dLTE roam (%vms) beat the modeled MME handover (%vms)", res.MSTDisruptionMs, res.CentralDisruptionMs)
	}
	if res.CrossoverDwellMs == 0 {
		t.Log("no crossover found in swept dwell range (dLTE roam cheap enough)")
	}
	if res.AblationTable == nil || res.AblationTable.NumRows() != 3 {
		t.Error("transport-feature ablation missing")
	}
}

func TestE5SpectrumModesShape(t *testing.T) {
	res, err := RunE5(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Efficiency: coordinated LTE beats CSMA WiFi on total throughput.
	if res.TotalMbps["dLTE fair-share"] <= res.TotalMbps["legacy WiFi (CSMA)"] {
		t.Errorf("fair-share total %v ≤ WiFi %v",
			res.TotalMbps["dLTE fair-share"], res.TotalMbps["legacy WiFi (CSMA)"])
	}
	// Fairness: coordination rescues the worst-served (cell-edge)
	// user that uncoordinated reuse-1 starves.
	if res.MinUserMbps["dLTE fair-share"] <= res.MinUserMbps["selfish LTE (no coordination)"] {
		t.Errorf("fair-share min-user %v ≤ selfish %v",
			res.MinUserMbps["dLTE fair-share"], res.MinUserMbps["selfish LTE (no coordination)"])
	}
	if res.Jain["dLTE fair-share"] <= res.Jain["selfish LTE (no coordination)"] {
		t.Errorf("fair-share Jain %v ≤ selfish %v",
			res.Jain["dLTE fair-share"], res.Jain["selfish LTE (no coordination)"])
	}
	// Fair-share at least matches WiFi's fairness.
	if res.Jain["dLTE fair-share"] < res.Jain["legacy WiFi (CSMA)"]-0.05 {
		t.Errorf("fair-share Jain %v below WiFi %v", res.Jain["dLTE fair-share"], res.Jain["legacy WiFi (CSMA)"])
	}
	// Cooperation recovers aggregate on top of fair-share.
	if res.TotalMbps["dLTE cooperative"] <= res.TotalMbps["dLTE fair-share"] {
		t.Errorf("cooperative total %v ≤ fair-share %v",
			res.TotalMbps["dLTE cooperative"], res.TotalMbps["dLTE fair-share"])
	}
}

func TestE6WaveformShape(t *testing.T) {
	res, err := RunE6(quick())
	if err != nil {
		t.Fatal(err)
	}
	b5 := res.RangeKm["LTE band 5 (850 MHz)"]
	b31 := res.RangeKm["LTE band 31 (450 MHz)"]
	wifi := res.RangeKm["WiFi 2.4 GHz"]
	if b5 < 5*wifi {
		t.Errorf("band 5 range %v < 5× WiFi %v", b5, wifi)
	}
	if b31 < b5 {
		t.Errorf("450 MHz range %v < 850 MHz range %v", b31, b5)
	}
	if res.HARQGainKm <= 0 {
		t.Errorf("HARQ gain = %v km", res.HARQGainKm)
	}
}

func TestE7X2OverheadShape(t *testing.T) {
	res, err := RunE7(quick())
	if err != nil {
		t.Fatal(err)
	}
	// X2 is low-bandwidth: under 10% of even a 256 kbit/s backhaul.
	if res.FractionOf256k > 0.10 {
		t.Errorf("X2 consumes %.1f%% of a 256k backhaul", 100*res.FractionOf256k)
	}
	// And negotiation still converges over the constrained link.
	if res.ConvergenceOn256kMs <= 0 {
		t.Error("negotiation failed over the constrained backhaul")
	}
	// Overhead grows with AP count but stays modest.
	if res.BytesPerSec[4] <= res.BytesPerSec[2] {
		t.Logf("note: X2 rate did not grow 2→4 APs (%v vs %v)", res.BytesPerSec[2], res.BytesPerSec[4])
	}
}

func TestE8DeploymentShape(t *testing.T) {
	res, err := RunE8(quick())
	if err != nil {
		t.Fatal(err)
	}
	// One site covers the town.
	if res.CoveragePct512k < 90 {
		t.Errorf("coverage = %.0f%%, want ≥ 90%%", res.CoveragePct512k)
	}
	if res.PerHomeMbps <= 0 {
		t.Error("no per-home capacity")
	}
	// OTT messaging works end to end through the live stack.
	if res.OTTDelivered < 5 {
		t.Errorf("OTT delivered %d of 6", res.OTTDelivered)
	}
}

func TestE9HiddenAndRelayShape(t *testing.T) {
	res, err := RunE9(quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.RegistryMbps <= res.CSMAHiddenMbps {
		t.Errorf("registry TDM %v ≤ hidden CSMA %v", res.RegistryMbps, res.CSMAHiddenMbps)
	}
	if res.HiddenCollisionRate < 0.2 {
		t.Errorf("hidden collision rate %v suspiciously low", res.HiddenCollisionRate)
	}
	if !res.RelayGranted {
		t.Error("relay grant never arrived during the outage")
	}
	if res.OutageDetectedMs <= 0 {
		t.Error("outage not detected")
	}
	if res.RelayMbps <= 0 {
		t.Error("no relay capacity")
	}
}

// TestE10KeysText: the one-string key text spells each key exactly as
// imsiFor and fmt's "%032x" do.
func TestE10KeysText(t *testing.T) {
	const n = 1234
	keys := newE10Keys(90, n, func(k uint64) uint64 { return k + 1 }, func(k uint64) uint64 { return k ^ 0x5a5a })
	if len(keys) != n*e10KeyLen {
		t.Fatalf("%d keys in %d bytes, want %d", n, len(keys), n*e10KeyLen)
	}
	for _, i := range []int{0, 1, 9, 10, 99, 100, 1000, n - 1} {
		want := registry.KeyRecord{
			IMSI: string(imsiFor(90, i)),
			K:    fmt.Sprintf("%032x", uint64(i)+1),
			OPc:  fmt.Sprintf("%032x", uint64(i)^0x5a5a),
		}
		if got := keys.at(i); got != want {
			t.Errorf("key %d = %+v, want %+v", i, got, want)
		}
	}
}

func TestE10DiscoveryAtScaleShape(t *testing.T) {
	res, err := RunE10(quick())
	if err != nil {
		t.Fatal(err)
	}
	// The headline claim: revision deltas cut steady-state sync bytes
	// by at least an order of magnitude versus list polling, at every
	// deployment size.
	if res.MinReduction < 10 {
		t.Errorf("poll/delta byte reduction %.1f× < 10×", res.MinReduction)
	}
	for n, pollKB := range res.PollKBByAPs {
		deltaKB := res.DeltaKBByAPs[n]
		if deltaKB <= 0 || pollKB <= deltaKB {
			t.Errorf("%d APs: poll %.1f KB vs delta %.1f KB", n, pollKB, deltaKB)
		}
		// Push beats poll on join→discoverable latency: a delta arrives
		// one propagation after the join; a poller waits out its period.
		if res.DeltaP50ByAPs[n] >= res.PollP50ByAPs[n] {
			t.Errorf("%d APs: delta p50 %.1f ms ≥ poll p50 %.1f ms",
				n, res.DeltaP50ByAPs[n], res.PollP50ByAPs[n])
		}
	}
	if got, want := res.SyncTable.NumRows(), len(res.PollKBByAPs); got != want {
		t.Errorf("sync table rows = %d, want %d", got, want)
	}
	if got, want := res.MeshTable.NumRows(), len(res.PollKBByAPs); got != want {
		t.Errorf("mesh table rows = %d, want %d", got, want)
	}
}

// e10QuickBytes bounds the bytes one warm quick E10 run allocates at
// GOMAXPROCS 1: 1.15× the 17.0 MB it measured once each oversize
// registry chunk was allocated once in flight (the stream's copy, which
// the client adopts as its frame and its keys' strings) and each bulk
// reply's result was sized once. The parent of that change measured
// 26.3 MB. Bytes allocated do not depend on the machine, so the bound
// means the same on any host.
const e10QuickBytes = 19_600_000

// e10QuickBytesP8 is the bound at GOMAXPROCS 8, where a pooled
// encoder parked on another P's cache is a miss and a fresh one: 1.1×
// the most it measured (17.0–18.2 MB over 15 runs on a 2-CPU box) once
// the registry server grew a missed encoder to its chunk's size hint at
// once instead of doubling up from 1 KiB. The parent of that change
// measured 18.6–20.2 MB here.
const e10QuickBytesP8 = 20_000_000

// TestE10AllocBytes runs quick E10 serially, once to warm the pools and
// once measured, and bounds the bytes the measured run allocates. The
// collector is off, so no collection empties a pool mid-run. At
// GOMAXPROCS 1 every pool lookup finds the one P's cache; at 8 some
// miss, which the size hints keep from costing regrowth.
func TestE10AllocBytes(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("the race detector's shadow allocations and pool drops inflate the count")
	}
	for _, leg := range []struct {
		procs int
		bound uint64
	}{{1, e10QuickBytes}, {8, e10QuickBytesP8}} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", leg.procs), func(t *testing.T) {
			opt := Options{Quick: true, Seed: 42, Parallelism: 1}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(leg.procs))
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			if _, err := RunE10(opt); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := RunE10(opt); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("quick E10: %d B allocated, bound %d", got, leg.bound)
			if got > leg.bound {
				t.Errorf("quick E10 allocated %d B, want at most %d", got, leg.bound)
			}
		})
	}
}

func TestE5MobilityTriggerAudit(t *testing.T) {
	// The E5 geometry sits entirely inside the mobility trigger's 3 dB
	// hysteresis: no client's neighbor RSRP justifies a handover, so
	// every cross-AP handoff cooperative mode reports is load
	// balancing, not radio necessity. If this starts failing the
	// geometry or the trigger policy changed — update the E5Result
	// commentary along with it.
	if n := e5TriggerEligible(); n != 0 {
		t.Errorf("trigger-eligible users = %d, want 0", n)
	}
	// reassignToBest must pin exactly what phy's internal
	// strongest-cell fallback picks (argmax with lower-index ties):
	// home cell for every comfortable client, and never a cell the
	// user can't hear.
	for i, u := range reassignToBest(e5Geometry()) {
		best := 0
		for c := 1; c < len(u.SINROrthogonal); c++ {
			if u.SINROrthogonal[c] > u.SINROrthogonal[best] {
				best = c
			}
		}
		if u.Home != best {
			t.Errorf("user %d pinned to %d, strongest is %d", i, u.Home, best)
		}
	}
}

func TestE11MobilityScenariosShape(t *testing.T) {
	res, err := RunE11(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"corridor", "flash-crowd", "failure-wave"} {
		if res.Handovers[name] == 0 {
			t.Errorf("%s: compact world recorded no dLTE handovers", name)
		}
		if res.ProbeInterruptMs[name] <= 0 {
			t.Errorf("%s: probe interruption %.1f ms", name, res.ProbeInterruptMs[name])
		}
		if res.BytesPerHandover[name] <= 0 {
			t.Errorf("%s: %.0f signaling bytes per handover", name, res.BytesPerHandover[name])
		}
	}
	// Outside a failure wave every session survives, under both schemes.
	for _, name := range []string{"corridor", "flash-crowd"} {
		if res.Survival[name] != 1 || res.TelecomSurvival[name] != 1 {
			t.Errorf("%s: survival dLTE %.2f telecom %.2f, want 1/1",
				name, res.Survival[name], res.TelecomSurvival[name])
		}
	}
	// The headline resilience claim: dLTE islands keep serving through
	// the AP failure wave while the telecom baseline behind a dead EPC
	// loses everything.
	if res.Survival["failure-wave"] <= 0 {
		t.Error("failure wave: dLTE survival is 0")
	}
	if res.TelecomSurvival["failure-wave"] != 0 {
		t.Errorf("failure wave: telecom survival %.2f, want 0", res.TelecomSurvival["failure-wave"])
	}
	if !res.FailureProbeSurvived {
		t.Error("real-stack failure probe: dLTE UE did not re-attach to a surviving island")
	}
	if res.FailureProbeTelecomSurvived {
		t.Error("real-stack failure probe: telecom UE attached through a dead EPC")
	}
	if res.TelecomBytesPerHandover <= 0 {
		t.Error("telecom baseline handover bytes not derived")
	}
	if got, want := res.Table.NumRows(), 6; got != want {
		t.Errorf("table rows = %d, want %d", got, want)
	}
}

func TestE12CoexFrontierShape(t *testing.T) {
	res, err := RunE12(quick())
	if err != nil {
		t.Fatal(err)
	}
	// The registry partition must recover exactly the constructed
	// geometry at every size.
	for _, size := range res.Sizes {
		if got := res.DomainsBySize[size]; got != size {
			t.Errorf("size %d: registry found %d contention domains", size, got)
		}
	}
	alone := res.WiFiMbps["wifi-alone"]
	if alone <= 0 {
		t.Fatal("wifi-alone produced no throughput")
	}
	// Blind duty cycling degrades WiFi monotonically with the duty
	// fraction and drives the collision rate up.
	prev := alone
	for _, s := range []string{"LTE-U duty 0.33", "LTE-U duty 0.50", "LTE-U duty 0.80"} {
		if res.WiFiMbps[s] >= prev {
			t.Errorf("%s: WiFi %.2f did not degrade below %.2f", s, res.WiFiMbps[s], prev)
		}
		prev = res.WiFiMbps[s]
		if res.WiFiCollisionRate[s] <= res.WiFiCollisionRate["wifi-alone"] {
			t.Errorf("%s: collision rate %.3f not above alone %.3f",
				s, res.WiFiCollisionRate[s], res.WiFiCollisionRate["wifi-alone"])
		}
	}
	// LBT partially restores WiFi versus half-duty LTE-U while carrying
	// far more LTE traffic (its bursts are clean).
	if res.WiFiMbps["LTE LBT"] <= res.WiFiMbps["LTE-U duty 0.50"] {
		t.Errorf("LBT WiFi %.2f ≤ duty-0.50 WiFi %.2f",
			res.WiFiMbps["LTE LBT"], res.WiFiMbps["LTE-U duty 0.50"])
	}
	if res.LTEMbps["LTE LBT"] <= 2*res.LTEMbps["LTE-U duty 0.50"] {
		t.Errorf("LBT LTE %.2f not ≫ duty-0.50 LTE %.2f",
			res.LTEMbps["LTE LBT"], res.LTEMbps["LTE-U duty 0.50"])
	}
	// Registry TDM dominates the frontier: highest total, highest WiFi
	// among the sharing schemes, and the best airtime fairness.
	for _, s := range res.Schemes {
		if s == "registry TDM" {
			continue
		}
		if res.TotalMbps["registry TDM"] <= res.TotalMbps[s] {
			t.Errorf("TDM total %.2f ≤ %s total %.2f", res.TotalMbps["registry TDM"], s, res.TotalMbps[s])
		}
		if s != "wifi-alone" {
			if res.WiFiMbps["registry TDM"] <= res.WiFiMbps[s] {
				t.Errorf("TDM WiFi %.2f ≤ %s WiFi %.2f", res.WiFiMbps["registry TDM"], s, res.WiFiMbps[s])
			}
			if res.AirtimeJain["registry TDM"] < res.AirtimeJain[s] {
				t.Errorf("TDM Jain %.3f < %s Jain %.3f", res.AirtimeJain["registry TDM"], s, res.AirtimeJain[s])
			}
		}
	}
	if res.FrontierTable.NumRows() != len(res.Schemes) {
		t.Errorf("frontier rows = %d, want %d", res.FrontierTable.NumRows(), len(res.Schemes))
	}
	if res.ScaleTable.NumRows() != len(res.Sizes) {
		t.Errorf("scale rows = %d, want %d", res.ScaleTable.NumRows(), len(res.Sizes))
	}
}

// BenchmarkE12 prices the full quick-mode coexistence sweep — city
// construction, the registry partition, and six schemes per domain on
// the event-driven engine — as the experiment-level gate for PHY
// contention performance.
func BenchmarkE12(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunE12(quick()); err != nil {
			b.Fatal(err)
		}
	}
}
