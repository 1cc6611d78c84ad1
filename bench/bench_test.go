package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"dlte/internal/exp"
)

// The real stack misfires on more than one P (ROADMAP item 1): these
// tests must not inherit that, so the whole package runs on one.
func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(1)
	os.Exit(m.Run())
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentilesAndQuartiles(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median(xs[:9]); got != 5 {
		t.Errorf("odd median = %v, want 5", got)
	}
	for _, c := range []struct{ p, want float64 }{{0.50, 5}, {0.95, 10}, {0.90, 9}, {0.01, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("one-sample p95 = %v, want the sample", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q2, q3 := quartiles(xs); !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if q1, q2, q3 := quartiles([]float64{5, 4, 3, 2, 1}); !near(q1, 1.5) || !near(q2, 3) || !near(q3, 4.5) {
		t.Errorf("quartiles = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
	if got := spread(xs); !near(got, 1) { // (8.25 - 2.75) / 5.5
		t.Errorf("spread = %v, want 1", got)
	}
	if xs[0] != 9 {
		t.Error("statistics must not reorder their input")
	}
}

func TestSegmentMedians(t *testing.T) {
	r := runResult{segs: []segment{
		{setupS: 0.3, opMs: []float64{1, 2, 3, 4}, wallS: 2, cpuUs: 4000, mallocs: 1000, bytes: 64000, units: 100},
		{setupS: 0.1, opMs: []float64{2, 2, 2, 9}, wallS: 1, cpuUs: 1000, mallocs: 1100, bytes: 32000, units: 100},
		{setupS: 0.2, opMs: []float64{5, 5, 5, 5}, wallS: 4, cpuUs: 2000, mallocs: 1200, bytes: 16000, units: 100},
	}}
	for metric, want := range map[string]float64{
		"setup_s":              0.2,
		"units_per_s":          50, // 50, 100, 25
		"op_p50_ms":            2,  // 2, 2, 5
		"op_p95_ms":            2,  // too few ops for a tail: the medians again
		"cpu_us_per_unit":      20, // 40, 10, 20
		"allocs_per_unit":      11,
		"alloc_bytes_per_unit": 320,
	} {
		if got := median(r.perSegment(metric)); !near(got, want) {
			t.Errorf("%s = %v, want %v", metric, got, want)
		}
	}
	r.segs[0].digest, r.segs[1].digest, r.segs[2].digest = 7, 7, 7
	r.segs[0].stable, r.segs[1].stable, r.segs[2].stable = true, true, true
	if !r.digestsAgree() {
		t.Error("equal stable digests must agree")
	}
	r.segs[2].digest = 8
	if r.digestsAgree() {
		t.Error("a differing segment digest must not agree")
	}
	r.segs[2].digest, r.segs[1].stable = 7, false
	if r.digestsAgree() {
		t.Error("an unstable segment must not agree")
	}
}

func TestTailNeedsSamples(t *testing.T) {
	ops := make([]float64, tailSamples)
	for i := range ops {
		ops[i] = float64(i + 1)
	}
	if got := tailMs(ops); got != 0.95*tailSamples {
		t.Errorf("tail of %d ops = %v, want their 95th percentile", len(ops), got)
	}
	if got := tailMs(ops[:tailSamples-1]); got != 100 {
		t.Errorf("tail of %d ops = %v, want their median", tailSamples-1, got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{name: "root", parent: noSpan, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 30},
		{name: "b", parent: 0, start: 20, end: 50}, // overlaps a: the union covers 10..50
		{name: "c", parent: 0, start: 70, end: 80},
		{name: "leaf", parent: 2, start: 25, end: 45},
		{name: "late", parent: 0, start: 95, end: 120}, // clipped to the parent's end
	}
	want := []int64{100 - (40 + 10 + 5), 20, 30 - 20, 10, 20, 25}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].name, got, want[i])
		}
	}

	tr := newTracer()
	root := tr.begin("root", noSpan, 0)
	kid := tr.begin("kid", root, 0)
	tr.end(kid)
	tr.end(root)
	tr.observe("x", 3)
	st := tr.stats()
	if st["root"].count != 1 || st["kid"].count != 1 || st["root"].self > st["root"].total {
		t.Errorf("stats = %+v", st)
	}
	if got := st["root"].self + st["kid"].total; got != st["root"].total {
		t.Errorf("self + child = %v, want the root's %v", got, st["root"].total)
	}
	var none *tracer // a gating run: every call must be a no-op
	none.end(none.begin("x", noSpan, 0))
	none.observe("x", 1)
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{name: "op_p50_ms", better: "lower", bound: 0.07}
	higher := metricDef{name: "units_per_s", better: "higher", bound: 0.07}
	parent := []float64{100, 101, 99, 100.5, 99.5, 100, 101, 99, 100.2, 99.8}
	scale := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, p := range parent {
			out[i] = p * f
		}
		return out
	}
	for _, c := range []struct {
		name           string
		m              metricDef
		parent, change []float64
		want           string
	}{
		{"same runs", lower, parent, parent, unchanged},
		{"3% slower is inside the bound", lower, parent, scale(1.03), unchanged},
		{"10% slower, every run worse", lower, parent, scale(1.10), worse},
		{"10% faster, every pair wins", lower, parent, scale(0.90), improved},
		{"higher is better: 10% more is a gain", higher, parent, scale(1.10), improved},
		{"higher is better: 10% less is a loss", higher, parent, scale(0.90), worse},
		{"wide spread, runs interleave", lower, []float64{80, 120, 90, 110, 100, 85, 115, 95, 105, 100},
			[]float64{82, 118, 93, 108, 104, 88, 113, 97, 103, 101}, unresolved},
		{"wide spread, but every run of the change is better", lower, []float64{80, 120, 90, 110, 100},
			[]float64{60, 70, 65, 75, 62}, improved},
		{"one run each: segments are the samples, gain not claimable", lower, []float64{100}, []float64{90}, unchanged},
	} {
		if got := c.m.verdict(c.parent, c.change); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareFiles drives -compare end to end, including the one rule
// that is absolute rather than a share of the median: any failed unit
// the parent did not have is a regression.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, failed int, p50 float64, digest string) string {
		path := filepath.Join(dir, name)
		for seed := int64(1); seed <= 4; seed++ {
			rec := record{
				Workload: "attach_storm", Seed: seed, Correct: failed == 0,
				Attempted: 1000, Failed: failed, SimDigest: digest,
				Metrics: map[string]measured{}, Segments: map[string][]float64{},
				Machine: machine{GOMAXPROCS: 1},
			}
			for _, m := range endToEnd {
				rec.Metrics[m.name] = measured{100, m.unit}
			}
			rec.Metrics["op_p50_ms"] = measured{p50 + float64(seed)/100, "ms"}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	parent := write("parent.jsonl", 0, 100, "aa")
	change := write("change.jsonl", 1, 150, "bb")
	var out bytes.Buffer
	if err := compareFiles(&out, parent, change); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"attach_storm  (4 parent run(s), 4 change run(s)",
		"0/4000", "4/4000",
		"DIFFER on 4 of 4 common seed(s)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
	verdictOf := func(metric string) string {
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) > 0 && f[0] == metric {
				return f[len(f)-1]
			}
		}
		return ""
	}
	if got := verdictOf("op_p50_ms"); got != worse {
		t.Errorf("op_p50_ms verdict = %q, want worse", got)
	}
	if got := verdictOf("units_per_s"); got != unchanged {
		t.Errorf("units_per_s verdict = %q, want unchanged", got)
	}
	if got := verdictOf("failed_units_ratio"); got != worse {
		t.Errorf("failed_units_ratio verdict = %q, want worse", got)
	}
	if err := compareFiles(&out, parent, filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Error("a missing file must be an error")
	}
}

func TestLedgerArithmetic(t *testing.T) {
	items := []ledgerItem{
		{"deliveries", 20, 400},  // 8 us
		{"parks", 19, 2000},      // 38 us
		{"nas", 1, 7000},         // 7 us
		{"nothing", 0, 1_000_00}, // a layer a unit never enters costs nothing
	}
	if got := attributed(items); !near(got, 53) {
		t.Errorf("attributed = %v us, want 53", got)
	}
	if got := attributed(nil); got != 0 {
		t.Errorf("empty ledger = %v, want 0", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatches keeps BENCHMARK.json and the program's own
// tables in step: same workloads, same metrics, same units and bounds.
func TestManifestMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var man struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&man); err != nil {
		t.Fatal(err)
	}
	if strings.Join(man.Command, " ") != "go run ./bench" || len(man.Paths) != 1 || man.Paths[0] != "bench" {
		t.Errorf("command %v paths %v", man.Command, man.Paths)
	}
	if man.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program defaults to %d", man.RunSeconds, defaultSeconds)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(man.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, wl := range workloads {
		unique(wl.name)
		if man.Workloads[i].Name != wl.name || man.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: manifest %+v, program %s / %s", i, man.Workloads[i], wl.name, wl.why)
		}
		if len(wl.why) > 200 || strings.Contains(wl.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", wl.name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the manifest, %d in the program", kind, len(got), len(want))
		}
		for i, w := range want {
			unique(w.name)
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: manifest %+v, program %+v", kind, i, g, w)
			}
			if w.better != "lower" && w.better != "higher" {
				t.Errorf("%s: better = %q", w.name, w.better)
			}
			if !unitRE.MatchString(w.unit) {
				t.Errorf("%s: unit %q", w.name, w.unit)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.bound || w.bound <= 0 || w.bound > 0.25):
				t.Errorf("%s: manifest bound %v, program bound %v (want 0 < bound <= 0.25)", w.name, g.Bound, w.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", w.name)
			}
		}
	}
	check("end_to_end", man.EndToEnd, endToEnd, true)
	check("per_layer", man.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the manifest's limits", len(endToEnd), len(perLayer))
	}
	if d := endToEnd[0]; d.name != "setup_s" || d.unit != "s" || d.better != "lower" {
		t.Error("setup_s must be an end-to-end metric in seconds, lower is better")
	}
}

// smokeOps shrinks every workload to about a hundredth of a gating
// run; the city keeps its shape but houses 2 000 UEs, not 200 000.
func smokeWorkload(wl *workload) (*workload, int) {
	small := *wl
	ops := wl.opsPerSegment(0.1)
	if wl.name == "city_corridor" {
		small.build = func(seed int64, _ *tracer) (world, error) {
			spec := citySpec
			spec.UEs = 2000
			return &cityWorld{spec: spec, seed: seed, workers: 1}, nil
		}
	}
	small.procs = one
	return &small, ops
}

// TestSmokeAllWorkloads runs all five workloads at about 1/100 size
// and holds them to what a gating run is held to: no failed unit,
// equal segment digests, and a well-formed result.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			small, ops := smokeWorkload(wl)
			var table bytes.Buffer
			rec, err := runGating(&table, small, 7, ops)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Failed != 0 || rec.Attempted < 1 || !rec.Correct {
				t.Errorf("failed %d of %d units, correct = %v\n%s", rec.Failed, rec.Attempted, rec.Correct, table.String())
			}
			var line struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]measured
			}
			dec := json.NewDecoder(bytes.NewReader(rec.resultLine()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("result line: %v", err)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(endToEnd) {
				t.Fatalf("result line is malformed: %s", rec.resultLine())
			}
			for _, m := range endToEnd {
				got, ok := line.Metrics[m.name]
				if !ok || got.Unit != m.unit || !(got.Value > 0) || math.IsInf(got.Value, 0) {
					t.Errorf("%s = %+v (present %v): want a positive finite value in %s", m.name, got, ok, m.unit)
				}
				if !strings.Contains(table.String(), m.name) {
					t.Errorf("the printed table lacks %s", m.name)
				}
			}
			if len(rec.Segments["units_per_s"]) != wl.segments {
				t.Errorf("%d segment values, want %d", len(rec.Segments["units_per_s"]), wl.segments)
			}
		})
	}
}

// TestSeedIsTheInput checks that a world is a function of its seed: one
// seed draws the same inputs and simulates the same thing twice, and
// another seed draws other inputs.
func TestSeedIsTheInput(t *testing.T) {
	world := func(seed int64) (payload []byte, digest uint64) {
		w, err := buildEcho(seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer w.close()
		payload = append(payload, w.(*echoWorld).flows[0].payload[8:]...)
		if _, failed := w.op(0, nil); failed != 0 {
			t.Fatalf("seed %d: %d round trips failed", seed, failed)
		}
		digest, _ = w.digest()
		return payload, digest
	}
	p1, d1 := world(1)
	p1again, d1again := world(1)
	p2, _ := world(2)
	if !bytes.Equal(p1, p1again) || d1 != d1again {
		t.Errorf("seed 1 drew or simulated two different things (%x, %x)", d1, d1again)
	}
	if bytes.Equal(p1, p2) {
		t.Error("seeds 1 and 2 drew the same payload")
	}
}

// TestTracedSegment runs a traced storm and wave and checks the spans
// the ledger reads: every attach is a child of its round, and the three
// mobility phases tile the arc.
func TestTracedSegment(t *testing.T) {
	tr := newTracer()
	for _, name := range []string{"attach_storm", "handover_wave"} {
		small, ops := smokeWorkload(workloadByName(name))
		small.segments = 1
		if res, err := runSegments(small, 7, ops, tr); err != nil || res.failed != 0 {
			t.Fatalf("%s: err %v, %d failed", name, err, res.failed)
		}
	}
	st := tr.stats()
	if st["ue.attach"].count != st["storm.round"].count*stormAPs*stormUEsPerAP {
		t.Errorf("%d attach spans under %d rounds", st["ue.attach"].count, st["storm.round"].count)
	}
	if st["core.add_ap"].count != stormAPs+2 || st["core.close"].count != 2 {
		t.Errorf("lifecycle spans: %d add_ap, %d close", st["core.add_ap"].count, st["core.close"].count)
	}
	phases := st["mobility.prepare"].total + st["mobility.execute"].total + st["mobility.complete"].total
	arc := st["arc"].total
	if arc == 0 || math.Abs(float64(phases-arc)) > 0.05*float64(arc) {
		t.Errorf("mobility phases sum to %v, the arc spans %v", phases, arc)
	}
	if len(tr.values["sim.attach_ms"]) == 0 || len(tr.values["sim.ho_interrupt_ms"]) == 0 {
		t.Error("traced ops must record their simulated latencies")
	}
	if err := tr.writeSpans(filepath.Join(t.TempDir(), "spans.jsonl")); err != nil {
		t.Error(err)
	}
}

// TestProbes runs every isolated probe once: each must succeed, price a
// call above zero, and report under a name the manifest lists.
func TestProbes(t *testing.T) {
	got, err := probes()
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, d := range perLayer {
		listed[d.name] = true
	}
	for name, v := range got {
		if !listed[name] {
			t.Errorf("probe metric %s is not a per-layer metric", name)
		}
		if !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("%s = %v, want a positive finite cost", name, v)
		}
	}
	if len(got) < 20 {
		t.Errorf("only %d probe metrics", len(got))
	}
}

// TestAPIDiscipline keeps the benchmark off the surfaces ROADMAP items 1
// and 5 want to delete: a benchmark that needed them would block that.
func TestAPIDiscipline(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	banned := regexp.MustCompile(`simnet\.New\(|NewWallScenario|simnet\.Poke|\.Poke\(|Shards\s*[:=]`)
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if loc := banned.FindIndex(src); loc != nil {
			t.Errorf("%s uses a surface slated for deletion: %q", f, src[loc[0]:loc[1]])
		}
	}
	// The city's shape is part of the benchmark's definition.
	want := exp.ScenarioSpec{
		Name: "bench-corridor", Kind: exp.KindCorridor, UEs: 200_000, APs: 32,
		SpacingM: 1000, SpeedMps: 25, Horizon: 120 * time.Second,
	}
	if citySpec != want {
		t.Errorf("citySpec = %+v", citySpec)
	}
}
