package exp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dlte/internal/simnet"
	"dlte/internal/ue"
)

// scenSteps is a region's three event handlers, as a drain drives them:
// start returns the UE's first measurement tick, measure its next one.
// *scenRegion implements it; refRegion (refscan_test.go) overrides
// start and measure with the reference handlers.
type scenSteps interface {
	start(l int, u scenUE) time.Duration
	measure(l int, now time.Duration) time.Duration
	activity(l int, now time.Duration)
}

// Wheel event kinds, packed kind<<62 | region-local slot index.
const (
	wheelStart = iota
	wheelMeasure
	wheelActivity
)

func wheelArg(kind uint64, l int) uint64 { return kind<<62 | uint64(l) }

// scenWheel is the drain scenario.go ran before it went slot-major,
// kept as the oracle for it. Every region parks its slots' start
// events, then the flash crowd's activity instants, on its own
// simnet.Scheduler; each start and measure parks the UE's next tick;
// and each wheel fires its events in (at, seq) order, which is where
// the slot-major tie rule comes from. The activity instants are filed
// here from the spec, not taken from the regions' acts.
type scenWheel []*simnet.Scheduler

// newScenWheel parks w's opening events. steps picks a region's
// handlers (nil: the region's own); after, if set, sees every event
// once it has fired.
func newScenWheel(w *CompiledScenario, steps func(*scenRegion) scenSteps,
	after func(reg *scenRegion, l int, now time.Duration)) scenWheel {
	var sw scenWheel
	for _, reg := range w.regions {
		var st scenSteps = reg
		if steps != nil {
			st = steps(reg)
		}
		sch := simnet.NewScheduler()
		sch.OnIndexed = func(arg uint64) {
			l := int(arg &^ (uint64(3) << 62))
			gi := reg.base + l
			now := sch.Now()
			switch arg >> 62 {
			case wheelStart:
				sch.AtIndexed(st.start(l, scenDraw(reg.spec, reg.keys.draw, gi)), wheelArg(wheelMeasure, l))
			case wheelMeasure:
				sch.AtIndexed(st.measure(l, now), wheelArg(wheelMeasure, l))
			case wheelActivity:
				st.activity(l, now)
			}
			if after != nil {
				after(reg, l, now)
			}
		}
		for l := 0; l < reg.count; l++ {
			sch.AtIndexed(scenDraw(reg.spec, reg.keys.draw, reg.base+l).start, wheelArg(wheelStart, l))
		}
		sw = append(sw, sch)
	}
	if spec := &w.Spec; spec.Kind == KindFlashCrowd {
		for k := 0; k < spec.Promotions && k < spec.UEs; k++ {
			gi := k * spec.UEs / spec.Promotions
			for _, reg := range w.regions {
				if gi < reg.base+reg.count {
					at := spec.ConvergeAt + 5*time.Second + time.Duration(k)*time.Millisecond
					sw[reg.idx].AtIndexed(at, wheelArg(wheelActivity, gi-reg.base))
					break
				}
			}
		}
	}
	return sw
}

// runUntil drains every region's wheel to end, region-major.
func (sw scenWheel) runUntil(end time.Duration) {
	for _, sch := range sw {
		sch.RunUntil(end)
	}
}

// wheelWorld compiles spec and drains it to its horizon on the wheel.
func wheelWorld(t testing.TB, spec ScenarioSpec, scheme Scheme, seed int64,
	after func(reg *scenRegion, l int, now time.Duration)) *CompiledScenario {
	t.Helper()
	w, err := CompileScenario(spec, scheme, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	newScenWheel(w, nil, after).runUntil(spec.Horizon)
	return w
}

// requireSameWorld compares everything a drain leaves behind: every
// slot's serving cell, home, draw codes, handover count, pool state,
// TAU count and identity; every region's counters; the merged
// promotion log; and the interruption quantiles.
func requireSameWorld(t *testing.T, label string, got, want *CompiledScenario) {
	t.Helper()
	for i, g := range got.regions {
		r := want.regions[i]
		if g.events != r.events || g.handovers != r.handovers || g.dropped != r.dropped || g.reattached != r.reattached {
			t.Fatalf("%s: region %d events/handovers/dropped/reattached %d/%d/%d/%d, wheel %d/%d/%d/%d", label, i,
				g.events, g.handovers, g.dropped, g.reattached, r.events, r.handovers, r.dropped, r.reattached)
		}
		for l := 0; l < g.count; l++ {
			type slot struct {
				serving, home      int32
				offCode, speedCode uint16
				hoCount, tau       uint32
				state              ue.IdleState
				guti               uint64
				ip                 uint32
			}
			of := func(reg *scenRegion) slot {
				return slot{reg.serving[l], reg.home[l], reg.offCode[l], reg.speedCode[l], reg.hoCount[l],
					reg.pool.TAUCount(l), reg.pool.State(l), reg.pool.GUTI(l), reg.pool.IP(l)}
			}
			if gs, ws := of(g), of(r); gs != ws {
				t.Fatalf("%s: gi %d: slot-major %+v, wheel %+v", label, g.base+l, gs, ws)
			}
		}
	}
	if gp, wp := got.Promotions(), want.Promotions(); !reflect.DeepEqual(gp, wp) {
		t.Fatalf("%s: promotions %+v, wheel %+v", label, gp, wp)
	}
	g50, g99 := got.InterruptionQuantiles()
	w50, w99 := want.InterruptionQuantiles()
	if math.Float64bits(g50) != math.Float64bits(w50) || math.Float64bits(g99) != math.Float64bits(w99) {
		t.Fatalf("%s: interruption p50/p99 %v/%v, wheel %v/%v", label, g50, g99, w50, w99)
	}
}

// TestScenarioSlotMajorMatchesWheel holds Run's slot-major drain to its
// wheel-ordered twin, world by world: every quick E11 spec and a run of
// random specs under both schemes, and the edges of the tie rule — a
// horizon on a UE's tick and on its start, more promotions than UEs
// (slots with several activities), activities before their UE's start,
// and activities on a UE's start and on its measurement tick.
func TestScenarioSlotMajorMatchesWheel(t *testing.T) {
	const seed = 5
	check := func(label string, spec ScenarioSpec, scheme Scheme, workers int) *CompiledScenario {
		t.Helper()
		label = fmt.Sprintf("%s %+v %v", label, spec, scheme)
		got, err := CompileScenario(spec, scheme, seed, workers)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Run(); err != nil {
			t.Fatal(err)
		}
		requireSameWorld(t, label, got, wheelWorld(t, spec, scheme, seed, nil))
		return got
	}
	both := func(label string, spec ScenarioSpec) (dlte, telecom *CompiledScenario) {
		t.Helper()
		return check(label, spec, SchemeDLTE, 1), check(label, spec, SchemeTelecom, 4)
	}
	for _, spec := range e11Specs(Options{Quick: true}) {
		both("quick E11", spec)
	}
	rng := rand.New(rand.NewSource(46))
	for n := 0; n < 12; n++ {
		check("random", randScanSpec(rng), Scheme(n%2), 1+n%3)
	}

	keys := newScenKeys(seed)
	corridor := ScenarioSpec{Name: "edge-corridor", Kind: KindCorridor, UEs: 640, APs: 8,
		SpacingM: 1000, SpeedMps: 25, Horizon: 30 * time.Second}
	var chain []time.Duration // gi 0's event instants
	wheelWorld(t, corridor, SchemeDLTE, seed, func(reg *scenRegion, l int, now time.Duration) {
		if reg.base+l == 0 {
			chain = append(chain, now)
		}
	})
	onTick := corridor
	onTick.Horizon = chain[4] // start, then four ticks: the last one fires
	dlte, telecom := both("horizon on a tick", onTick)
	for _, w := range []*CompiledScenario{dlte, telecom} {
		if tau := w.regions[0].pool.TAUCount(0); tau != 4 {
			t.Fatalf("horizon on gi 0's fourth tick: %d ticks fired", tau)
		}
	}
	onStart := corridor
	onStart.Horizon = scenDraw(&corridor, keys.draw, 1).start
	if w := check("horizon on a start", onStart, SchemeTelecom, 1); w.regions[0].pool.State(1) != ue.IdleAttached {
		t.Fatalf("horizon on gi 1's start: slot state %v", w.regions[0].pool.State(1))
	}

	crowd := ScenarioSpec{Name: "edge-crowd", Kind: KindFlashCrowd, UEs: 300, APs: 12,
		SpacingM: 1000, HotCells: 4, ConvergeAt: 10 * time.Second, DisperseAt: 30 * time.Second,
		Horizon: 40 * time.Second}
	many := crowd
	many.Promotions = 700
	// Activity k lands on gi k·UEs/Promotions for k < UEs: every gi up
	// to the last one takes at least one, and is promoted once.
	if w, _ := both("promotions > UEs", many); len(w.Promotions()) != (many.UEs-1)*many.UEs/many.Promotions+1 {
		t.Fatalf("promotions > UEs: %d promoted", len(w.Promotions()))
	}
	early := crowd
	early.Promotions, early.ConvergeAt = crowd.UEs, -4500*time.Millisecond // activities from 0.5 s
	if w, _ := both("activity before start", early); len(w.Promotions()) == 0 || len(w.Promotions()) == crowd.UEs {
		t.Fatalf("activities across the start stagger: %d of %d promoted", len(w.Promotions()), crowd.UEs)
	}
	s0 := scenDraw(&crowd, keys.draw, 0).start
	ties := []struct {
		name    string
		at      time.Duration
		horizon time.Duration
	}{
		{"activity on a start", s0, crowd.Horizon},
		{"activity on a start at the horizon", s0, s0},
		{"activity on a tick", s0 + scenMeasurePeriod(keys.period, 0, 0), crowd.Horizon},
	}
	for _, c := range ties {
		spec := crowd
		spec.Promotions, spec.ConvergeAt, spec.Horizon = 1, c.at-5*time.Second, c.horizon
		w, _ := both(c.name, spec)
		// Start runs before the activity, the activity before the tick.
		if p := w.Promotions(); len(p) != 1 || p[0].at != c.at || p[0].rec.TAUs != 0 {
			t.Fatalf("%s: promotions %+v, want gi 0 at %v with no TAU", c.name, p, c.at)
		}
	}
}
