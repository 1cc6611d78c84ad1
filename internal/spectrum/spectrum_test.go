package spectrum

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"dlte/internal/geo"
	"dlte/internal/radio"
)

var now = time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC)

func grant(ap string, x, y float64) Grant {
	return Grant{
		APID: ap, Band: radio.LTEBand5.Name,
		Position: geo.Pt(x, y), EIRPdBm: 58, HeightM: 20,
	}
}

func TestRequestAndActive(t *testing.T) {
	db := NewDatabase()
	if err := db.Request(grant("ap1", 0, 0), now); err != nil {
		t.Fatal(err)
	}
	if err := db.Request(grant("ap2", 5000, 0), now); err != nil {
		t.Fatal(err)
	}
	active := db.Active(radio.LTEBand5.Name, now)
	if len(active) != 2 || active[0].APID != "ap1" || active[1].APID != "ap2" {
		t.Fatalf("active = %+v", active)
	}
	if got := db.Active(radio.ISM24.Name, now); len(got) != 0 {
		t.Errorf("wrong-band active = %v", got)
	}
}

func TestRequestValidation(t *testing.T) {
	db := NewDatabase()
	if err := db.Request(Grant{}, now); !errors.Is(err, ErrDenied) {
		t.Errorf("empty grant: %v", err)
	}
	g := grant("ap1", 0, 0)
	g.Band = "made-up band"
	if err := db.Request(g, now); !errors.Is(err, ErrDenied) {
		t.Errorf("unknown band: %v", err)
	}
	g = grant("ap1", 0, 0)
	g.EIRPdBm = 99
	if err := db.Request(g, now); !errors.Is(err, ErrDenied) {
		t.Errorf("EIRP over limit: %v", err)
	}
	// Duplicate.
	if err := db.Request(grant("ap1", 0, 0), now); err != nil {
		t.Fatal(err)
	}
	if err := db.Request(grant("ap1", 100, 0), now); !errors.Is(err, ErrDuplicateGrant) {
		t.Errorf("duplicate: %v", err)
	}
}

func TestIncumbentProtection(t *testing.T) {
	db := NewDatabase()
	db.AddIncumbent(Incumbent{
		Band: radio.LTEBand5.Name, Position: geo.Pt(0, 0), HeightM: 10,
		MaxInterferenceDBm: -85,
	})
	// Right on top of the incumbent: denied.
	if err := db.Request(grant("close", 500, 0), now); !errors.Is(err, ErrDenied) {
		t.Errorf("close grant: %v", err)
	}
	// Far away: admitted.
	if err := db.Request(grant("far", 80_000, 0), now); err != nil {
		t.Errorf("far grant denied: %v", err)
	}
	// Other bands ignore this incumbent.
	g := Grant{APID: "wifi", Band: radio.ISM24.Name, Position: geo.Pt(500, 0), EIRPdBm: 30, HeightM: 10}
	if err := db.Request(g, now); err != nil {
		t.Errorf("other-band grant denied: %v", err)
	}
}

func TestReleaseAndExpiry(t *testing.T) {
	db := NewDatabase()
	g := grant("ap1", 0, 0)
	g.Expires = now.Add(time.Hour)
	if err := db.Request(g, now); err != nil {
		t.Fatal(err)
	}
	if len(db.Active(g.Band, now)) != 1 {
		t.Fatal("grant not active")
	}
	if len(db.Active(g.Band, now.Add(2*time.Hour))) != 0 {
		t.Error("expired grant still active")
	}
	if err := db.Release("ap1", g.Band); err != nil {
		t.Fatal(err)
	}
	if err := db.Release("ap1", g.Band); !errors.Is(err, ErrNoGrant) {
		t.Errorf("double release: %v", err)
	}
}

func TestInRegion(t *testing.T) {
	db := NewDatabase()
	db.Request(grant("in", 1000, 1000), now)
	db.Request(grant("out", 50_000, 50_000), now)
	rect := geo.NewRect(geo.Pt(0, 0), geo.Pt(10_000, 10_000))
	got := db.InRegion(radio.LTEBand5.Name, rect, now)
	if len(got) != 1 || got[0].APID != "in" {
		t.Errorf("InRegion = %+v", got)
	}
}

func TestContentionDomains(t *testing.T) {
	// Three APs: two 3 km apart (audible), one 200 km away (isolated).
	grants := []Grant{
		grant("a", 0, 0),
		grant("b", 3000, 0),
		grant("far", 200_000, 0),
	}
	domains := ContentionDomains(grants, radio.Auto{}, InterferenceThresholdDBm)
	if len(domains) != 2 {
		t.Fatalf("domains = %v", domains)
	}
	ab := DomainOf(domains, "a")
	if len(ab) != 2 || ab[0] != "a" || ab[1] != "b" {
		t.Errorf("a's domain = %v", ab)
	}
	if d := DomainOf(domains, "far"); len(d) != 1 || d[0] != "far" {
		t.Errorf("far's domain = %v", d)
	}
	if d := DomainOf(domains, "ghost"); d != nil {
		t.Errorf("ghost domain = %v", d)
	}
}

func TestContentionDomainsTransitive(t *testing.T) {
	// Chain a—b—c where a and c are mutually inaudible but both hear
	// b: all three share one domain (coordination is transitive).
	grants := []Grant{
		grant("a", 0, 0),
		grant("b", 14_000, 0),
		grant("c", 28_000, 0),
	}
	domains := ContentionDomains(grants, radio.Auto{}, -85)
	if len(domains) != 1 || len(domains[0]) != 3 {
		t.Fatalf("chain domains = %v", domains)
	}
}

func TestContentionDomainsBandIsolation(t *testing.T) {
	a := grant("a", 0, 0)
	b := Grant{APID: "b", Band: radio.ISM24.Name, Position: geo.Pt(100, 0), EIRPdBm: 30, HeightM: 10}
	domains := ContentionDomains([]Grant{a, b}, radio.Auto{}, InterferenceThresholdDBm)
	if len(domains) != 2 {
		t.Fatalf("cross-band domains merged: %v", domains)
	}
}

func TestContentionDomainsEmpty(t *testing.T) {
	if d := ContentionDomains(nil, nil, InterferenceThresholdDBm); len(d) != 0 {
		t.Errorf("empty = %v", d)
	}
}

func TestPlanTDMEqualSplit(t *testing.T) {
	plan := PlanTDM([]string{"wifi-d0", "lte-d0"}, nil, 20)
	if len(plan) != 2 {
		t.Fatalf("plan = %v", plan)
	}
	for _, s := range plan {
		if s.Slots != 10 || s.Fraction != 0.5 {
			t.Errorf("%s got %d slots (%.2f), want 10 (0.50)", s.APID, s.Slots, s.Fraction)
		}
	}
	// APID-sorted output regardless of input order.
	if plan[0].APID != "lte-d0" || plan[1].APID != "wifi-d0" {
		t.Errorf("plan order = %v", plan)
	}
}

func TestPlanTDMWeights(t *testing.T) {
	plan := PlanTDM([]string{"a", "b"}, map[string]float64{"a": 3}, 20)
	if plan[0].Slots != 15 || plan[1].Slots != 5 {
		t.Errorf("weighted plan = %v", plan)
	}
}

func TestPlanTDMLargestRemainder(t *testing.T) {
	// 10 slots over 3 equal members: 3.33 each, one leftover slot goes
	// to the lexicographically first member; nothing lost to rounding.
	plan := PlanTDM([]string{"c", "a", "b"}, nil, 10)
	total := 0
	for _, s := range plan {
		total += s.Slots
	}
	if total != 10 {
		t.Errorf("slots lost to rounding: %v", plan)
	}
	if plan[0].APID != "a" || plan[0].Slots != 4 || plan[1].Slots != 3 || plan[2].Slots != 3 {
		t.Errorf("remainder plan = %v", plan)
	}
}

func TestPlanTDMDeterministic(t *testing.T) {
	a := PlanTDM([]string{"x", "y", "z"}, map[string]float64{"y": 2}, 17)
	b := PlanTDM([]string{"z", "y", "x"}, map[string]float64{"y": 2}, 17)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("member order changed the plan: %v vs %v", a, b)
	}
}

func TestPlanTDMEmpty(t *testing.T) {
	if p := PlanTDM(nil, nil, 20); p != nil {
		t.Errorf("empty members = %v", p)
	}
	if p := PlanTDM([]string{"a"}, nil, 0); p != nil {
		t.Errorf("zero slots = %v", p)
	}
}

// contentionDomainsRef is the all-pairs partition ContentionDomains
// replaced: every pair, with the band looked up per pair.
func contentionDomainsRef(grants []Grant, model radio.PathLoss, thresholdDBm float64) [][]string {
	n := len(grants)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if grants[i].Band != grants[j].Band {
				continue
			}
			band, ok := bandByName(grants[i].Band)
			if !ok {
				continue
			}
			dKm := grants[i].Position.DistanceTo(grants[j].Position) / 1000
			if dKm > radio.RadioHorizonKm(grants[i].HeightM, grants[j].HeightM) {
				continue
			}
			loss := model.LossDB(dKm, band.DownlinkMHz, grants[i].HeightM, grants[j].HeightM)
			if grants[i].EIRPdBm-loss > thresholdDBm || grants[j].EIRPdBm-loss > thresholdDBm {
				parent[find(i)] = find(j)
			}
		}
	}
	groups := make(map[int][]string)
	for i, g := range grants {
		groups[find(i)] = append(groups[find(i)], g.APID)
	}
	var out [][]string
	for _, members := range groups {
		sort.Strings(members)
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// TestContentionDomainsMatchesAllPairs holds the grid-pruned partition
// to the all-pairs one on random rosters: mixed and unknown bands,
// mixed heights, co-located grants, and partners placed exactly at (and
// one metre either side of) the radio horizon. The free-space model and
// a very low threshold make the horizon the deciding cut for those
// pairs, and dense rosters put grid cell edges inside a horizon.
func TestContentionDomainsMatchesAllPairs(t *testing.T) {
	bands := []string{radio.ISM24.Name, radio.LTEBand5.Name, radio.CBRS.Name, "no such band"}
	for c := 0; c < 60; c++ {
		rng := rand.New(rand.NewSource(int64(c)))
		var model radio.PathLoss = radio.Auto{}
		threshold := float64(InterferenceThresholdDBm)
		if c%2 == 1 {
			model, threshold = radio.FreeSpace{}, -1000
		}
		n := 1 + rng.Intn(120)
		side := 5_000 + rng.Float64()*200_000
		heights := []float64{0, 3, 10, 30, 120}
		if c%3 == 0 {
			// Dense, one height: grid cells far smaller than the
			// horizon every query reaches, so its edge falls between
			// cells.
			n, side, heights = 300+rng.Intn(300), 10_000, []float64{10}
		}
		var gs []Grant
		for i := 0; len(gs) < n; i++ {
			g := Grant{
				APID:     fmt.Sprintf("g%03d", len(gs)),
				Band:     bands[rng.Intn(len(bands))],
				Position: geo.Pt(rng.Float64()*side, rng.Float64()*side),
				EIRPdBm:  20 + rng.Float64()*40,
				HeightM:  heights[rng.Intn(len(heights))],
			}
			gs = append(gs, g)
			switch rng.Intn(4) {
			case 0: // co-located partner
				g.APID = fmt.Sprintf("g%03d", len(gs))
				gs = append(gs, g)
			case 1: // partners at the horizon and one metre either side
				h := heights[rng.Intn(len(heights))]
				reach := radio.RadioHorizonKm(g.HeightM, h) * 1000
				for _, dx := range []float64{-1, 0, 1} {
					p := g
					p.APID = fmt.Sprintf("g%03d", len(gs))
					p.HeightM = h
					p.Position = g.Position.Add(reach+dx, 0)
					gs = append(gs, p)
				}
			}
		}
		got := ContentionDomains(gs, model, threshold)
		want := contentionDomainsRef(gs, model, threshold)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (%d grants): grid partition diverged from all pairs\n got %v\nwant %v", c, len(gs), got, want)
		}
	}
}

// TestContentionDomainsNonFiniteHeight covers the fallback for a height
// with no horizon bound: with free-space loss a NaN-height grant is
// audible at any distance, as in the all-pairs scan.
func TestContentionDomainsNonFiniteHeight(t *testing.T) {
	for _, h := range []float64{math.NaN(), math.Inf(1)} {
		gs := []Grant{grant("a", 0, 0), grant("b", 900_000, 0), grant("c", 1_800_000, 0)}
		gs[1].HeightM = h
		got := ContentionDomains(gs, radio.FreeSpace{}, -1000)
		if want := contentionDomainsRef(gs, radio.FreeSpace{}, -1000); !reflect.DeepEqual(got, want) {
			t.Errorf("height %v: got %v, want %v", h, got, want)
		}
	}
}

// TestContentionDomainsHorizonEdge places a pair just inside the radio
// horizon with a grid cell edge 2.6 m short of the partner, so a query
// that reached even 0.01 % less than the horizon would miss it. A
// 10×10 lattice of unknown-band filler grants (which join nothing) over
// [0, L]² fixes BuildGrid's layout at 11×11 cells of L/11.
func TestContentionDomainsHorizonEdge(t *testing.T) {
	const L = 100_000.0
	var gs []Grant
	for i := 0; i < 100; i++ {
		gs = append(gs, Grant{
			APID: fmt.Sprintf("fill%03d", i), Band: "no such band",
			Position: geo.Pt(float64(i%10)*L/9, float64(i/10)*L/9), HeightM: 10,
		})
	}
	h := radio.RadioHorizonKm(10, 10) * 1000
	x := 5*L/11 - 0.9999*h // the cell edge at 5L/11 sits 0.9999 h past the anchor
	a := Grant{APID: "anchor", Band: radio.ISM24.Name, Position: geo.Pt(x, L/2), EIRPdBm: 30, HeightM: 10}
	b := a
	b.APID, b.Position = "partner", geo.Pt(x+h-0.01, L/2)
	gs = append(gs, a, b)
	got := ContentionDomains(gs, radio.FreeSpace{}, -1000)
	if d := DomainOf(got, "anchor"); len(d) != 2 {
		t.Fatalf("anchor's domain = %v, want the partner 0.01 m inside the horizon", d)
	}
	if want := contentionDomainsRef(gs, radio.FreeSpace{}, -1000); !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}
