package exp

import (
	"fmt"
	"time"

	"dlte/internal/geo"
	"dlte/internal/metrics"
	"dlte/internal/phy"
	"dlte/internal/radio"
	"dlte/internal/spectrum"
)

// E12 — the spectrum-coexistence frontier (DESIGN.md §13, ROADMAP item
// 4): LTE sharing an unlicensed channel with WiFi, across city-scale
// worlds of independent contention domains. Each domain holds one WiFi
// AP with a drawn population of stations and one LTE AP, both licensed
// in the 2.4 GHz ISM band through the SAS-style spectrum.Database; the
// registry's ContentionDomains computation partitions the city and is
// verified against the intended geometry (domain centers sit beyond the
// radio horizon). Per domain, the frontier compares:
//
//   - wifi-alone: the DCF baseline, no LTE in the band;
//   - LTE-U duty cycling at 1/3, 1/2, 4/5 (CSAT-style blind bursts —
//     invisible to carrier sense, so they trample WiFi frames and get
//     trampled back: the related work's "neither friend nor foe");
//   - LTE LBT (category-4 listen-before-talk, 4 ms TXOP, CW 63 —
//     defers like a WiFi station, restoring WiFi at real LTE goodput);
//   - registry TDM: spectrum.PlanTDM splits the frame between the
//     domain's registered APs and phy.SimulateTDM prices the schedule —
//     dLTE's coordinated alternative (§4.3), which needs no contention
//     at all because the license database knows every transmitter.
//
// Determinism: every per-domain quantity is a pure function of (seed,
// size, domain index) via splitmix64; domains run concurrently under
// Options.Parallelism into index-addressed slots and are reduced in
// index order, so the rendered tables are byte-identical at any -p.
type E12Result struct {
	FrontierTable, ScaleTable *metrics.Table
	// Sizes are the domain counts swept; DomainsBySize the number of
	// registry-computed contention domains per size (must equal the
	// size — the partition verification).
	Sizes         []int
	DomainsBySize map[int]int
	// Per-scheme per-domain means at the largest size, keyed by scheme
	// name.
	WiFiMbps, LTEMbps, TotalMbps map[string]float64
	// AirtimeJain is the two-network airtime fairness (WiFi aggregate
	// vs LTE) per scheme; wifi-alone has no second network and is
	// absent.
	AirtimeJain map[string]float64
	// WiFiCollisionRate aggregates station collisions/attempts.
	WiFiCollisionRate map[string]float64
	Schemes           []string
}

const (
	e12SpacingM   = 50_000.0 // domain grid pitch: beyond the radio horizon
	e12EIRPdBm    = 30.0
	e12HeightM    = 10.0
	e12LTERateBps = 36e6 // 10 MHz LTE carrier, near peak
	e12PeriodMs   = 40.0 // CSAT duty period
	e12TXOPMs     = 4.0  // LBT burst bound
	e12LBTCW      = 63   // LBT fixed contention window
	e12TDMSlots   = 20   // registry TDM frame length
)

// e12Now anchors grant expiry handling; fixed so runs are reproducible.
var e12Now = time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)

var e12Schemes = []string{
	"wifi-alone", "LTE-U duty 0.33", "LTE-U duty 0.50", "LTE-U duty 0.80",
	"LTE LBT", "registry TDM",
}

func e12Sizes(opt Options) []int {
	if opt.Quick {
		return []int{16, 64}
	}
	return []int{64, 512, 2048}
}

func e12Seconds(opt Options) float64 {
	if opt.Quick {
		return 0.4
	}
	return 1.0
}

func e12WiFiAP(d int) string { return fmt.Sprintf("wifi-d%d", d) }
func e12LTEAP(d int) string  { return fmt.Sprintf("lte-d%d", d) }

// e12Stations draws domain d's WiFi population: 4–8 saturated stations
// with rates from the 54/24/12 Mbps mix (the DCF rate-anomaly
// population), purely from (seed, size, d).
func e12Stations(seed int64, size, d int) []phy.DCFStation {
	h := splitmix64(uint64(seed) ^ 0xE12C0E815FB1ED01)
	h = splitmix64(h ^ uint64(size)<<32 ^ uint64(d))
	n := 4 + int(h%5)
	rates := []float64{54e6, 24e6, 12e6}
	stations := make([]phy.DCFStation, n)
	for i := range stations {
		h = splitmix64(h)
		stations[i] = phy.DCFStation{
			ID:        fmt.Sprintf("d%d-s%d", d, i),
			RateBps:   rates[h%3],
			Saturated: true,
		}
	}
	return stations
}

// e12Offset draws domain d's CSAT phase offset in [0, period).
func e12Offset(seed int64, size, d int) float64 {
	h := splitmix64(uint64(seed) ^ 0x0FF5E7D12E12E12E)
	h = splitmix64(h ^ uint64(size)<<32 ^ uint64(d))
	return float64(h % uint64(e12PeriodMs))
}

// e12City registers both APs of every domain in the ISM band and
// returns the registry's contention-domain members per domain index,
// verifying the partition matches the geometry: exactly `size` domains
// of exactly the two co-located APs each.
func e12City(size int) ([][]string, error) {
	db := spectrum.NewDatabase()
	side := 1
	for side*side < size {
		side++
	}
	for d := 0; d < size; d++ {
		cx := float64(d%side) * e12SpacingM
		cy := float64(d/side) * e12SpacingM
		for _, g := range []spectrum.Grant{
			{APID: e12LTEAP(d), Position: geo.Pt(cx, cy)},
			{APID: e12WiFiAP(d), Position: geo.Pt(cx+150, cy)},
		} {
			g.Band = radio.ISM24.Name
			g.EIRPdBm = e12EIRPdBm
			g.HeightM = e12HeightM
			if err := db.Request(g, e12Now); err != nil {
				return nil, fmt.Errorf("e12: grant %s: %w", g.APID, err)
			}
		}
	}
	domains := spectrum.ContentionDomains(db.Active(radio.ISM24.Name, e12Now), nil,
		spectrum.InterferenceThresholdDBm)
	if len(domains) != size {
		return nil, fmt.Errorf("e12: registry found %d contention domains, want %d", len(domains), size)
	}
	byMember := make(map[string]int, 2*size)
	for i, members := range domains {
		if len(members) != 2 {
			return nil, fmt.Errorf("e12: domain %v has %d members, want 2", members, len(members))
		}
		for _, m := range members {
			byMember[m] = i
		}
	}
	out := make([][]string, size)
	for d := 0; d < size; d++ {
		wi, ok1 := byMember[e12WiFiAP(d)]
		li, ok2 := byMember[e12LTEAP(d)]
		if !ok1 || !ok2 || wi != li {
			return nil, fmt.Errorf("e12: domain %d APs not co-resident in the registry partition", d)
		}
		out[d] = domains[wi]
	}
	return out, nil
}

// e12DomainOut is one domain's outcome for every scheme.
type e12DomainOut struct {
	wifiBps, lteBps      []float64
	attempts, collisions []int
	jain                 []float64 // two-network airtime fairness; NaN-free, -1 = n/a
}

// e12WiFiAirtime converts per-station goodput into airtime occupied:
// Σ tput/rate (the denominator the fairness literature normalizes by).
func e12WiFiAirtime(stations []phy.DCFStation, perNode map[string]float64, macFactor float64) float64 {
	var air float64
	for _, st := range stations {
		air += perNode[st.ID] / (st.RateBps * macFactor)
	}
	return air
}

// e12Domain runs the schemes for one domain. Only the frontier, drawn
// at the largest size, reads LTE-U duty 0.33 and 0.80 (the scale table
// reads schemes 0, 2, 4 and 5), so with frontier false those two runs
// are skipped and their slots stay zero.
func e12Domain(opt Options, size, d int, members []string, seconds float64, frontier bool) e12DomainOut {
	ns := len(e12Schemes)
	out := e12DomainOut{
		wifiBps: make([]float64, ns), lteBps: make([]float64, ns),
		attempts: make([]int, ns), collisions: make([]int, ns),
		jain: make([]float64, ns),
	}
	stations := e12Stations(opt.Seed, size, d)
	seed := opt.Seed ^ int64(splitmix64(uint64(size)<<32|uint64(d)))

	record := func(s int, r phy.CoexResult) {
		out.wifiBps[s] = r.WiFiBps
		out.lteBps[s] = r.LTEBps
		out.attempts[s] = r.WiFiAttempts
		out.collisions[s] = r.WiFiCollisions
		out.jain[s] = -1
		if r.LTEBps > 0 || s > 0 {
			out.jain[s] = metrics.JainIndex([]float64{
				e12WiFiAirtime(stations, r.PerNodeBps, 1),
				r.LTEBps / e12LTERateBps,
			})
		}
	}

	// wifi-alone.
	record(0, phy.SimulateCoex(phy.CoexConfig{WiFi: stations, Seed: seed}, seconds))
	// LTE-U duty sweep.
	for s, duty := range []float64{0.33, 0.5, 0.8} {
		if !frontier && duty != 0.5 {
			continue
		}
		record(1+s, phy.SimulateCoex(phy.CoexConfig{
			WiFi: stations,
			LTE: []phy.LTENode{{
				ID: e12LTEAP(d), Kind: phy.LTEUDuty, RateBps: e12LTERateBps,
				OnMs: duty * e12PeriodMs, PeriodMs: e12PeriodMs,
				OffsetMs: e12Offset(opt.Seed, size, d),
			}},
			Seed: seed,
		}, seconds))
	}
	// LTE LBT.
	record(4, phy.SimulateCoex(phy.CoexConfig{
		WiFi: stations,
		LTE: []phy.LTENode{{
			ID: e12LTEAP(d), Kind: phy.LTELBT, RateBps: e12LTERateBps,
			TXOPMs: e12TXOPMs, CW: e12LBTCW,
		}},
		Seed: seed,
	}, seconds))

	// Registry TDM: the domain's member list (as the registry computed
	// it) is split 50/50 between the two APs; the WiFi AP schedules its
	// stations inside its share at the contention-free MAC rate.
	plan := spectrum.PlanTDM(members, nil, e12TDMSlots)
	frac := make(map[string]float64, len(plan))
	for _, sh := range plan {
		frac[sh.APID] = sh.Fraction
	}
	fw, fl := frac[e12WiFiAP(d)], frac[e12LTEAP(d)]
	shares := make([]phy.TDMShare, 0, len(stations)+1)
	for _, st := range stations {
		shares = append(shares, phy.TDMShare{
			ID: st.ID, Weight: fw / float64(len(stations)),
			RateBps: st.RateBps * phy.WiFiLikeMACFactor,
		})
	}
	shares = append(shares, phy.TDMShare{ID: e12LTEAP(d), Weight: fl, RateBps: e12LTERateBps})
	tdm := phy.SimulateTDM(shares)
	lte := tdm.PerStationBps[e12LTEAP(d)]
	out.wifiBps[5] = tdm.TotalBps - lte
	out.lteBps[5] = lte
	out.jain[5] = metrics.JainIndex([]float64{
		e12WiFiAirtime(stations, tdm.PerStationBps, phy.WiFiLikeMACFactor),
		lte / e12LTERateBps,
	})
	return out
}

// RunE12 sweeps the city sizes and renders the coexistence frontier (at
// the largest size) plus the per-size scale table.
func RunE12(opt Options) (E12Result, error) {
	sizes := e12Sizes(opt)
	seconds := e12Seconds(opt)
	res := E12Result{
		Sizes:         sizes,
		DomainsBySize: map[int]int{},
		WiFiMbps:      map[string]float64{}, LTEMbps: map[string]float64{},
		TotalMbps: map[string]float64{}, AirtimeJain: map[string]float64{},
		WiFiCollisionRate: map[string]float64{},
		Schemes:           e12Schemes,
	}
	ns := len(e12Schemes)

	scale := metrics.NewTable("E12 — city scale (one WiFi AP + one LTE AP per domain, ISM 2.4 GHz)",
		"domains", "grants", "registry domains", "WiFi-alone Gbps", "LTE-U 0.50 Gbps", "LBT Gbps", "TDM Gbps")

	var frontier *metrics.Table
	for _, size := range sizes {
		members, err := e12City(size)
		if err != nil {
			return res, err
		}
		res.DomainsBySize[size] = size

		last := size == sizes[len(sizes)-1]
		outs := make([]e12DomainOut, size)
		if err := forEachWorld(opt, size, func(d int) error {
			outs[d] = e12Domain(opt, size, d, members[d], seconds, last)
			return nil
		}); err != nil {
			return res, err
		}

		// Index-ordered reduction: per-scheme sums across domains.
		wifi := make([]float64, ns)
		lte := make([]float64, ns)
		jain := make([]float64, ns)
		att := make([]int, ns)
		coll := make([]int, ns)
		for d := 0; d < size; d++ {
			for s := 0; s < ns; s++ {
				wifi[s] += outs[d].wifiBps[s]
				lte[s] += outs[d].lteBps[s]
				att[s] += outs[d].attempts[s]
				coll[s] += outs[d].collisions[s]
				if outs[d].jain[s] >= 0 {
					jain[s] += outs[d].jain[s]
				}
			}
		}

		cityGbps := func(s int) string {
			return fmt.Sprintf("%.2f", (wifi[s]+lte[s])/1e9)
		}
		scale.AddRow(size, 2*size, len(members), cityGbps(0), cityGbps(2), cityGbps(4), cityGbps(5))

		if last {
			frontier = metrics.NewTable(
				fmt.Sprintf("E12 — spectrum-coexistence frontier (%d domains, per-domain means)", size),
				"scheme", "WiFi Mbps", "LTE Mbps", "total Mbps", "WiFi vs alone", "WiFi coll rate", "airtime Jain")
			n := float64(size)
			for s, name := range e12Schemes {
				res.WiFiMbps[name] = Mbps(wifi[s] / n)
				res.LTEMbps[name] = Mbps(lte[s] / n)
				res.TotalMbps[name] = Mbps((wifi[s] + lte[s]) / n)
				rate := 0.0
				if att[s] > 0 {
					rate = float64(coll[s]) / float64(att[s])
				}
				res.WiFiCollisionRate[name] = rate
				vsAlone := "1.00"
				if s > 0 {
					vsAlone = fmt.Sprintf("%.2f", wifi[s]/wifi[0])
				}
				jainCell, collCell := "n/a", "n/a"
				if s != 0 {
					res.AirtimeJain[name] = jain[s] / n
					jainCell = fmt.Sprintf("%.3f", jain[s]/n)
				}
				if s != 5 {
					collCell = fmt.Sprintf("%.3f", rate)
				}
				frontier.AddRow(name,
					fmt.Sprintf("%.2f", res.WiFiMbps[name]),
					fmt.Sprintf("%.2f", res.LTEMbps[name]),
					fmt.Sprintf("%.2f", res.TotalMbps[name]),
					vsAlone, collCell, jainCell)
			}
		}
	}

	res.FrontierTable, res.ScaleTable = frontier, scale
	opt.emit(frontier, scale)
	return res, nil
}
