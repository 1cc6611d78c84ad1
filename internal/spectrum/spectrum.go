// Package spectrum implements the lightweight licensing layer the dLTE
// paper builds discovery on (§4.3): a geolocated license database in
// the style of the CBRS Spectrum Access System, plus the
// contention-domain computation that turns "who is licensed where"
// into "who must coordinate with whom". Because every transmitter in
// the band is registered, hidden terminals are eliminated by
// construction — experiment E9 quantifies exactly that.
package spectrum

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"dlte/internal/geo"
	"dlte/internal/radio"
)

// Grant is one geolocated spectrum license.
type Grant struct {
	// APID is the licensee (a dLTE AP identity).
	APID string
	// Band names the licensed band (radio.Band.Name).
	Band string
	// Position is the transmitter location.
	Position geo.Point
	// EIRPdBm is the licensed radiated power.
	EIRPdBm float64
	// HeightM is the antenna height used for interference analysis.
	HeightM float64
	// Expires is the grant's expiry instant (zero = non-expiring).
	Expires time.Time
}

// Database errors.
var (
	ErrDuplicateGrant = errors.New("spectrum: AP already holds a grant in this band")
	ErrNoGrant        = errors.New("spectrum: no such grant")
	ErrDenied         = errors.New("spectrum: grant denied")
)

// Database is an open license store: any conforming AP may register,
// which is the paper's openness requirement. Admission only fails when
// the request would raise interference at a protected incumbent above
// the limit.
type Database struct {
	mu     sync.RWMutex
	grants map[string]Grant // key: apID|band
	// Incumbents are protected receivers (e.g. an existing licensee's
	// coverage point) that new grants must not degrade.
	incumbents []Incumbent
	// PathLoss is the model used for interference analysis; nil means
	// radio.Auto{}.
	PathLoss radio.PathLoss
}

// Incumbent is a protected reception point with an interference limit.
type Incumbent struct {
	Band     string
	Position geo.Point
	HeightM  float64
	// MaxInterferenceDBm is the aggregate co-channel power allowed at
	// the incumbent.
	MaxInterferenceDBm float64
}

// NewDatabase returns an empty license database.
func NewDatabase() *Database {
	return &Database{grants: make(map[string]Grant)}
}

func grantKey(apID, band string) string { return apID + "|" + band }

func (db *Database) model() radio.PathLoss {
	if db.PathLoss == nil {
		return radio.Auto{}
	}
	return db.PathLoss
}

// AddIncumbent registers a protected receiver.
func (db *Database) AddIncumbent(inc Incumbent) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.incumbents = append(db.incumbents, inc)
}

// Request evaluates and (if admissible) records a grant, SAS-style.
// now supplies the current time for expiry handling.
func (db *Database) Request(g Grant, now time.Time) error {
	if g.APID == "" || g.Band == "" {
		return fmt.Errorf("%w: missing AP or band", ErrDenied)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.grants[grantKey(g.APID, g.Band)]; ok {
		return fmt.Errorf("%w: %s/%s", ErrDuplicateGrant, g.APID, g.Band)
	}
	band, ok := bandByName(g.Band)
	if !ok {
		return fmt.Errorf("%w: unknown band %q", ErrDenied, g.Band)
	}
	if g.EIRPdBm > band.MaxEIRPdBm {
		return fmt.Errorf("%w: EIRP %.1f exceeds band limit %.1f", ErrDenied, g.EIRPdBm, band.MaxEIRPdBm)
	}
	for _, inc := range db.incumbents {
		if inc.Band != g.Band {
			continue
		}
		dKm := g.Position.DistanceTo(inc.Position) / 1000
		loss := db.model().LossDB(dKm, band.DownlinkMHz, g.HeightM, inc.HeightM)
		if rx := g.EIRPdBm - loss; rx > inc.MaxInterferenceDBm {
			return fmt.Errorf("%w: would put %.1f dBm at protected incumbent (limit %.1f)",
				ErrDenied, rx, inc.MaxInterferenceDBm)
		}
	}
	db.grants[grantKey(g.APID, g.Band)] = g
	return nil
}

// Release removes a grant.
func (db *Database) Release(apID, band string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := grantKey(apID, band)
	if _, ok := db.grants[key]; !ok {
		return fmt.Errorf("%w: %s/%s", ErrNoGrant, apID, band)
	}
	delete(db.grants, key)
	return nil
}

// Active lists unexpired grants in a band, sorted by APID for
// determinism.
func (db *Database) Active(band string, now time.Time) []Grant {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Grant
	for _, g := range db.grants {
		if g.Band != band {
			continue
		}
		if !g.Expires.IsZero() && now.After(g.Expires) {
			continue
		}
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].APID < out[j].APID })
	return out
}

// InRegion lists active grants in a band whose transmitters fall
// inside r.
func (db *Database) InRegion(band string, r geo.Rect, now time.Time) []Grant {
	var out []Grant
	for _, g := range db.Active(band, now) {
		if r.Contains(g.Position) {
			out = append(out, g)
		}
	}
	return out
}

func bandByName(name string) (radio.Band, bool) {
	for _, b := range radio.Catalog() {
		if b.Name == name {
			return b, true
		}
	}
	return radio.Band{}, false
}

// InterferenceThresholdDBm is the received-power level above which two
// transmitters are considered to share a contention domain: roughly a
// 10 MHz LTE noise floor, so anything audible above noise coordinates.
const InterferenceThresholdDBm = -100

// ContentionDomains partitions a band's active grants into groups of
// mutually audible transmitters (connected components of the
// interference graph). APs in the same domain must coordinate; APs in
// different domains can reuse the spectrum freely.
//
// Each grant's band is resolved once, and candidate pairs come from a
// geo.Grid over the positions: no pair beyond the radio horizon can be
// audible, so grant i only tests the grants within
// RadioHorizonKm(h_i, h_max) of it, padded so that float rounding at
// the query's edge cannot drop a pair exactly at the horizon. A
// non-finite height (NaN or +Inf) has no horizon bound, and then every
// pair is tested, as the all-pairs scan would.
func ContentionDomains(grants []Grant, model radio.PathLoss, thresholdDBm float64) [][]string {
	if model == nil {
		model = radio.Auto{}
	}
	n := len(grants)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	bands := make([]radio.Band, n)
	known := make([]bool, n)
	pts := make([]geo.Point, n)
	maxH := 0.0
	for i, g := range grants {
		bands[i], known[i] = bandByName(g.Band)
		pts[i] = g.Position
		maxH = max(maxH, g.HeightM)
	}
	grid := geo.BuildGrid(pts)
	try := func(i, j int) {
		if grants[i].Band == grants[j].Band && audible(&grants[i], &grants[j], bands[i], model, thresholdDBm) {
			union(i, j)
		}
	}
	for i := range grants {
		if !known[i] {
			continue
		}
		reach := radio.RadioHorizonKm(grants[i].HeightM, maxH)*1000*(1+1e-9) + 1
		if math.IsNaN(reach) || math.IsInf(reach, 0) {
			for j := i + 1; j < n; j++ {
				try(i, j)
			}
			continue
		}
		p := grants[i].Position
		cx0, cy0, cx1, cy1 := grid.CellRange(geo.Rect{Min: p.Add(-reach, -reach), Max: p.Add(reach, reach)})
		for cy := cy0; cy <= cy1; cy++ {
			for cx := cx0; cx <= cx1; cx++ {
				for _, j := range grid.Cell(cx, cy) {
					if int(j) > i {
						try(i, int(j))
					}
				}
			}
		}
	}

	groups := make(map[int][]string)
	for i, g := range grants {
		root := find(i)
		groups[root] = append(groups[root], g.APID)
	}
	var out [][]string
	for _, members := range groups {
		sort.Strings(members)
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// audible reports whether two grants in one band hear each other: within
// the radio horizon, and received above thresholdDBm in either
// direction.
func audible(a, b *Grant, band radio.Band, model radio.PathLoss, thresholdDBm float64) bool {
	dKm := a.Position.DistanceTo(b.Position) / 1000
	// Beyond the radio horizon the towers cannot hear each other no
	// matter what the statistical model extrapolates.
	if dKm > radio.RadioHorizonKm(a.HeightM, b.HeightM) {
		return false
	}
	loss := model.LossDB(dKm, band.DownlinkMHz, a.HeightM, b.HeightM)
	return a.EIRPdBm-loss > thresholdDBm || b.EIRPdBm-loss > thresholdDBm
}

// SlotShare is one domain member's TDM allocation.
type SlotShare struct {
	// APID is the transmitter the slots belong to.
	APID string
	// Slots is the member's whole-slot count per frame.
	Slots int
	// Fraction is Slots over the frame length.
	Fraction float64
}

// PlanTDM turns a contention domain's member list into a deterministic
// TDM slot assignment — the registry-coordinated alternative to
// contending for the channel (§4.3): because the license database knows
// every transmitter in the domain, airtime is divided explicitly.
// Weights set proportional claims (missing or non-positive entries
// count as 1; nil means equal shares). Slots are apportioned by largest
// remainder over the APID-sorted member list, so every call with the
// same inputs yields the same plan and no slot is lost to rounding.
func PlanTDM(members []string, weights map[string]float64, slotsPerFrame int) []SlotShare {
	if len(members) == 0 || slotsPerFrame <= 0 {
		return nil
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)

	type quota struct {
		idx   int
		whole int
		frac  float64
	}
	var totalW float64
	w := make([]float64, len(sorted))
	for i, m := range sorted {
		w[i] = 1
		if weights != nil && weights[m] > 0 {
			w[i] = weights[m]
		}
		totalW += w[i]
	}
	quotas := make([]quota, len(sorted))
	assigned := 0
	for i := range sorted {
		q := w[i] / totalW * float64(slotsPerFrame)
		whole := int(q)
		quotas[i] = quota{idx: i, whole: whole, frac: q - float64(whole)}
		assigned += whole
	}
	// Hand the leftover slots to the largest fractional remainders;
	// ties break toward the lexicographically earlier APID.
	sort.SliceStable(quotas, func(a, b int) bool { return quotas[a].frac > quotas[b].frac })
	for r := 0; r < slotsPerFrame-assigned; r++ {
		quotas[r%len(quotas)].whole++
	}

	out := make([]SlotShare, len(sorted))
	for _, q := range quotas {
		out[q.idx] = SlotShare{
			APID:     sorted[q.idx],
			Slots:    q.whole,
			Fraction: float64(q.whole) / float64(slotsPerFrame),
		}
	}
	return out
}

// DomainOf returns the contention-domain members containing apID, or
// nil if the AP holds no grant in the set.
func DomainOf(domains [][]string, apID string) []string {
	for _, d := range domains {
		for _, m := range d {
			if m == apID {
				return d
			}
		}
	}
	return nil
}
