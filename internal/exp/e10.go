package exp

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"dlte/internal/geo"
	"dlte/internal/metrics"
	"dlte/internal/radio"
	"dlte/internal/registry"
	"dlte/internal/simnet"
	"dlte/internal/x2"

	"math/rand"
)

// E10Result quantifies the discovery/coordination plane at town scale
// (§4.3): how an AP population learns about each other through the
// global registry, comparing full-list polling against the
// revision-delta subscription, plus spatial region queries and X2
// full-mesh bring-up among the discovered neighbors.
type E10Result struct {
	// SyncTable is the poll-vs-delta comparison per AP count.
	SyncTable *metrics.Table
	// MeshTable covers region queries and X2 mesh convergence.
	MeshTable *metrics.Table
	// PollKBByAPs / DeltaKBByAPs are steady-state sync KB on the wire
	// over the observation window, by AP count.
	PollKBByAPs, DeltaKBByAPs map[int]float64
	// ReductionByAPs is poll/delta bytes; MinReduction its minimum.
	ReductionByAPs map[int]float64
	MinReduction   float64
	// PollP50ByAPs / DeltaP50ByAPs are join→discoverable medians (ms).
	PollP50ByAPs, DeltaP50ByAPs map[int]float64
}

// E10 timeline (virtual time, per world). All mutation instants land
// on a coarse lattice (multiples of the join/churn stagger) while all
// reader requests carry a +333 ns phase offset, so no read ever shares
// an instant with a mutation: results cannot depend on goroutine
// scheduling between a registry write and a concurrent read.
const (
	e10JoinStart  = 200 * time.Millisecond
	e10JoinWindow = 4 * time.Second
	e10PollStart  = 100*time.Millisecond + 333*time.Nanosecond
	e10PollPeriod = 500 * time.Millisecond
	// Every e10KeyPullEvery-th poll also re-pulls the full key table —
	// the pre-delta way an AP kept its HSS import current.
	e10KeyPullEvery = 5
	// Margin past the last join so the poller observes every AP.
	e10Margin = 600 * time.Millisecond
)

type e10Config struct {
	apCounts []int
	nKeys    int // published subscriber keys pre-seeded in the registry
	churn    int // key publications during the join window
	meshK    int // X2 full-mesh size
	queries  int // region queries
}

func e10Params(quick bool) e10Config {
	if quick {
		return e10Config{apCounts: []int{64, 256}, nKeys: 10_000, churn: 64, meshK: 8, queries: 32}
	}
	return e10Config{apCounts: []int{64, 512, 2048}, nKeys: 100_000, churn: 256, meshK: 16, queries: 64}
}

// e10Point is one world's measurements.
type e10Point struct {
	n          int
	initialKB  float64 // one-time full bootstrap (List+Keys), same for both modes
	pollKB     float64 // window bytes, full-list polling observer
	deltaKB    float64 // window bytes, delta-subscription observer
	pollP50Ms  float64
	pollP99Ms  float64
	deltaP50Ms float64
	deltaP99Ms float64
	regionP50  float64
	regionHits float64
	convergeMs float64
	x2KB       float64
}

// RunE10 sweeps AP population sizes; each size is an independent world
// (run concurrently under opt.Parallelism, rendered in index order).
// In each world the registry starts pre-loaded with the full key
// population, two observers track membership — one polling full lists,
// one on the revision-delta feed — while every AP joins at its own
// staggered instant and keys churn; then region queries run and the
// first K APs bring up an X2 full mesh.
func RunE10(opt Options) (E10Result, error) {
	cfg := e10Params(opt.Quick)
	res := E10Result{
		PollKBByAPs:    map[int]float64{},
		DeltaKBByAPs:   map[int]float64{},
		ReductionByAPs: map[int]float64{},
		PollP50ByAPs:   map[int]float64{},
		DeltaP50ByAPs:  map[int]float64{},
		MinReduction:   math.Inf(1),
	}

	// Every world publishes the same keys, so their text is laid out
	// once per run; worlds only read it.
	keys := e10KeySets{
		seeded:  newE10Keys(90, cfg.nKeys, func(k uint64) uint64 { return k + 1 }, func(k uint64) uint64 { return k ^ 0x5a5a }),
		churned: newE10Keys(89, cfg.churn, func(j uint64) uint64 { return j + 7 }, func(j uint64) uint64 { return j + 9 }),
	}
	pts := make([]e10Point, len(cfg.apCounts))
	err := forEachWorld(opt, len(cfg.apCounts), func(i int) error {
		p, e := runE10World(opt.Seed+int64(i)*1000, cfg.apCounts[i], cfg, keys)
		pts[i] = p
		return e
	})
	if err != nil {
		return res, err
	}

	syncT := metrics.NewTable("E10 — §4.3: discovery at scale, full-list polling vs revision-delta sync",
		"APs", "keys", "bootstrap KB", "poll KB", "delta KB", "reduction",
		"poll p50 ms", "poll p99 ms", "delta p50 ms", "delta p99 ms")
	meshT := metrics.NewTable("E10 — region queries and X2 full-mesh bring-up",
		"APs", "region p50 ms", "avg APs hit", "mesh K", "converge ms", "X2 KB")
	for _, p := range pts {
		red := p.pollKB / p.deltaKB
		syncT.AddRow(p.n, cfg.nKeys, fmt.Sprintf("%.1f", p.initialKB),
			fmt.Sprintf("%.1f", p.pollKB), fmt.Sprintf("%.1f", p.deltaKB),
			fmt.Sprintf("%.0fx", red),
			fmt.Sprintf("%.1f", p.pollP50Ms), fmt.Sprintf("%.1f", p.pollP99Ms),
			fmt.Sprintf("%.1f", p.deltaP50Ms), fmt.Sprintf("%.1f", p.deltaP99Ms))
		meshT.AddRow(p.n, fmt.Sprintf("%.1f", p.regionP50), fmt.Sprintf("%.1f", p.regionHits),
			cfg.meshK, fmt.Sprintf("%.1f", p.convergeMs), fmt.Sprintf("%.1f", p.x2KB))
		res.PollKBByAPs[p.n] = p.pollKB
		res.DeltaKBByAPs[p.n] = p.deltaKB
		res.ReductionByAPs[p.n] = red
		res.PollP50ByAPs[p.n] = p.pollP50Ms
		res.DeltaP50ByAPs[p.n] = p.deltaP50Ms
		if red < res.MinReduction {
			res.MinReduction = red
		}
	}
	res.SyncTable, res.MeshTable = syncT, meshT
	opt.emit(syncT, meshT)
	return res, nil
}

// sleepUntil parks the calling goroutine until the absolute instant t.
func sleepUntil(clk simnet.Clock, t time.Time) {
	if d := t.Sub(clk.Now()); d > 0 {
		clk.Sleep(d)
	}
}

// e10Keys is the text of a run of published keys, laid out back to
// back in one string: key i is imsiFor(block, i), then K and OPc as
// fmt's "%032x" of two values derived from i. A seeded store holds
// 10k–100k keys; their text costs one allocation instead of three per
// key. The fields at returns are substrings, so a published key keeps
// the whole text alive, which costs nothing while the store keeps
// every key.
type e10Keys string

// e10KeyLen is one key's text: a 15-digit IMSI and two 32-digit hex
// strings.
const e10KeyLen = 15 + 32 + 32

// newE10Keys lays out n keys (n ≤ 10⁸, the IMSI's eight index digits)
// whose K and OPc encode k(i) and opc(i).
func newE10Keys(block, n int, k, opc func(i uint64) uint64) e10Keys {
	if n > 1e8 {
		panic(fmt.Sprintf("e10: %d keys overflow the IMSI's index digits", n))
	}
	var sb strings.Builder
	sb.Grow(n * e10KeyLen)
	var imsi [15]byte
	copy(imsi[:], fmt.Sprintf("00101%02d", block%100))
	var raw [16]byte
	var hexed [32]byte
	for i := 0; i < n; i++ {
		for j, v := len(imsi)-1, i; j >= 7; j, v = j-1, v/10 {
			imsi[j] = byte('0' + v%10)
		}
		sb.Write(imsi[:])
		for _, v := range [2]uint64{k(uint64(i)), opc(uint64(i))} {
			binary.BigEndian.PutUint64(raw[8:], v)
			hex.Encode(hexed[:], raw[:])
			sb.Write(hexed[:])
		}
	}
	return e10Keys(sb.String())
}

// at returns key i.
func (t e10Keys) at(i int) registry.KeyRecord {
	s := string(t)[i*e10KeyLen : (i+1)*e10KeyLen]
	return registry.KeyRecord{IMSI: s[:15], K: s[15:47], OPc: s[47:]}
}

// e10KeySets are the keys a world publishes: the population seeded
// before anyone subscribes, and the churn during the join window.
type e10KeySets struct{ seeded, churned e10Keys }

func runE10World(seed int64, n int, cfg e10Config, keys e10KeySets) (e10Point, error) {
	pt := e10Point{n: n}
	net := simnet.NewVirtualNetwork(defaultWAN, seed)
	defer net.Close()
	clk := net.Clock()
	t0 := clk.Now()

	// Registry host with the store pre-loaded: the full key population
	// exists before any observer subscribes, so the delta feed carries
	// only what changes — the point of syncing from a known revision.
	regHost, err := net.AddHost("registry")
	if err != nil {
		return pt, err
	}
	store := registry.NewStore()
	for k := 0; k < cfg.nKeys; k++ {
		if err := store.PublishKey(keys.seeded.at(k)); err != nil {
			return pt, fmt.Errorf("e10: seed key %d: %w", k, err)
		}
	}
	r0 := store.Revision()
	regL, err := regHost.Listen(8400)
	if err != nil {
		return pt, err
	}
	registry.NewServer(store).Serve(regL)
	const regAddr = "registry:8400"

	// Site layout: a grid with 1 km pitch; the first meshK sites share
	// row 0 so a known rectangle selects exactly the mesh members.
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	if cols < cfg.meshK {
		cols = cfg.meshK
	}
	rows := (n + cols - 1) / cols
	ids := make([]string, n)
	recs := make([]registry.APRecord, n)
	band := radio.LTEBand5.Name
	for i := 0; i < n; i++ {
		ids[i] = fmt.Sprintf("ap-%04d", i)
		x2addr := "joiners:1" // placeholder; only mesh members get dialed
		if i < cfg.meshK {
			x2addr = fmt.Sprintf("mesh%02d:%d", i, 36422)
		}
		recs[i] = registry.APRecord{
			ID: ids[i], X2Addr: x2addr,
			X: float64(i%cols) * 1000, Y: float64(i/cols) * 1000,
			Band: band, EIRPdBm: 58, HeightM: 20, Mode: "fair-share",
		}
	}

	joinHost, err := net.AddHost("joiners")
	if err != nil {
		return pt, err
	}
	obsHost, err := net.AddHost("observer")
	if err != nil {
		return pt, err
	}

	// One-time bootstrap both modes would pay identically: pull the
	// full membership and key tables once.
	boot, err := registry.Dial(obsHost.Dial, regAddr)
	if err != nil {
		return pt, err
	}
	if _, err := boot.List(""); err != nil {
		return pt, err
	}
	if _, err := boot.Keys(); err != nil {
		return pt, err
	}
	btx, brx := boot.Traffic()
	pt.initialKB = float64(btx+brx) / 1024
	boot.Close()

	// Delta observer: a mirror subscribed from the bootstrap revision.
	// Join arrivals are timestamped by the feed callback.
	var obsMu sync.Mutex
	deltaSeen := make(map[string]time.Time, n)
	mir, err := registry.NewMirror(obsHost.Dial, regAddr, r0)
	if err != nil {
		return pt, err
	}
	defer mir.Close()
	mir.SetOnDelta(func(d registry.Delta) {
		if d.Kind == registry.DeltaJoin {
			obsMu.Lock()
			deltaSeen[d.AP.ID] = clk.Now()
			obsMu.Unlock()
		}
	})

	// Poll observer: the pre-delta strategy — re-pull the full AP list
	// every period and the full key table every few periods.
	pollC, err := registry.Dial(obsHost.Dial, regAddr)
	if err != nil {
		return pt, err
	}
	defer pollC.Close()
	pollSeen := make(map[string]time.Time, n)

	stagger := e10JoinWindow / time.Duration(n)
	churnStagger := e10JoinWindow / time.Duration(cfg.churn)
	tEnd := t0.Add(e10JoinStart + e10JoinWindow + e10Margin)
	numPolls := int((e10JoinStart+e10JoinWindow+e10Margin-e10PollStart)/e10PollPeriod) + 1

	g := newGroup(clk)
	var firstErr error
	var errMu sync.Mutex
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

	g.spawn(func() {
		var pulled []registry.KeyRecord // reused across key pulls
		for k := 0; k < numPolls; k++ {
			sleepUntil(clk, t0.Add(e10PollStart+time.Duration(k)*e10PollPeriod))
			list, err := pollC.List("")
			if err != nil {
				fail(fmt.Errorf("e10: poll list: %w", err))
				return
			}
			now := clk.Now()
			for _, r := range list {
				if _, ok := pollSeen[r.ID]; !ok {
					pollSeen[r.ID] = now
				}
			}
			if k%e10KeyPullEvery == e10KeyPullEvery-1 {
				if pulled, err = pollC.KeysAppend(pulled[:0]); err != nil {
					fail(fmt.Errorf("e10: poll keys: %w", err))
					return
				}
			}
		}
	})

	// Joins: every AP dials its own registry connection and joins at
	// its staggered instant. Instants are all distinct, so each join is
	// one delta frame on the feed.
	joinAt := make([]time.Time, n)
	for i := 0; i < n; i++ {
		i := i
		joinAt[i] = t0.Add(e10JoinStart + time.Duration(i)*stagger)
		g.spawn(func() {
			sleepUntil(clk, joinAt[i])
			c, err := registry.Dial(joinHost.Dial, regAddr)
			if err != nil {
				fail(err)
				return
			}
			defer c.Close()
			if err := c.Join(recs[i]); err != nil {
				fail(fmt.Errorf("e10: join %s: %w", ids[i], err))
			}
		})
	}

	// Key churn during the join window: new subscribers publish while
	// membership is in flux (in-process, like Scenario.AddUE does).
	g.spawn(func() {
		for j := 0; j < cfg.churn; j++ {
			sleepUntil(clk, t0.Add(e10JoinStart+time.Duration(j)*churnStagger))
			if err := store.PublishKey(keys.churned.at(j)); err != nil {
				fail(fmt.Errorf("e10: churn key %d: %w", j, err))
				return
			}
		}
	})

	g.wait()
	if firstErr != nil {
		return pt, firstErr
	}

	// Let the mirror drain the tail of the feed, then settle accounts.
	if err := mir.WaitRev(store.Revision(), 5*time.Second); err != nil {
		return pt, err
	}
	ptx, prx := pollC.Traffic()
	pt.pollKB = float64(ptx+prx) / 1024
	dtx, drx := mir.Traffic()
	pt.deltaKB = float64(dtx+drx) / 1024

	pollH, deltaH := metrics.NewHistogram(), metrics.NewHistogram()
	obsMu.Lock()
	for i := 0; i < n; i++ {
		dt, ok := deltaSeen[ids[i]]
		if !ok {
			obsMu.Unlock()
			return pt, fmt.Errorf("e10: %s never reached the delta observer", ids[i])
		}
		pt2, ok := pollSeen[ids[i]]
		if !ok {
			obsMu.Unlock()
			return pt, fmt.Errorf("e10: %s never reached the poll observer", ids[i])
		}
		deltaH.ObserveDuration(dt.Sub(joinAt[i]))
		pollH.ObserveDuration(pt2.Sub(joinAt[i]))
	}
	obsMu.Unlock()
	pt.pollP50Ms, pt.pollP99Ms = pollH.Quantile(0.5), pollH.Quantile(0.99)
	pt.deltaP50Ms, pt.deltaP99Ms = deltaH.Quantile(0.5), deltaH.Quantile(0.99)

	// Region queries: random rectangles over the deployment, answered
	// by the server's spatial grid index.
	sleepUntil(clk, tEnd)
	queryC, err := registry.Dial(obsHost.Dial, regAddr)
	if err != nil {
		return pt, err
	}
	defer queryC.Close()
	rng := rand.New(rand.NewSource(seed + 7))
	regionH := metrics.NewHistogram()
	hits := 0
	w, h := float64(cols)*1000, float64(rows)*1000
	for q := 0; q < cfg.queries; q++ {
		cx, cy := rng.Float64()*w, rng.Float64()*h
		half := 1000 + rng.Float64()*3000
		rect := geo.Rect{Min: geo.Pt(cx-half, cy-half), Max: geo.Pt(cx+half, cy+half)}
		tq := clk.Now()
		got, err := queryC.InRegion(band, rect)
		if err != nil {
			return pt, err
		}
		regionH.ObserveDuration(clk.Since(tq))
		hits += len(got)
	}
	pt.regionP50 = regionH.Quantile(0.5)
	pt.regionHits = float64(hits) / float64(cfg.queries)

	// X2 full mesh among the meshK sites in row 0: each discovers the
	// member set with one region query, then dials every lower-indexed
	// member (so each pair associates exactly once).
	meshRect := geo.Rect{Min: geo.Pt(-500, -500), Max: geo.Pt(float64(cfg.meshK-1)*1000+500, 500)}
	agents := make([]*x2.Agent, cfg.meshK)
	meshHosts := make([]*simnet.Host, cfg.meshK)
	for k := 0; k < cfg.meshK; k++ {
		hst, err := net.AddHost(fmt.Sprintf("mesh%02d", k))
		if err != nil {
			return pt, err
		}
		meshHosts[k] = hst
		agents[k] = x2.NewAgent(ids[k], x2.PeerHello{
			X: recs[k].X, Y: recs[k].Y, BandName: band, Mode: x2.ModeFairShare,
		}, nil)
		l, err := hst.Listen(36422)
		if err != nil {
			return pt, err
		}
		defer l.Close()
		agents[k].Serve(l)
	}
	meshStart := clk.Now()
	for k := 0; k < cfg.meshK; k++ {
		k := k
		g.spawn(func() {
			sleepUntil(clk, meshStart.Add(time.Duration(k)*2*time.Millisecond))
			c, err := registry.Dial(meshHosts[k].Dial, regAddr)
			if err != nil {
				fail(err)
				return
			}
			defer c.Close()
			members, err := c.InRegion(band, meshRect)
			if err != nil {
				fail(err)
				return
			}
			for _, m := range members {
				if m.ID >= ids[k] { // dial down the ID order only
					continue
				}
				if _, err := agents[k].Connect(meshHosts[k].Dial, m.X2Addr); err != nil {
					fail(fmt.Errorf("e10: x2 connect %s→%s: %w", ids[k], m.ID, err))
					return
				}
			}
		})
	}
	g.wait()
	if firstErr != nil {
		return pt, firstErr
	}
	vc := clk.(*simnet.VirtualClock)
	if !vc.WaitUntil(10*time.Second, func() bool {
		for _, ag := range agents {
			if ag.PeerCount() != cfg.meshK-1 {
				return false
			}
		}
		return true
	}) {
		return pt, fmt.Errorf("e10: X2 mesh did not converge")
	}
	pt.convergeMs = ms(clk.Since(meshStart))

	// One load-report broadcast round across the converged mesh.
	for k, ag := range agents {
		if err := ag.Broadcast(&x2.LoadInformation{
			APID: ids[k], AttachedUEs: uint16(k + 1), PRBUtilization: 500, DemandBps: 50_000_000,
		}); err != nil {
			return pt, err
		}
	}
	if !vc.WaitUntil(5*time.Second, func() bool {
		for _, ag := range agents {
			_, _, _, rxMsgs := ag.Traffic()
			if rxMsgs < uint64(cfg.meshK-1) {
				return false
			}
		}
		return true
	}) {
		return pt, fmt.Errorf("e10: broadcast round did not complete")
	}
	var x2Bytes uint64
	for _, ag := range agents {
		tx, _, _, _ := ag.Traffic()
		x2Bytes += tx
	}
	pt.x2KB = float64(x2Bytes) / 1024
	for _, ag := range agents {
		ag.Close()
	}
	return pt, nil
}
