package exp

import (
	"fmt"
	"time"

	"dlte/internal/enb"
	"dlte/internal/metrics"
	"dlte/internal/simnet"
	"dlte/internal/ue"
	"dlte/internal/x2"
)

// E13 — million-UE attach-and-idle worlds (DESIGN.md §11). The paper's
// premise is per-AP cores cheap enough to deploy like WiFi; the
// corresponding scaling question for the *population* is how much a
// network pays to keep a registered-but-quiescent subscriber. E13
// builds a world of up to a million compact UEs — each a
// struct-of-arrays slot (ue.IdlePool) plus one timer parked in the
// hierarchical timing wheel — spread over fixed regions drained by a
// simnet.ShardedScheduler. Every UE attaches (modeled latency), then
// idles with periodic tracking-area updates; a handful later see real
// activity and are promoted through the full Device/EPC stack.
//
// Determinism: the printed table is byte-identical at any Parallelism.
// The region count is a constant (regions are a modeling unit;
// Parallelism only sets how many OS threads drain them), every per-UE
// quantity is a pure function of (seed, global index), cross-region
// aggregates are commutative sums, and the promotion log is merged
// with simnet.MergeRegions before it touches output. Wall time and
// events/sec are real-CPU measurements and therefore live only in
// E13Result, never in the rendered table.

// E13Result carries the rendered table plus the real-CPU throughput
// numbers (benchmark food, not table food).
type E13Result struct {
	Table *metrics.Table
	// BytesPerUE is the accounted steady-state cost of one idle UE:
	// its SoA slot plus its parked wheel timer. A constant of the
	// representation, independent of population, regions, or workers.
	BytesPerUE int
	// EventsByUEs / TAUByUEs / PromotedByUEs are deterministic world
	// outcomes by population size.
	EventsByUEs   map[int]uint64
	TAUByUEs      map[int]uint64
	PromotedByUEs map[int]int
	// WallByUEs / EventsPerSecByUEs are real-CPU measurements.
	WallByUEs         map[int]time.Duration
	EventsPerSecByUEs map[int]float64
}

// E13 world shape. The region count is part of the model (like a cell
// plan), not a performance knob: changing it would re-partition UEs
// and must not be conflated with -p, which only picks how many OS
// threads drain the fixed regions.
const (
	e13Regions    = 64
	e13TAC        = 13
	e13Promotions = 4

	// Per-UE timeline, jittered per UE from (seed, global index):
	// attach requests stagger over a window, complete after a modeled
	// signaling latency, then idle-mode TAUs tick until the horizon.
	e13AttachStart  = 1 * time.Second
	e13AttachSpread = 4 * time.Second
	e13AttachBase   = 15 * time.Millisecond
	e13AttachJitter = 20 * time.Millisecond
	e13TAUBase      = 22 * time.Second
	e13TAUJitter    = 16 * time.Second
	// Promotions fire near e13Activity (spaced 1 ms apart so the
	// merged log has a stable order even if two land in one region).
	e13Activity = 100 * time.Second
	e13Horizon  = 150 * time.Second
)

// Event kinds, packed into the wheel's uint64 arg next to the slot
// index: kind in the top two bits, region-local slot index below.
const (
	e13KindStart = iota
	e13KindDone
	e13KindTAU
	e13KindActivity
)

func e13Arg(kind uint64, l int) uint64 { return kind<<62 | uint64(l) }

// splitmix64 is the SplitMix64 finalizer — a cheap, well-mixed pure
// hash, so per-UE draws depend only on (seed, global index) and never
// on region boundaries or firing order.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// e13UE is one UE's drawn timeline and identity. Never stored — worlds
// recompute it on demand (a few multiplies) precisely so a million
// idle UEs cost slots and timers, not cached profiles.
type e13UE struct {
	start   time.Duration // attach request instant
	latency time.Duration // modeled attach signaling latency
	period  time.Duration // idle-mode TAU period
	guti    uint64
	ip      uint32
}

func e13Draw(seed int64, gi int) e13UE {
	h := splitmix64(uint64(seed) ^ 0xD1B54A32D192ED03)
	h = splitmix64(h ^ uint64(gi))
	h1 := splitmix64(h)
	h2 := splitmix64(h1)
	h3 := splitmix64(h2)
	return e13UE{
		start:   e13AttachStart + time.Duration(h%uint64(e13AttachSpread)),
		latency: e13AttachBase + time.Duration(h1%uint64(e13AttachJitter)),
		period:  e13TAUBase + time.Duration(h2%uint64(e13TAUJitter)),
		guti:    h3,
		ip:      uint32(h3 >> 32),
	}
}

// e13Promo is one promotion-log record; merged across regions by
// (at, gi) — gi doubles as the merge seq since promotion instants are
// unique per UE.
type e13Promo struct {
	at  time.Duration
	gi  uint64
	rec ue.PromoteRecord
}

// e13Region owns one wheel, one IdlePool, and one cell's counters. Its
// events touch nothing outside its own slots — the cells pool is shared
// but indexed by region — so its wheel runs to the horizon without
// looking at any other region.
type e13Region struct {
	idx    int
	base   int // global index of local slot 0
	count  int
	seed   int64
	sch    *simnet.Scheduler
	pool   *ue.IdlePool
	cells  *enb.CellPool
	events uint64
	promos []e13Promo
}

func (r *e13Region) handle(arg uint64) {
	r.events++
	l := int(arg &^ (uint64(3) << 62))
	now := r.sch.Now()
	switch arg >> 62 {
	case e13KindStart:
		r.pool.StartAttach(l)
		r.sch.AtIndexed(now+e13Draw(r.seed, r.base+l).latency, e13Arg(e13KindDone, l))
	case e13KindDone:
		u := e13Draw(r.seed, r.base+l)
		r.pool.Register(l, u.guti, u.ip)
		r.cells.Attach(r.idx)
		r.sch.AtIndexed(now+u.period, e13Arg(e13KindTAU, l))
	case e13KindTAU:
		// A promoted (or released) slot's parked timer dies here: the
		// full Device owns the endpoint now.
		if r.pool.State(l) != ue.IdleAttached {
			return
		}
		r.pool.TrackingAreaUpdate(l)
		r.cells.TrackingAreaUpdate(r.idx)
		r.sch.AtIndexed(now+e13Draw(r.seed, r.base+l).period, e13Arg(e13KindTAU, l))
	case e13KindActivity:
		if r.pool.State(l) != ue.IdleAttached {
			return
		}
		r.promos = append(r.promos, e13Promo{
			at: now, gi: uint64(r.base + l), rec: r.pool.Promote(l),
		})
	}
}

// e13World is the compact attach-and-idle world: n UEs block-
// partitioned over e13Regions wheels.
type e13World struct {
	n       int
	seed    int64
	ss      *simnet.ShardedScheduler
	regions []*e13Region
	cells   *enb.CellPool
}

func newE13World(seed int64, n, workers int) *e13World {
	w := &e13World{
		n: n, seed: seed,
		ss:    simnet.NewShardedScheduler(e13Regions, workers),
		cells: enb.NewCellPool(e13Regions, 1, e13TAC),
	}
	q, rem := n/e13Regions, n%e13Regions
	base := 0
	for r := 0; r < e13Regions; r++ {
		count := q
		if r < rem {
			count++
		}
		reg := &e13Region{
			idx: r, base: base, count: count, seed: seed,
			sch: w.ss.Region(r), pool: ue.NewIdlePool(count), cells: w.cells,
		}
		reg.sch.OnIndexed = reg.handle
		w.regions = append(w.regions, reg)
		base += count
	}
	return w
}

// regionOf finds the region owning global index gi under the block
// partition.
func (w *e13World) regionOf(gi int) *e13Region {
	for _, reg := range w.regions {
		if gi < reg.base+reg.count {
			return reg
		}
	}
	return w.regions[len(w.regions)-1]
}

// start allocates every slot and parks each UE's first event plus the
// activity events for the UEs that will be promoted.
func (w *e13World) start() error {
	for _, reg := range w.regions {
		for l := 0; l < reg.count; l++ {
			if _, ok := reg.pool.Alloc(); !ok {
				return fmt.Errorf("e13: region %d pool exhausted at %d", reg.idx, l)
			}
			reg.sch.AtIndexed(e13Draw(reg.seed, reg.base+l).start, e13Arg(e13KindStart, l))
		}
	}
	for k := 0; k < e13Promotions && k < w.n; k++ {
		gi := k * w.n / e13Promotions // spread across the population
		reg := w.regionOf(gi)
		reg.sch.AtIndexed(e13Activity+time.Duration(k)*time.Millisecond,
			e13Arg(e13KindActivity, gi-reg.base))
	}
	return nil
}

// run drains every region to the horizon.
func (w *e13World) run() { w.ss.RunUntil(e13Horizon) }

// totalEvents sums per-region event counts (commutative; worker-order
// invariant).
func (w *e13World) totalEvents() uint64 {
	var n uint64
	for _, reg := range w.regions {
		n += reg.events
	}
	return n
}

// mergedPromos is the global promotion log in (at, gi) order.
func (w *e13World) mergedPromos() []e13Promo {
	parts := make([][]e13Promo, len(w.regions))
	for i, reg := range w.regions {
		parts[i] = reg.promos
	}
	return simnet.MergeRegions(parts, func(p e13Promo) (time.Duration, uint64) {
		return p.at, p.gi
	})
}

// verify checks the world's end-state invariants: every UE attached,
// every slot still live (promotion holds the slot), counters balanced.
func (w *e13World) verify() error {
	live := 0
	for _, reg := range w.regions {
		live += reg.pool.Live()
	}
	if live != w.n {
		return fmt.Errorf("e13: %d live slots, want %d", live, w.n)
	}
	if got := w.cells.TotalAttached(); got != uint64(w.n) {
		return fmt.Errorf("e13: %d attaches completed, want %d", got, w.n)
	}
	return nil
}

type e13Point struct {
	n                    int
	attachP50, attachP99 float64 // modeled, ms
	tau, events          uint64
	promoted             int
	promoP50             float64 // real-stack re-attach, ms
	wall                 time.Duration
}

func e13Sizes(opt Options) []int {
	if opt.UEs > 0 {
		return []int{opt.UEs}
	}
	if opt.Quick {
		return []int{2_000, 10_000}
	}
	return []int{100_000, 1_000_000}
}

func runE13World(seed int64, n int, opt Options) (e13Point, error) {
	p := e13Point{n: n}
	w := newE13World(seed, n, opt.workers())
	t0 := time.Now()
	if err := w.start(); err != nil {
		return p, err
	}
	w.run()
	p.wall = time.Since(t0)
	if err := w.verify(); err != nil {
		return p, err
	}
	p.tau = w.cells.TotalTAU()
	p.events = w.totalEvents()

	// Modeled attach latency, recomputed in global-index order so the
	// quantiles cannot depend on the region partition.
	h := metrics.NewHistogram()
	for gi := 0; gi < n; gi++ {
		h.Observe(ms(e13Draw(seed, gi).latency))
	}
	p.attachP50, p.attachP99 = h.Quantile(0.5), h.Quantile(0.99)

	// Replay the merged promotion log through the real stack: each
	// promoted UE becomes a full Device attaching through an actual
	// AP/core — the compact world's exit ramp, measured end to end.
	promos := w.mergedPromos()
	p.promoted = len(promos)
	s, aps, err := newDLTEWorld(1, 1.0, x2.ModeFairShare, seed)
	if err != nil {
		return p, err
	}
	defer s.Close()
	ph := metrics.NewHistogram()
	for _, pr := range promos {
		name := fmt.Sprintf("pue%d", pr.gi)
		d, ar, aerr := attachNewUE(s, aps[0], name, imsiFor(13, int(pr.gi)), 0.4)
		if aerr != nil {
			return p, fmt.Errorf("e13: promote gi=%d: %w", pr.gi, aerr)
		}
		ph.Observe(ms(ar.Duration))
		d.Close()
	}
	p.promoP50 = ph.Quantile(0.5)
	return p, nil
}

// RunE13 sweeps population sizes (or runs the single opt.UEs world).
// Each size is an independent world, run concurrently under
// opt.Parallelism and rendered in index order.
func RunE13(opt Options) (E13Result, error) {
	sizes := e13Sizes(opt)
	res := E13Result{
		BytesPerUE:        ue.IdleSlotBytes + simnet.EventBytes,
		EventsByUEs:       map[int]uint64{},
		TAUByUEs:          map[int]uint64{},
		PromotedByUEs:     map[int]int{},
		WallByUEs:         map[int]time.Duration{},
		EventsPerSecByUEs: map[int]float64{},
	}
	pts := make([]e13Point, len(sizes))
	err := forEachWorld(opt, len(sizes), func(i int) error {
		p, e := runE13World(opt.Seed+int64(i)*1000, sizes[i], opt)
		pts[i] = p
		return e
	})
	if err != nil {
		return res, err
	}

	t := metrics.NewTable("E13 — million-UE attach-and-idle world (compact SoA endpoints, region wheels)",
		"UEs", "B/idle-UE", "attach p50 ms", "attach p99 ms", "TAU fires", "events", "promoted", "promo attach p50 ms")
	for _, p := range pts {
		t.AddRow(p.n, res.BytesPerUE,
			fmt.Sprintf("%.1f", p.attachP50), fmt.Sprintf("%.1f", p.attachP99),
			p.tau, p.events, p.promoted, fmt.Sprintf("%.1f", p.promoP50))
		res.EventsByUEs[p.n] = p.events
		res.TAUByUEs[p.n] = p.tau
		res.PromotedByUEs[p.n] = p.promoted
		res.WallByUEs[p.n] = p.wall
		if p.wall > 0 {
			res.EventsPerSecByUEs[p.n] = float64(p.events) / p.wall.Seconds()
		}
	}
	res.Table = t
	opt.emit(t)
	return res, nil
}
