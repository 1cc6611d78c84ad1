package exp

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"dlte/internal/mobility"
	"dlte/internal/simnet"
	"dlte/internal/ue"
)

// Scenario compiler: declarative city-scale mobility specs lowered onto
// the PR 7 sharded-scheduler machinery. A ScenarioSpec describes *what
// happens* — a vehicular corridor through a string of APs, a flash
// crowd converging on a stadium, an AP failure/recovery wave — and
// Compile lowers it to a compact world: UEs are struct-of-arrays slots
// (ue.IdlePool plus a serving-cell array), their behaviour is periodic
// measurement events parked in per-region timing wheels, and every
// per-UE quantity is a pure function of (seed, global index, event
// ordinal), so the world is byte-deterministic at any worker count.
//
// The same spec runs under two schemes. SchemeDLTE evaluates the real
// mobility.Trigger policy per measurement tick and pays a modeled
// per-handover interruption draw; SchemeTelecom performs the same
// movement but pays the constant MME-masked handover cost
// (centralHandoverMs, as in E4) — and, in a failure wave, loses every
// UE the moment the wave takes out the shared EPC, while dLTE islands
// keep serving whoever can hear a surviving AP.

// Scheme selects whose mobility plane the compiled world models.
type Scheme int

// The two schemes every scenario compiles under.
const (
	SchemeDLTE Scheme = iota
	SchemeTelecom
)

// String names the scheme as the E11 table prints it.
func (s Scheme) String() string {
	if s == SchemeTelecom {
		return "telecom LTE"
	}
	return "dLTE"
}

// ScenarioKind is the shape of a compiled scenario.
type ScenarioKind int

// The three E11 scenario shapes.
const (
	KindCorridor ScenarioKind = iota
	KindFlashCrowd
	KindFailureWave
)

// ScenarioSpec declares a mobility scenario. Fields are interpreted by
// kind; zero values take the defaults noted per field.
type ScenarioSpec struct {
	Name string
	Kind ScenarioKind
	// UEs is the compact population; APs the number of cells.
	UEs, APs int
	// SpacingM is the inter-AP distance along the corridor (or the
	// home-cell grid pitch), meters.
	SpacingM float64
	// SpeedMps is the corridor's mean vehicle speed (jittered ±25% per
	// UE).
	SpeedMps float64
	// HotCells is how many cells the flash crowd converges on;
	// ConvergeAt/DisperseAt bound the event.
	HotCells               int
	ConvergeAt, DisperseAt time.Duration
	// FailAPs cells (indices 0..FailAPs-1) crash at FailAt and restart
	// at RecoverAt — the simnet-injected failure wave.
	FailAPs           int
	FailAt, RecoverAt time.Duration
	// Promotions is how many compact UEs get real activity (flash
	// crowd): they are promoted out of the IdlePool standing army and
	// replayed through the full stack by the experiment.
	Promotions int
	// Horizon ends the world.
	Horizon time.Duration
}

// Scenario world shape. Like E13, the region count is a modeling unit
// — a fixed partition of the population — never a performance knob;
// Options.Parallelism only picks how many OS threads drain the regions.
const (
	scenRegions = 64

	// Measurement cadence: each UE evaluates its radio environment
	// every measureBase + [0, measureJitter) — drawn per (UE, tick) so
	// the population desynchronizes naturally.
	scenMeasureBase   = 2 * time.Second
	scenMeasureJitter = 1 * time.Second

	// Modeled dLTE handover interruption: break-before-make re-attach,
	// drawn per handover. The telecom scheme pays centralHandoverMs
	// flat (E4's modeled MME handover).
	scenHOBaseMs   = 18
	scenHOJitterMs = 22

	// Radio model: log-distance pathloss anchored at −60 dBm @ 100 m,
	// 35 dB/decade. Cells are audible to ~3 km — pure geometry, no rng.
	scenRSRPRefDBm  = -60.0
	scenRSRPRefM    = 100.0
	scenRSRPSlope   = 35.0
	scenMinUsableDB = -120.0
)

// Event kinds packed kind<<62 | region-local slot index.
const (
	scenKindStart = iota
	scenKindMeasure
	scenKindActivity
)

func scenArg(kind uint64, l int) uint64 { return kind<<62 | uint64(l) }

// scenUE is one UE's drawn identity: start stagger, speed factor, home
// cell, and position offsets. Recomputed on demand, never stored.
type scenUE struct {
	start time.Duration // first measurement tick
	speed float64       // corridor m/s (already jittered)
	home  int           // home cell index
	offM  float64       // offset within the home cell, meters
	guti  uint64
	ip    uint32
}

func scenDraw(spec *ScenarioSpec, seed int64, gi int) scenUE {
	h := splitmix64(uint64(seed) ^ 0xA24BAED4963EE407)
	h = splitmix64(h ^ uint64(gi))
	h1 := splitmix64(h)
	h2 := splitmix64(h1)
	h3 := splitmix64(h2)
	u := scenUE{
		start: time.Duration(h % uint64(2*time.Second)),
		speed: spec.SpeedMps * (0.75 + 0.5*float64(h1%1000)/1000),
		home:  int(h2 % uint64(spec.APs)),
		offM:  (float64(h2>>32%1000)/1000 - 0.5) * spec.SpacingM,
		guti:  h3,
		ip:    uint32(h3 >> 32),
	}
	return u
}

// scenMeasurePeriod draws the gap to a UE's next measurement tick, pure
// in (seed, gi, tick ordinal).
func scenMeasurePeriod(seed int64, gi, tick int) time.Duration {
	h := splitmix64(uint64(seed) ^ 0xC2B2AE3D27D4EB4F)
	h = splitmix64(h ^ uint64(gi)<<20 ^ uint64(tick))
	return scenMeasureBase + time.Duration(h%uint64(scenMeasureJitter))
}

// Interruption samples are stored as 2-byte draw codes: a dLTE draw is
// its jitter in microseconds, [0, scenHOCodes), and scenHOTelecomCode
// stands for the telecom scheme's flat centralHandoverMs. scenHOMs is
// increasing in the code (centralHandoverMs is above every dLTE draw),
// so code order is sample order.
const (
	scenHOCodes       = scenHOJitterMs * 1000
	scenHOTelecomCode = scenHOCodes
)

// scenHOCode draws the modeled dLTE interruption for UE gi's k-th
// handover, as a code for scenHOMs.
func scenHOCode(seed int64, gi int, k uint32) uint16 {
	h := splitmix64(uint64(seed) ^ 0x9FB21C651E98DF25)
	h = splitmix64(h ^ uint64(gi)<<16 ^ uint64(k))
	return uint16(h % scenHOCodes)
}

// scenHOMs is the interruption a code stands for, milliseconds.
func scenHOMs(code uint16) float64 {
	if code == scenHOTelecomCode {
		return centralHandoverMs
	}
	return scenHOBaseMs + float64(code)/1000
}

// scenHOQuantiles reports the p50/p99 of the samples the codes stand
// for, bit-equal to metrics.Histogram.Quantile over those samples: it
// counts codes and reads the two order statistics each quantile
// interpolates between, instead of sorting the floats.
func scenHOQuantiles(parts [][]uint16) (p50, p99 float64) {
	counts := make([]uint32, scenHOCodes+1)
	n := 0
	for _, p := range parts {
		for _, c := range p {
			counts[c]++
		}
		n += len(p)
	}
	if n == 0 {
		return 0, 0
	}
	return scenHOQuantile(counts, n, 0.5), scenHOQuantile(counts, n, 0.99)
}

// scenHOQuantile is metrics.Histogram.Quantile for 0 < q < 1 over the
// n samples counted per code.
func scenHOQuantile(counts []uint32, n int, q float64) float64 {
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo) // 0 when lo == hi, which then returns v*1 + v*0 = v
	return scenHOOrdered(counts, lo)*(1-frac) + scenHOOrdered(counts, hi)*frac
}

// scenHOOrdered is the k-th smallest counted sample (0-based).
func scenHOOrdered(counts []uint32, k int) float64 {
	for c, m := range counts {
		if k < int(m) {
			return scenHOMs(uint16(c))
		}
		k -= int(m)
	}
	panic("scenHOOrdered: rank out of range")
}

// scenRSRP is the audible power at distance d meters — the same
// log-distance model everywhere, so trigger decisions are pure
// geometry.
func scenRSRP(dM float64) float64 {
	if dM < scenRSRPRefM {
		dM = scenRSRPRefM
	}
	return scenRSRPRefDBm - scenRSRPSlope*math.Log10(dM/scenRSRPRefM)
}

// cellX is cell c's position along the corridor axis.
func (spec *ScenarioSpec) cellX(c int) float64 { return float64(c) * spec.SpacingM }

// cellDown reports whether cell c is inside the failure window at t —
// a pure function of time, so regions need no cross-talk to agree on
// the wave.
func (spec *ScenarioSpec) cellDown(c int, t time.Duration) bool {
	if spec.Kind != KindFailureWave || c >= spec.FailAPs {
		return false
	}
	return t >= spec.FailAt && t < spec.RecoverAt
}

// uePos is UE gi's position along the corridor axis at time t — pure
// geometry per kind.
func (spec *ScenarioSpec) uePos(u scenUE, t time.Duration) float64 {
	switch spec.Kind {
	case KindCorridor:
		// Vehicles enter at their home cell and drive toward the far
		// end, wrapping back to the start of the corridor (a loop
		// road), so handovers keep coming for the whole horizon.
		span := float64(spec.APs-1) * spec.SpacingM
		if span <= 0 {
			return 0
		}
		x := spec.cellX(u.home) + u.offM + u.speed*t.Seconds()
		return math.Mod(math.Mod(x, span)+span, span)
	case KindFlashCrowd:
		// Home cell, except during the event window when the crowd
		// stands at one of the hot cells (center of the deployment).
		if t >= spec.ConvergeAt && t < spec.DisperseAt {
			hot := spec.APs/2 - spec.HotCells/2 + u.home%spec.HotCells
			return spec.cellX(hot) + u.offM/8 // packed tight
		}
		return spec.cellX(u.home) + u.offM
	default: // KindFailureWave: stationary population
		return spec.cellX(u.home) + u.offM
	}
}

// scenTieRel is the relative distance gap below which two cells' RSRPs
// may round to the same float. Ranking by RSRP is the specification
// (strongest wins, lowest index on a tie); ranking by distance is the
// same order without the logarithm everywhere outside that gap.
const scenTieRel = 1e-9

// nearestLiveCell picks the strongest live cell for a UE at x and
// returns it with its clamped distance, or -1 when no cell in the scan
// window is live. RSRP falls with clamped distance, so the scan ranks
// by distance and takes a logarithm only to split a near-tie; cells at
// the same clamped distance (the plateau inside scenRSRPRefM included)
// have the same RSRP and keep the lower index.
func (spec *ScenarioSpec) nearestLiveCell(x float64, t time.Duration) (int, float64) {
	best, bestD := -1, math.Inf(1)
	// [nearer, farther] brackets the distances whose RSRP may round to
	// the best cell's; outside it the distance order is the RSRP order.
	nearer, farther := bestD, bestD
	// Only cells within a few spacings matter; scan a window.
	c0 := int(x/spec.SpacingM) - 3
	if c0 < 0 {
		c0 = 0
	}
	for c := c0; c < spec.APs && c <= c0+6; c++ {
		if spec.cellDown(c, t) {
			continue
		}
		d := math.Abs(x - spec.cellX(c))
		if d < scenRSRPRefM {
			d = scenRSRPRefM // scenRSRP's clamp
		}
		if d > farther || d == bestD {
			continue // weaker, or the same RSRP: the earlier cell keeps it
		}
		if d < nearer || scenRSRP(d) > scenRSRP(bestD) {
			best, bestD = c, d
			nearer, farther = d*(1-scenTieRel), d*(1+scenTieRel)
		}
	}
	return best, bestD
}

// bestLiveCell is the cell a UE at x attaches to: the strongest live
// cell if it clears the usable floor, else -1 — the compact analogue of
// mobility.BestCell over the cell string.
func (spec *ScenarioSpec) bestLiveCell(x float64, t time.Duration) int {
	best, d := spec.nearestLiveCell(x, t)
	if best < 0 || scenRSRP(d) < scenMinUsableDB {
		return -1
	}
	return best
}

// scenPromo is one flash-crowd promotion record, merged across regions
// by (at, gi).
type scenPromo struct {
	at  time.Duration
	gi  uint64
	rec ue.PromoteRecord
}

// scenRegion owns one wheel's worth of the population. Its events touch
// only its own slots and counters, so its wheel runs to the horizon
// without looking at any other region; cross-region figures are sums
// and merged logs taken after the run.
type scenRegion struct {
	idx, base, count int
	spec             *ScenarioSpec
	scheme           Scheme
	seed             int64
	sch              *simnet.Scheduler
	pool             *ue.IdlePool
	serving          []int32  // cell index, -1 while out of service
	hoCount          []uint32 // per-slot handovers (the draw ordinal)

	events, handovers   uint64
	dropped, reattached uint64   // failure-wave outcomes
	interruptCodes      []uint16 // per-handover interruption, see scenHOMs
	promos              []scenPromo
}

func (r *scenRegion) handle(arg uint64) {
	r.events++
	l := int(arg &^ (uint64(3) << 62))
	gi := r.base + l
	now := r.sch.Now()
	switch arg >> 62 {
	case scenKindStart:
		u := scenDraw(r.spec, r.seed, gi)
		r.pool.StartAttach(l)
		r.pool.Register(l, u.guti, u.ip)
		r.serving[l] = int32(r.spec.bestLiveCell(r.spec.uePos(u, now), now))
		r.sch.AtIndexed(now+scenMeasurePeriod(r.seed, gi, 0), scenArg(scenKindMeasure, l))
	case scenKindMeasure:
		r.measure(l, gi, now)
	case scenKindActivity:
		if r.pool.State(l) != ue.IdleAttached {
			return
		}
		r.promos = append(r.promos, scenPromo{at: now, gi: uint64(gi), rec: r.pool.Promote(l)})
	}
}

// measure is one UE's periodic radio check — the compact lowering of
// the mobility plane's trigger loop.
func (r *scenRegion) measure(l, gi int, now time.Duration) {
	spec := r.spec
	u := scenDraw(spec, r.seed, gi)
	x := spec.uePos(u, now)
	cur := int(r.serving[l])

	telecomDead := r.scheme == SchemeTelecom && spec.Kind == KindFailureWave &&
		now >= spec.FailAt && now < spec.RecoverAt

	switch {
	case telecomDead:
		// The shared EPC died with the wave: no AP can serve anyone,
		// islands or not.
		if cur >= 0 {
			r.serving[l] = -1
			r.dropped++
		}
	case cur >= 0 && spec.cellDown(cur, now):
		// Serving cell crashed under the UE: grab the best survivor or
		// drop.
		if best := spec.bestLiveCell(x, now); best >= 0 {
			r.serving[l] = int32(best)
			r.recordHandover(gi, l)
			r.reattached++
		} else {
			r.serving[l] = -1
			r.dropped++
		}
	case cur < 0:
		// Out of service (dropped earlier): re-attach as soon as any
		// cell is audible again.
		if best := spec.bestLiveCell(x, now); best >= 0 {
			r.serving[l] = int32(best)
		}
	default:
		// Normal trigger evaluation: does the best neighbour beat the
		// serving cell by the A3 hysteresis (or the serving cell fall
		// below the floor)? Most ticks the strongest cell is the serving
		// cell and no RSRP is needed at all.
		if best, d := spec.nearestLiveCell(x, now); best >= 0 && best != cur {
			bestRSRP := scenRSRP(d)
			if bestRSRP >= scenMinUsableDB &&
				scenTrigger.Decide(scenRSRP(math.Abs(x-spec.cellX(cur))), bestRSRP) {
				r.serving[l] = int32(best)
				r.recordHandover(gi, l)
			}
		}
	}

	tick := int(r.hoCount[l]) + int(r.pool.TAUCount(l))
	r.pool.TrackingAreaUpdate(l) // tick counter doubles as measure count
	r.sch.AtIndexed(now+scenMeasurePeriod(r.seed, gi, tick+1), scenArg(scenKindMeasure, l))
}

func (r *scenRegion) recordHandover(gi, l int) {
	r.handovers++
	code := uint16(scenHOTelecomCode)
	if r.scheme != SchemeTelecom {
		code = scenHOCode(r.seed, gi, r.hoCount[l])
	}
	r.interruptCodes = append(r.interruptCodes, code)
	r.hoCount[l]++
}

// scenTrigger is the one handover policy every compiled scenario
// evaluates — the same mobility.Trigger the real planes run.
var scenTrigger = mobility.DefaultTrigger()

// CompiledScenario is a runnable compact world.
type CompiledScenario struct {
	Spec    ScenarioSpec
	Scheme  Scheme
	seed    int64
	ss      *simnet.ShardedScheduler
	regions []*scenRegion
}

// CompileScenario lowers spec onto a sharded compact world. workers
// follows the Options.Parallelism convention (0 = one per CPU) and
// never changes results.
func CompileScenario(spec ScenarioSpec, scheme Scheme, seed int64, workers int) (*CompiledScenario, error) {
	if spec.UEs <= 0 || spec.APs <= 1 || spec.SpacingM <= 0 {
		return nil, fmt.Errorf("scenario %q: need UEs>0, APs>1, SpacingM>0", spec.Name)
	}
	if workers == 0 {
		workers = runtime.NumCPU()
	}
	w := &CompiledScenario{
		Spec: spec, Scheme: scheme, seed: seed,
		ss: simnet.NewShardedScheduler(scenRegions, workers),
	}
	q, rem := spec.UEs/scenRegions, spec.UEs%scenRegions
	base := 0
	for i := 0; i < scenRegions; i++ {
		count := q
		if i < rem {
			count++
		}
		reg := &scenRegion{
			idx: i, base: base, count: count,
			spec: &w.Spec, scheme: scheme, seed: seed,
			sch:     w.ss.Region(i),
			pool:    ue.NewIdlePool(count),
			serving: make([]int32, count),
			hoCount: make([]uint32, count),
		}
		reg.sch.OnIndexed = reg.handle
		w.regions = append(w.regions, reg)
		base += count
	}
	return w, nil
}

// Run seeds the world and drains it to the spec's horizon.
func (w *CompiledScenario) Run() error {
	if err := w.start(); err != nil {
		return err
	}
	w.ss.RunUntil(w.Spec.Horizon)
	return nil
}

// start allocates every slot and parks each UE's start event, plus the
// flash crowd's activity events.
func (w *CompiledScenario) start() error {
	spec := &w.Spec
	for _, reg := range w.regions {
		for l := 0; l < reg.count; l++ {
			if _, ok := reg.pool.Alloc(); !ok {
				return fmt.Errorf("scenario %q: region %d pool exhausted", spec.Name, reg.idx)
			}
			reg.sch.AtIndexed(scenDraw(spec, w.seed, reg.base+l).start, scenArg(scenKindStart, l))
		}
	}
	if spec.Kind == KindFlashCrowd {
		for k := 0; k < spec.Promotions && k < spec.UEs; k++ {
			gi := k * spec.UEs / spec.Promotions
			reg := w.regionOf(gi)
			// Activity hits mid-event, 1 ms apart so the merged log has
			// a stable order even if two land in one region.
			at := spec.ConvergeAt + 5*time.Second + time.Duration(k)*time.Millisecond
			reg.sch.AtIndexed(at, scenArg(scenKindActivity, gi-reg.base))
		}
	}
	return nil
}

func (w *CompiledScenario) regionOf(gi int) *scenRegion {
	for _, reg := range w.regions {
		if gi < reg.base+reg.count {
			return reg
		}
	}
	return w.regions[len(w.regions)-1]
}

// Handovers is the world's total handover count (commutative sum).
func (w *CompiledScenario) Handovers() uint64 {
	var n uint64
	for _, reg := range w.regions {
		n += reg.handovers
	}
	return n
}

// Events sums per-region event counts.
func (w *CompiledScenario) Events() uint64 {
	var n uint64
	for _, reg := range w.regions {
		n += reg.events
	}
	return n
}

// Outage reports the failure-wave outcome: how many UEs lost their
// serving cell to the wave, how many of those immediately re-attached
// to a surviving island, and the resulting survival rate. A scenario
// with no failure wave reports 1.0.
func (w *CompiledScenario) Outage() (dropped, reattached uint64, survival float64) {
	for _, reg := range w.regions {
		dropped += reg.dropped
		reattached += reg.reattached
	}
	affected := dropped + reattached
	if affected == 0 {
		return 0, 0, 1.0
	}
	return dropped, reattached, float64(reattached) / float64(affected)
}

// InterruptionQuantiles reports the modeled per-handover interruption
// p50/p99 in ms. Each region's samples depend only on that region, so
// the multiset is worker-invariant.
func (w *CompiledScenario) InterruptionQuantiles() (p50, p99 float64) {
	parts := make([][]uint16, len(w.regions))
	for i, reg := range w.regions {
		parts[i] = reg.interruptCodes
	}
	return scenHOQuantiles(parts)
}

// Promotions is the merged flash-crowd promotion log in (at, gi)
// order, ready to replay through the real stack.
func (w *CompiledScenario) Promotions() []scenPromo {
	parts := make([][]scenPromo, len(w.regions))
	for i, reg := range w.regions {
		parts[i] = reg.promos
	}
	return simnet.MergeRegions(parts, func(p scenPromo) (time.Duration, uint64) {
		return p.at, p.gi
	})
}

// Verify checks end-state invariants: every slot live, and (outside a
// telecom failure wave) everyone back in service by the horizon.
func (w *CompiledScenario) Verify() error {
	live, outOfService := 0, 0
	for _, reg := range w.regions {
		live += reg.pool.Live()
		for _, s := range reg.serving {
			if s < 0 {
				outOfService++
			}
		}
	}
	if live != w.Spec.UEs {
		return fmt.Errorf("scenario %q: %d live slots, want %d", w.Spec.Name, live, w.Spec.UEs)
	}
	if w.Spec.Kind == KindFailureWave && w.Spec.RecoverAt < w.Spec.Horizon && outOfService > 0 {
		return fmt.Errorf("scenario %q: %d UEs still out of service after recovery", w.Spec.Name, outOfService)
	}
	return nil
}
