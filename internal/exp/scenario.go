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
// compact region-partitioned worlds. A ScenarioSpec describes *what
// happens* — a vehicular corridor through a string of APs, a flash
// crowd converging on a stadium, an AP failure/recovery wave — and
// Compile lowers it to a compact world: UEs are struct-of-arrays slots
// (ue.IdlePool plus serving-cell, draw and handover-count arrays),
// their behaviour is a chain of periodic measurement ticks that each
// UE runs to the horizon in one loop, parking no timer, and every
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

// scenKeys is a world's seed mixed once into each per-UE draw stream,
// so a draw pays only its own splitmix rounds.
type scenKeys struct{ draw, period uint64 }

func newScenKeys(seed int64) scenKeys {
	return scenKeys{
		draw:   splitmix64(uint64(seed) ^ 0xA24BAED4963EE407),
		period: splitmix64(uint64(seed) ^ 0xC2B2AE3D27D4EB4F),
	}
}

// scenDrawCodes is the resolution of the offset and speed draws: each
// draws one of this many rows of its world's scenTables.
const scenDrawCodes = 1000

// scenUE is one UE's drawn identity: start stagger, home cell, the
// offset and speed draw codes, and its GUTI and IP. The start event
// draws it once and keeps home and the two codes in the region's slots,
// where measure reads them.
type scenUE struct {
	start              time.Duration // first measurement tick
	home               int32         // home cell index
	offCode, speedCode uint16        // rows of scenTables.offM and .speed
	guti               uint64
	ip                 uint32
}

func scenDraw(spec *ScenarioSpec, key uint64, gi int) scenUE {
	h := splitmix64(key ^ uint64(gi))
	h1 := splitmix64(h)
	h2 := splitmix64(h1)
	h3 := splitmix64(h2)
	return scenUE{
		start:     time.Duration(h % uint64(2*time.Second)),
		home:      int32(h2 % uint64(spec.APs)),
		offCode:   uint16(h2 >> 32 % scenDrawCodes),
		speedCode: uint16(h1 % scenDrawCodes),
		guti:      h3,
		ip:        uint32(h3 >> 32),
	}
}

// scenTables holds what each draw code stands for: offM the offset
// within the home cell, meters, and speed the corridor m/s (the mean
// jittered ±25 %).
type scenTables struct {
	offM, speed [scenDrawCodes]float64
}

func (spec *ScenarioSpec) drawTables() (tab scenTables) {
	for c := range tab.offM {
		tab.offM[c] = (float64(c)/scenDrawCodes - 0.5) * spec.SpacingM
		tab.speed[c] = spec.SpeedMps * (0.75 + 0.5*float64(c)/scenDrawCodes)
	}
	return tab
}

// scenMeasurePeriod draws the gap to a UE's next measurement tick, pure
// in (seed, gi, tick ordinal); key is the seed's scenKeys.period.
func scenMeasurePeriod(key uint64, gi, tick int) time.Duration {
	h := splitmix64(key ^ uint64(gi)<<20 ^ uint64(tick))
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

// scenHOCountQuantiles reports the p50/p99 of the n samples counted
// per code (0, 0 when n is 0), bit-equal to metrics.Histogram.Quantile
// over those samples: it reads the two order statistics each quantile
// interpolates between instead of sorting the floats.
func scenHOCountQuantiles(counts []uint32, n int) (p50, p99 float64) {
	if n == 0 {
		return 0, 0
	}
	return scenHOQuantile(counts, n, 0.5), scenHOQuantile(counts, n, 0.99)
}

// scenTelecomQuantiles is scenHOCountQuantiles over n telecom
// handovers, every one of them at scenHOTelecomCode.
func scenTelecomQuantiles(n uint64) (p50, p99 float64) {
	counts := make([]uint32, scenHOCodes+1)
	counts[scenHOTelecomCode] = uint32(n)
	return scenHOCountQuantiles(counts, int(n))
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

// uePos is the position along the corridor axis, at time t, of a UE
// with the given home cell, offset and speed — pure geometry per kind.
func (spec *ScenarioSpec) uePos(home int, offM, speed float64, t time.Duration) float64 {
	switch spec.Kind {
	case KindCorridor:
		// Vehicles enter at their home cell and drive toward the far
		// end, wrapping back to the start of the corridor (a loop
		// road), so handovers keep coming for the whole horizon.
		span := float64(spec.APs-1) * spec.SpacingM
		if span <= 0 {
			return 0
		}
		return scenWrap(spec.cellX(home)+offM+speed*t.Seconds(), span)
	case KindFlashCrowd:
		// Home cell, except during the event window when the crowd
		// stands at one of the hot cells (center of the deployment).
		if t >= spec.ConvergeAt && t < spec.DisperseAt {
			hot := spec.APs/2 - spec.HotCells/2 + home%spec.HotCells
			return spec.cellX(hot) + offM/8 // packed tight
		}
		return spec.cellX(home) + offM
	default: // KindFailureWave: stationary population
		return spec.cellX(home) + offM
	}
}

// scenWrap is math.Mod(math.Mod(x, span)+span, span), bit for bit,
// without the software remainder on the usual path. For x in
// (−span, 2·span) the inner remainder is x or x−span, both exact
// (Sterbenz), and so is y−span for y in [span, 2·span). Everything
// else — x out of range, NaN, ±Inf, and a sum r+span that rounds up to
// 2·span — takes math.Mod.
func scenWrap(x, span float64) float64 {
	var r float64
	switch {
	case x > -span && x < span:
		r = x
	case x >= span && x < 2*span:
		r = x - span
	default:
		return math.Mod(math.Mod(x, span)+span, span)
	}
	switch y := r + span; {
	case y < span:
		return y
	case y < 2*span:
		return y - span
	default:
		return math.Mod(y, span)
	}
}

// scenTieRel is the relative distance gap below which two cells' RSRPs
// may round to the same float. Ranking by RSRP is the specification
// (strongest wins, lowest index on a tie); ranking by distance is the
// same order without the logarithm everywhere outside that gap.
const scenTieRel = 1e-9

// nearestLiveCell picks the strongest live cell for a UE at x and
// returns it with its clamped distance, or -1 when no cell in the scan
// window [c0, c0+6] is live. RSRP falls with clamped distance, and
// distance grows with the cell index east of x and shrinks with it west
// of x, so only the nearest live cell on each side can win — plus, west
// of x, farther cells close enough to tie with it (the clamp plateau
// inside scenRSRPRefM), since a tie goes to the lower index. The ranking
// runs by distance and takes a logarithm only to split a near-tie;
// cells at the same clamped distance have the same RSRP and keep the
// lower index.
func (spec *ScenarioSpec) nearestLiveCell(x float64, t time.Duration) (int, float64) {
	// Only cells within a few spacings matter; scan a window.
	q := int(x / spec.SpacingM)
	c0 := q - 3
	if c0 < 0 {
		c0 = 0
	}
	c1 := min(c0+6, spec.APs-1)
	// e is the first window cell east of x, w the last one at or west
	// of it; each then moves outward to the nearest live cell.
	e := min(max(q+1, c0), c1+1)
	for e > c0 && spec.cellX(e-1) > x {
		e--
	}
	for e <= c1 && spec.cellX(e) <= x {
		e++
	}
	w := e - 1
	for w >= c0 && spec.cellDown(w, t) {
		w--
	}
	for e <= c1 && spec.cellDown(e, t) {
		e++
	}
	from := e
	if w >= c0 {
		from = w
		for band := spec.cellDist(x, w) * (1 + scenTieRel); from > c0 && spec.cellDist(x, from-1) <= band; {
			from--
		}
	}

	best, bestD := -1, math.Inf(1)
	// [nearer, farther] brackets the distances whose RSRP may round to
	// the best cell's; outside it the distance order is the RSRP order.
	nearer, farther := bestD, bestD
	for c := from; c <= min(e, c1); c++ {
		if spec.cellDown(c, t) {
			continue
		}
		d := spec.cellDist(x, c)
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

// scenSafeRel is 1 000× scenTieRel: a margin no RSRP tie or rounding
// can close.
const scenSafeRel = 1e-6

// safeRadius is the distance h from a live serving cell within which a
// tick provably stays (DESIGN.md §11, "No-op ticks"). At a = |x −
// cellX(cur)| < h every other cell is at least spacing − a away, and h
// keeps max(a, R) ≤ (1 − m)·max(spacing − a, R), R = scenRSRPRefM: the
// serving cell is strictly the strongest, and inside the scan window.
// Below 2R of spacing the clamp plateau shrinks h; at R it is 0.
func (spec *ScenarioSpec) safeRadius() float64 {
	const m = scenSafeRel
	s := spec.SpacingM
	return max(0, min((1-m)*s/(2-m), s-scenRSRPRefM/(1-m)))
}

// cellDist is cell c's distance from x with scenRSRP's clamp applied.
func (spec *ScenarioSpec) cellDist(x float64, c int) float64 {
	d := math.Abs(x - spec.cellX(c))
	if d < scenRSRPRefM {
		d = scenRSRPRefM
	}
	return d
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
// by (at, gi); a region files its activity instants as records whose
// rec is still unset.
type scenPromo struct {
	at  time.Duration
	gi  uint64
	rec ue.PromoteRecord
}

// scenRegion owns one slice of the population. A UE's events touch only
// its own slots and commutative counters, and cells are pure functions
// of time, so run takes the slots one at a time, each to the horizon;
// cross-region figures are sums and merged logs taken after the run.
type scenRegion struct {
	idx, base, count int
	spec             *ScenarioSpec
	tab              *scenTables
	scheme           Scheme
	keys             scenKeys
	safeM            float64 // spec.safeRadius()
	pool             *ue.IdlePool
	acts             []scenPromo // activity instants ≤ horizon, rec unset, in gi order

	// Per-slot arrays, carved from the world's shared backings. The
	// start event fills home and the draw codes; measure only reads
	// them.
	serving            []int32  // cell index, -1 while out of service
	home               []int32  // home cell index
	offCode, speedCode []uint16 // rows of *tab
	hoCount            []uint32 // per-slot handovers (the draw ordinal)

	events, handovers   uint64
	dropped, reattached uint64 // failure-wave outcomes
	promos              []scenPromo
}

// run drains the region slot-major: a slot's start, then its ticks while
// t ≤ horizon, with its activity instants merged in by the timing
// wheel's tie rule — at one instant, start runs before activity and
// activity before measure. After each corridor event it counts the
// slot's ticks up to runAhead's instant without measuring them: each
// would take measure's safe-radius exit, which only counts the tick.
func (r *scenRegion) run(horizon time.Duration) {
	acts := r.acts
	for l := 0; l < r.count; l++ {
		gi := uint64(r.base + l)
		u := scenDraw(r.spec, r.keys.draw, int(gi))
		next, started := u.start, false
		for {
			for len(acts) > 0 && acts[0].gi == gi && (acts[0].at < next || started && acts[0].at == next) {
				r.activity(l, acts[0].at)
				acts = acts[1:]
			}
			if next > horizon {
				break
			}
			now, x := next, 0.0
			if started {
				next, x = r.measure(l, now)
			} else {
				next, x = r.start(l, u)
				started = true
			}
			if r.spec.Kind == KindCorridor {
				limit := horizon
				if len(acts) > 0 && acts[0].gi == gi {
					limit = min(limit, acts[0].at-1)
				}
				for lo := r.runAhead(l, now, x, next, limit); next <= lo; {
					r.events++
					next = r.countTick(l, next)
				}
			}
		}
	}
}

// runAhead returns an instant lo ≤ limit up to which corridor slot l,
// at x0 at now, provably stays within its serving cell's safe radius,
// or now. Between wraps x(t) never decreases (uePos is a chain of
// rounded monotone operations of t, for a positive speed), and v·(lo −
// now) stays below half a lap, so a wrap in (now, lo] would put x(lo)
// below x0. lo comes from the speed less a margin and is checked with
// x(lo) itself: x0 ≤ x(lo) puts every tick in (now, lo] in [x0, x(lo)],
// and both ends pass measure's own test x − cellX(cur) within ±h.
func (r *scenRegion) runAhead(l int, now time.Duration, x0 float64, next, limit time.Duration) time.Duration {
	cur, v := r.serving[l], r.tab.speed[r.speedCode[l]]
	if cur < 0 || !(v > 0) || next > limit {
		return now
	}
	c, h := r.spec.cellX(int(cur)), r.safeM
	if math.Abs(x0-c) >= h {
		return now
	}
	lo := limit
	halfLap := float64(r.spec.APs-1) * r.spec.SpacingM / 2
	if dt := min(c+h-x0, halfLap) / v * (1 - scenSafeRel) * float64(time.Second); dt < float64(limit-now) {
		lo = now + time.Duration(dt)
	}
	if x1 := r.pos(l, lo); x1 < x0 || x1-c >= h {
		return now
	}
	return lo
}

// start attaches slot l's UE at u.start and keeps its draws in the
// slots. It returns the first measurement tick and the UE's position.
func (r *scenRegion) start(l int, u scenUE) (time.Duration, float64) {
	r.events++
	r.home[l], r.offCode[l], r.speedCode[l] = u.home, u.offCode, u.speedCode
	r.pool.StartAttach(l)
	r.pool.Register(l, u.guti, u.ip)
	x := r.pos(l, u.start)
	r.serving[l] = int32(r.spec.bestLiveCell(x, u.start))
	return u.start + scenMeasurePeriod(r.keys.period, r.base+l, 0), x
}

// activity promotes slot l's UE out of the pool if it is attached; an
// activity before the UE's start, or after its promotion, only counts.
func (r *scenRegion) activity(l int, now time.Duration) {
	r.events++
	if r.pool.State(l) != ue.IdleAttached {
		return
	}
	r.promos = append(r.promos, scenPromo{at: now, gi: uint64(r.base + l), rec: r.pool.Promote(l)})
}

// pos is slot l's position at t.
func (r *scenRegion) pos(l int, t time.Duration) float64 {
	return r.spec.uePos(int(r.home[l]), r.tab.offM[r.offCode[l]], r.tab.speed[r.speedCode[l]], t)
}

// measure is one UE's periodic radio check — the compact lowering of
// the mobility plane's trigger loop. It returns the UE's next tick and
// the position it measured at. Within the safe radius of a live serving
// cell the tick stays without a radio scan.
func (r *scenRegion) measure(l int, now time.Duration) (time.Duration, float64) {
	r.events++
	spec := r.spec
	x := r.pos(l, now)
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
			r.recordHandover(l)
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
		// below the floor)? Inside the safe radius the serving cell is
		// the strongest and there is nothing to scan; outside it, most
		// ticks still find no stronger cell and need no RSRP at all.
		if d := math.Abs(x - spec.cellX(cur)); d >= r.safeM {
			if best, bd := spec.nearestLiveCell(x, now); best >= 0 && best != cur {
				bestRSRP := scenRSRP(bd)
				if bestRSRP >= scenMinUsableDB && scenTrigger.Decide(scenRSRP(d), bestRSRP) {
					r.serving[l] = int32(best)
					r.recordHandover(l)
				}
			}
		}
	}
	return r.countTick(l, now), x
}

// countTick counts slot l's tick at now as a TAU — the tick counter doubles
// as the measure count — and returns the slot's next tick.
func (r *scenRegion) countTick(l int, now time.Duration) time.Duration {
	tick := int(r.hoCount[l]) + int(r.pool.TAUCount(l))
	r.pool.TrackingAreaUpdate(l)
	return now + scenMeasurePeriod(r.keys.period, r.base+l, tick+1)
}

// recordHandover counts one handover of slot l. Its interruption is
// not logged: InterruptionQuantiles redraws it from the slot's count.
func (r *scenRegion) recordHandover(l int) {
	r.handovers++
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
	keys    scenKeys
	tab     scenTables
	workers int
	regions []*scenRegion
}

// CompileScenario lowers spec onto a compact world. workers follows the
// Options.Parallelism convention (0 = one per CPU) and never changes
// results.
func CompileScenario(spec ScenarioSpec, scheme Scheme, seed int64, workers int) (*CompiledScenario, error) {
	if spec.UEs <= 0 || spec.APs <= 1 || spec.SpacingM <= 0 {
		return nil, fmt.Errorf("scenario %q: need UEs>0, APs>1, SpacingM>0", spec.Name)
	}
	if workers == 0 {
		workers = runtime.NumCPU()
	}
	w := &CompiledScenario{
		Spec: spec, Scheme: scheme, seed: seed, keys: newScenKeys(seed),
		tab: spec.drawTables(), workers: workers,
	}
	// Every region's slot arrays share one backing per element type.
	i32s := make([]int32, 2*spec.UEs)
	u16s := make([]uint16, 2*spec.UEs)
	u32s := make([]uint32, spec.UEs)
	q, rem := spec.UEs/scenRegions, spec.UEs%scenRegions
	base := 0
	for i := 0; i < scenRegions; i++ {
		count := q
		if i < rem {
			count++
		}
		reg := &scenRegion{
			idx: i, base: base, count: count,
			spec: &w.Spec, tab: &w.tab, scheme: scheme, keys: w.keys,
			safeM:     spec.safeRadius(),
			pool:      ue.NewIdlePool(count),
			serving:   carve(&i32s, count),
			home:      carve(&i32s, count),
			offCode:   carve(&u16s, count),
			speedCode: carve(&u16s, count),
			hoCount:   carve(&u32s, count),
		}
		for range count {
			reg.pool.Alloc() // the pool holds exactly count slots
		}
		w.regions = append(w.regions, reg)
		base += count
	}
	// Flash-crowd activity hits mid-event, 1 ms apart so the merged log
	// has a stable order. The instant and gi both grow with k, so each
	// region's acts, and the promos they file, are in slot order and in
	// (at, gi) order at once, as run and MergeRegions need.
	for k, reg := 0, w.regions[0]; spec.Kind == KindFlashCrowd && k < min(spec.Promotions, spec.UEs); k++ {
		at := spec.ConvergeAt + 5*time.Second + time.Duration(k)*time.Millisecond
		if at > spec.Horizon {
			break
		}
		gi := k * spec.UEs / spec.Promotions
		for gi >= reg.base+reg.count {
			reg = w.regions[reg.idx+1]
		}
		reg.acts = append(reg.acts, scenPromo{at: at, gi: uint64(gi)})
	}
	return w, nil
}

// carve cuts the next n elements off *buf, so the regions' slot arrays
// share one allocation per element type.
func carve[T any](buf *[]T, n int) []T {
	s := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return s
}

// Run drains the world to the spec's horizon, one region per worker at
// a time; which worker takes which region is invisible in the results.
func (w *CompiledScenario) Run() error {
	return ForEach(w.workers, len(w.regions), func(i int) error {
		w.regions[i].run(w.Spec.Horizon)
		return nil
	})
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
// p50/p99 in ms. No sample is logged during the run: UE gi's k-th
// handover drew scenHOCode(seed, gi, k), so the code counts are rebuilt
// from each slot's handover count, and a telecom world's handovers all
// count at scenHOTelecomCode. The multiset is worker-invariant.
func (w *CompiledScenario) InterruptionQuantiles() (p50, p99 float64) {
	if w.Scheme == SchemeTelecom {
		return scenTelecomQuantiles(w.Handovers())
	}
	counts := make([]uint32, scenHOCodes+1)
	n := 0
	for _, reg := range w.regions {
		for l, k := range reg.hoCount {
			for j := uint32(0); j < k; j++ {
				counts[scenHOCode(w.seed, reg.base+l, j)]++
			}
			n += int(k)
		}
	}
	return scenHOCountQuantiles(counts, n)
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
