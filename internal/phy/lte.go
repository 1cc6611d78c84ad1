// Package phy simulates the medium-access behaviour the dLTE paper
// compares (§3.2, §4.3): the LTE downlink resource-grid scheduler (with
// HARQ-extended rates and pluggable scheduling policies, including the
// joint multi-cell scheduling of cooperative mode) and the WiFi DCF
// CSMA/CA contention process (including hidden terminals), plus the
// coordinated TDM sharing that dLTE's fair-share mode negotiates over
// X2.
//
// Simulations are deterministic in their seeds and run in virtual time.
package phy

import (
	"math"
	"strconv"

	"dlte/internal/radio"
)

// PRBBandwidthHz is the bandwidth of one LTE physical resource block.
const PRBBandwidthHz = 180e3

// LTEOverhead is the fraction of resource elements carrying user data
// after control channels and reference signals.
const LTEOverhead = 0.75

// TTI is the LTE transmission time interval (1 ms) expressed in seconds.
const TTI = 1e-3

// NumPRB reports the number of PRBs in a channel of the given width,
// per 3GPP 36.101 (1.4→6, 3→15, 5→25, 10→50, 15→75, 20→100).
func NumPRB(channelMHz float64) int {
	switch {
	case channelMHz >= 20:
		return 100
	case channelMHz >= 15:
		return 75
	case channelMHz >= 10:
		return 50
	case channelMHz >= 5:
		return 25
	case channelMHz >= 3:
		return 15
	default:
		return 6
	}
}

// LTEUser is one scheduled downlink user.
type LTEUser struct {
	// ID labels the user in results.
	ID string
	// SINRdB is the user's average downlink SINR.
	SINRdB float64
	// DemandBps caps the user's useful throughput (0 = unlimited /
	// full-buffer).
	DemandBps float64
	// Weight scales the user's share under weighted schedulers
	// (0 means 1).
	Weight float64
}

type lteUserState struct {
	LTEUser
	avgRateBps float64 // exponential average for proportional fair
	gotBits    float64
	demandBits float64 // total bits wanted over the run; 0 = unlimited
}

// LTEScheduler allocates the PRBs of one TTI among users.
type LTEScheduler interface {
	// Name identifies the policy in experiment tables.
	Name() string
	// Allocate sets grants[b], for each resource block b, to the index
	// of the user it is granted to (or -1 for unused); the caller owns
	// grants and reuses it every TTI. rates[i] is user i's achievable
	// bits per PRB per TTI this interval.
	Allocate(tti int, users []*lteUserState, rates []float64, grants []int)
}

// RoundRobin cycles PRB grants across users irrespective of channel
// state — the simplest fair-airtime policy.
type RoundRobin struct{ next int }

// Name implements LTEScheduler.
func (*RoundRobin) Name() string { return "round-robin" }

// Allocate implements LTEScheduler.
func (s *RoundRobin) Allocate(_ int, users []*lteUserState, rates []float64, grants []int) {
	if len(users) == 0 {
		for i := range grants {
			grants[i] = -1
		}
		return
	}
	for i := range grants {
		// Skip users with dead links; they cannot use a grant.
		granted := -1
		for tries := 0; tries < len(users); tries++ {
			cand := s.next % len(users)
			s.next++
			if rates[cand] > 0 && !demandMet(users[cand]) {
				granted = cand
				break
			}
		}
		grants[i] = granted
	}
}

// ProportionalFair grants each PRB to the user maximizing
// instantaneous-rate / average-rate, the classic PF metric that
// exploits fast fading while bounding starvation.
type ProportionalFair struct{}

// Name implements LTEScheduler.
func (ProportionalFair) Name() string { return "proportional-fair" }

// Allocate implements LTEScheduler.
func (ProportionalFair) Allocate(_ int, users []*lteUserState, rates []float64, grants []int) {
	for i := range grants {
		best, bestMetric := -1, -1.0
		for u, st := range users {
			if rates[u] <= 0 || demandMet(st) {
				continue
			}
			avg := st.avgRateBps
			if avg < 1 {
				avg = 1
			}
			w := st.Weight
			if w <= 0 {
				w = 1
			}
			metric := w * rates[u] / avg
			if metric > bestMetric {
				bestMetric = metric
				best = u
			}
		}
		grants[i] = best
	}
}

// MaxRate grants every PRB to the user with the best channel — maximum
// cell throughput, maximal unfairness. Included as an ablation bound.
type MaxRate struct{}

// Name implements LTEScheduler.
func (MaxRate) Name() string { return "max-rate" }

// Allocate implements LTEScheduler.
func (MaxRate) Allocate(_ int, users []*lteUserState, rates []float64, grants []int) {
	for i := range grants {
		best, bestRate := -1, 0.0
		for u, st := range users {
			if demandMet(st) {
				continue
			}
			if rates[u] > bestRate {
				bestRate = rates[u]
				best = u
			}
		}
		grants[i] = best
	}
}

func demandMet(st *lteUserState) bool {
	return st.demandBits > 0 && st.gotBits >= st.demandBits
}

// fastFadeDB returns a deterministic per-(user,TTI) fading deviation in
// dB, a crude block-fading stand-in that gives channel-aware schedulers
// something to exploit. The draw is the 64-bit FNV-1a hash of the text
// "seed|user|tti" (decimal integers), hashed in place: a schedule asks
// for one per user and TTI, too often to format the text first.
func fastFadeDB(seed int64, user string, tti int) float64 {
	var num [20]byte // an int64 in decimal, sign included
	h := fnv1a(fnvOffset64, strconv.AppendInt(num[:0], seed, 10))
	h = fnv1a(h, "|")
	h = fnv1a(h, user)
	h = fnv1a(h, "|")
	h = fnv1a(h, strconv.AppendInt(num[:0], int64(tti), 10))
	u := float64(h%10000)/10000.0 - 0.5 // uniform(-0.5, 0.5)
	return u * 8                        // ±4 dB swing
}

// The 64-bit FNV-1a parameters (hash/fnv's New64a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a folds the octets of s into the FNV-1a state h.
func fnv1a[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// LTECellConfig configures a single-cell downlink simulation.
type LTECellConfig struct {
	// ChannelMHz sets the grid width (see NumPRB).
	ChannelMHz float64
	// Scheduler is the policy under test; nil means ProportionalFair.
	Scheduler LTEScheduler
	// HARQ enables sub-CQI1 operation (radio.LTEEfficiency).
	HARQ bool
	// FastFading applies deterministic per-TTI channel variation.
	FastFading bool
	// Seed controls the fading process.
	Seed int64
	// ShareFraction scales available airtime, used when a fair-share
	// agreement grants this cell a fraction of the medium (0 = 1.0).
	ShareFraction float64
}

// LTEResult reports a cell simulation outcome.
type LTEResult struct {
	// PerUserBps maps user ID to delivered throughput.
	PerUserBps map[string]float64
	// TotalBps is the cell's aggregate delivered throughput.
	TotalBps float64
	// ScheduledTTIs is the number of TTIs the cell actually owned.
	ScheduledTTIs int
}

// SimulateLTECell runs the downlink scheduler for the given number of
// TTIs and reports per-user throughput.
func SimulateLTECell(cfg LTECellConfig, users []LTEUser, ttis int) LTEResult {
	sched := cfg.Scheduler
	if sched == nil {
		sched = ProportionalFair{}
	}
	share := cfg.ShareFraction
	if share <= 0 || share > 1 {
		share = 1
	}
	numPRB := NumPRB(cfg.ChannelMHz)
	dur := float64(ttis) * TTI
	states := make([]*lteUserState, len(users))
	for i, u := range users {
		states[i] = &lteUserState{LTEUser: u, avgRateBps: 1}
		if u.DemandBps > 0 {
			states[i].demandBits = u.DemandBps * dur
		}
	}
	rates := make([]float64, len(users))
	grants := make([]int, numPRB)
	perUserBits := make([]float64, len(users))
	owned := 0
	// Fair-share airtime: the cell owns floor-distributed TTIs matching
	// its share fraction (the X2-negotiated TDM pattern).
	for tti := 0; tti < ttis; tti++ {
		if share < 1 && math.Mod(float64(tti)*share, 1) >= share {
			continue // not this cell's TTI under the TDM agreement
		}
		owned++
		for i, st := range states {
			sinr := st.SINRdB
			if cfg.FastFading {
				sinr += fastFadeDB(cfg.Seed, st.ID, tti)
			}
			eff, _ := radio.LTEEfficiency(sinr, cfg.HARQ)
			// Achievable rate on one PRB while granted, in bps.
			rates[i] = eff * PRBBandwidthHz * LTEOverhead
		}
		sched.Allocate(tti, states, rates, grants)
		clear(perUserBits)
		for _, u := range grants {
			if u >= 0 {
				perUserBits[u] += rates[u] * TTI // one PRB for one TTI
			}
		}
		for i, st := range states {
			st.gotBits += perUserBits[i]
			// PF exponential average with the conventional 1/100 window.
			st.avgRateBps = 0.99*st.avgRateBps + 0.01*(perUserBits[i]/TTI)
		}
	}
	res := LTEResult{PerUserBps: make(map[string]float64, len(users)), ScheduledTTIs: owned}
	for _, st := range states {
		bps := st.gotBits / dur
		if st.DemandBps > 0 && bps > st.DemandBps {
			bps = st.DemandBps
		}
		res.PerUserBps[st.ID] = bps
		res.TotalBps += bps
	}
	return res
}
