package exp

import (
	"fmt"
	"time"

	"dlte/internal/metrics"
	"dlte/internal/simnet"
	"dlte/internal/x2"
)

// E7Result quantifies §4.3's claim that X2 coordination is "relatively
// low bandwidth" and degrades gracefully when backhaul-constrained.
type E7Result struct {
	Table            *metrics.Table
	ConstrainedTable *metrics.Table
	// BytesPerSec maps AP count → measured per-AP X2 coordination
	// bytes/second at the 100 ms update period.
	BytesPerSec map[int]float64
	// FractionOf256k is coordination traffic as a fraction of a 256
	// kbit/s rural backhaul at the fastest period swept.
	FractionOf256k float64
	// ConvergenceOn256kMs is share-negotiation convergence over a 256
	// kbit/s, 200 ms-latency backhaul (graceful degradation).
	ConvergenceOn256kMs float64
}

// RunE7 measures coordination traffic by running the real X2 protocol
// (load advertisement + share negotiation) between live APs.
func RunE7(opt Options) (E7Result, error) {
	res := E7Result{BytesPerSec: map[int]float64{}}
	apCounts := []int{2, 4, 8}
	rounds := 20
	if opt.Quick {
		apCounts = []int{2, 4}
		rounds = 8
	}
	const period = 100 * time.Millisecond

	t := metrics.NewTable("E7 — §4.3: X2 coordination overhead",
		"APs", "update period ms", "X2 bytes/s per AP", "% of 256kbps backhaul", "% of 10Mbps backhaul")

	for _, n := range apCounts {
		bps, err := measureX2Rate(n, rounds, period, opt.Seed)
		if err != nil {
			return res, fmt.Errorf("E7 n=%d: %w", n, err)
		}
		res.BytesPerSec[n] = bps
		t.AddRow(n, ms(period), bps, 100*bps*8/256e3, 100*bps*8/10e6)
	}
	res.FractionOf256k = res.BytesPerSec[apCounts[len(apCounts)-1]] * 8 / 256e3
	res.Table = t

	// Graceful degradation: the same negotiation over a constrained
	// backhaul still converges, just slower.
	ct := metrics.NewTable("E7b — negotiation over constrained backhaul",
		"backhaul", "one-way ms", "converged", "convergence ms")
	for _, bh := range []struct {
		name string
		link simnet.Link
	}{
		{"100 Mbps / 10 ms", simnet.Link{Latency: 10 * time.Millisecond, BandwidthBps: 100e6}},
		{"1 Mbps / 50 ms", simnet.Link{Latency: 50 * time.Millisecond, BandwidthBps: 1e6}},
		{"256 kbps / 200 ms", simnet.Link{Latency: 200 * time.Millisecond, BandwidthBps: 256e3}},
	} {
		conv, err := measureConvergence(bh.link, opt.Seed)
		if err != nil {
			return res, fmt.Errorf("E7b %s: %w", bh.name, err)
		}
		ct.AddRow(bh.name, ms(bh.link.Latency), conv > 0, conv)
		if bh.link.BandwidthBps == 256e3 {
			res.ConvergenceOn256kMs = conv
		}
	}
	res.ConstrainedTable = ct
	opt.emit(t, ct)
	return res, nil
}

// measureX2Rate runs `rounds` coordination cycles across n APs and
// reports per-AP coordination bytes per second (tx+rx averaged).
func measureX2Rate(n, rounds int, period time.Duration, seed int64) (float64, error) {
	s, aps, err := newDLTEWorld(n, 3, x2.ModeCooperative, seed)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	if _, err := aps[0].DiscoverPeers(); err != nil {
		return 0, err
	}
	// Full mesh: every AP discovers (connections dedupe).
	for _, ap := range aps[1:] {
		if _, err := ap.DiscoverPeers(); err != nil {
			return 0, err
		}
	}

	var tx0, rx0 uint64
	for _, ap := range aps {
		t, r, _, _ := ap.Agent.Traffic()
		tx0 += t
		rx0 += r
	}
	clk := s.Clock()
	start := clk.Now()
	for i := 0; i < rounds; i++ {
		for _, ap := range aps {
			ap.AdvertiseLoad()
		}
		aps[0].NegotiateShares()
		clk.Sleep(period)
	}
	elapsed := clk.Since(start).Seconds()
	var tx1, rx1 uint64
	for _, ap := range aps {
		t, r, _, _ := ap.Agent.Traffic()
		tx1 += t
		rx1 += r
	}
	totalBytes := float64((tx1 - tx0) + (rx1 - rx0))
	// Each byte is counted twice (sender tx + receiver rx); halve,
	// then normalize per AP per second.
	return totalBytes / 2 / float64(n) / elapsed, nil
}

// measureConvergence times one full advertise+negotiate+adopt cycle
// between two APs over the given backhaul link.
func measureConvergence(backhaul simnet.Link, seed int64) (float64, error) {
	s, aps, err := newDLTEWorld(2, 3, x2.ModeFairShare, seed)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	s.Net.SetLink("ap1", "ap2", backhaul)
	if _, err := aps[0].DiscoverPeers(); err != nil {
		return 0, err
	}
	clk := s.Clock()
	start := clk.Now()
	if _, err := aps[0].NegotiateShares(); err != nil {
		return 0, err
	}
	if !clk.(*simnet.VirtualClock).WaitUntil(10*time.Second, func() bool {
		s := aps[1].Share()
		return s > 0.49 && s < 0.51
	}) {
		return 0, fmt.Errorf("shares never converged")
	}
	return ms(clk.Since(start)), nil
}
