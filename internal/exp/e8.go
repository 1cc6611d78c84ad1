package exp

import (
	"fmt"
	"math/rand"
	"time"

	"dlte/internal/geo"
	"dlte/internal/metrics"
	"dlte/internal/ott"
	"dlte/internal/phy"
	"dlte/internal/radio"
	"dlte/internal/x2"
)

// E8Result reproduces §5's deployment as a synthetic experiment: one
// band-5 dLTE site on the town gym covering scattered homes, data-only
// service with OTT messaging.
type E8Result struct {
	CoverageTable *metrics.Table
	ServiceTable  *metrics.Table
	// CoveragePct512k is the fraction of homes with ≥512 kbps downlink.
	CoveragePct512k float64
	// PerHomeMbps is the mean per-home throughput with all homes
	// active.
	PerHomeMbps float64
	// OTTDelivered counts relay messages delivered end to end through
	// the live stack.
	OTTDelivered int
}

// RunE8 builds the synthetic town and measures coverage, shared-cell
// capacity, and OTT messaging through the real data path.
func RunE8(opt Options) (E8Result, error) {
	var res E8Result
	rng := rand.New(rand.NewSource(opt.Seed))
	nHomes := 40
	ttis := 2000
	if opt.Quick {
		nHomes = 15
		ttis = 500
	}

	// Homes scattered within 3 km of the gym (AP at origin, 20 m
	// mast, 15 dBi sectors — the paper's hardware).
	type home struct {
		pos   geo.Point
		sinr  float64
		dlBps float64
	}
	band := radio.LTEBand5
	link := radio.Link{Tx: radio.LTEBaseStation, Rx: radio.LTEHandset, Band: band,
		PathLoss: radio.Shadowing{Median: radio.HataSuburban{}, SigmaDB: 6, Seed: opt.Seed}}
	homes := make([]home, nHomes)
	covered512, covered2M := 0, 0
	for i := range homes {
		// Uniform over the disk.
		for {
			p := geo.Pt(rng.Float64()*6000-3000, rng.Float64()*6000-3000)
			if p.Norm() <= 3000 {
				homes[i].pos = p
				break
			}
		}
		dKm := homes[i].pos.Norm() / 1000
		homes[i].sinr = link.SNRdB(dKm)
		homes[i].dlBps = radio.LTEThroughputBps(homes[i].sinr, band.BandwidthHz(), true)
		if homes[i].dlBps >= 512e3 {
			covered512++
		}
		if homes[i].dlBps >= 2e6 {
			covered2M++
		}
	}
	res.CoveragePct512k = 100 * float64(covered512) / float64(nHomes)

	ct := metrics.NewTable("E8 — §5 deployment: coverage of the town (1 site, band 5)",
		"metric", "value")
	ct.AddRow("homes", nHomes)
	ct.AddRow("coverage ≥512 kbps (%)", res.CoveragePct512k)
	ct.AddRow("coverage ≥2 Mbps (%)", 100*float64(covered2M)/float64(nHomes))
	res.CoverageTable = ct

	// The shared-cell capacity sim and the live OTT messaging world
	// are independent; run them concurrently.
	var (
		cell      phy.LTEResult
		delivered int
	)
	err := forEachWorld(opt, 2, func(i int) error {
		if i == 0 {
			// Shared-cell capacity with every home active (PF scheduler).
			var cellUsers []phy.LTEUser
			for j, h := range homes {
				cellUsers = append(cellUsers, phy.LTEUser{ID: fmt.Sprintf("home%d", j), SINRdB: h.sinr})
			}
			cell = phy.SimulateLTECell(phy.LTECellConfig{
				ChannelMHz: band.ChannelWidthMHz, Scheduler: phy.ProportionalFair{},
				HARQ: true, FastFading: true, Seed: opt.Seed,
			}, cellUsers, ttis)
			return nil
		}
		// OTT messaging through the real AP: two attached UEs exchange
		// relay messages (the WhatsApp model of §5).
		d, e := runOTTMessaging(opt.Seed)
		if e != nil {
			return fmt.Errorf("E8 ott: %w", e)
		}
		delivered = d
		return nil
	})
	if err != nil {
		return res, err
	}
	res.PerHomeMbps = Mbps(cell.TotalBps) / float64(nHomes)

	st := metrics.NewTable("E8b — service through the live stack",
		"metric", "value")
	st.AddRow("cell aggregate Mbps (all homes active)", Mbps(cell.TotalBps))
	st.AddRow("mean per-home Mbps", res.PerHomeMbps)
	res.OTTDelivered = delivered
	st.AddRow("OTT relay messages delivered (of 6)", delivered)
	res.ServiceTable = st
	opt.emit(ct, st)
	return res, nil
}

// runOTTMessaging attaches two UEs to the town AP and exchanges relay
// messages through the live data path.
func runOTTMessaging(seed int64) (int, error) {
	s, aps, err := newDLTEWorld(1, 3, x2.ModeFairShare, seed)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	ottHost, _ := s.Net.Host("ott")
	relay, err := ott.NewRelay(ottHost, 9100)
	if err != nil {
		return 0, err
	}
	defer relay.Close()

	a, _, err := attachNewUE(s, aps[0], "home-a", imsiFor(8, 1), 0.8)
	if err != nil {
		return 0, err
	}
	b, _, err := attachNewUE(s, aps[0], "home-b", imsiFor(8, 2), 1.6)
	if err != nil {
		return 0, err
	}

	// Register mailboxes through the bearer.
	if err := a.Send("ott:9100", ott.RegisterFrame("alice")); err != nil {
		return 0, err
	}
	if err := b.Send("ott:9100", ott.RegisterFrame("bob")); err != nil {
		return 0, err
	}
	// Wait until both registrations land at the relay.
	clk := s.Clock()
	deadline := clk.Now().Add(5 * time.Second)
	for clk.Now().Before(deadline) {
		_, aOK := relay.Registered("alice")
		_, bOK := relay.Registered("bob")
		if aOK && bOK {
			break
		}
		clk.Sleep(10 * time.Millisecond)
	}

	delivered := 0
	for i := 0; i < 3; i++ {
		a.Send("ott:9100", ott.SendFrame("bob", []byte(fmt.Sprintf("a→b %d", i))))
		if pkt, err := b.Recv(3 * time.Second); err == nil {
			if _, _, perr := ott.ParseDelivery(pkt.Payload); perr == nil {
				delivered++
			}
		}
		b.Send("ott:9100", ott.SendFrame("alice", []byte(fmt.Sprintf("b→a %d", i))))
		if pkt, err := a.Recv(3 * time.Second); err == nil {
			if _, _, perr := ott.ParseDelivery(pkt.Payload); perr == nil {
				delivered++
			}
		}
	}
	return delivered, nil
}
