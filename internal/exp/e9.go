package exp

import (
	"fmt"
	"time"

	"dlte/internal/metrics"
	"dlte/internal/phy"
	"dlte/internal/radio"
	"dlte/internal/simnet"
	"dlte/internal/x2"
)

// E9Result quantifies two remaining claims: (a) §4.3 — a license
// registry eliminates the hidden-terminal problem CSMA suffers, with a
// staleness ablation; (b) §7 — multi-hop relay between neighboring APs
// restores service when one AP's backhaul fails.
type E9Result struct {
	HiddenTable *metrics.Table
	RelayTable  *metrics.Table
	// CSMAHiddenMbps / RegistryMbps compare the hidden-terminal
	// topology under CSMA vs registry-coordinated TDM.
	CSMAHiddenMbps, RegistryMbps float64
	// HiddenCollisionRate is CSMA's collision rate with hidden nodes.
	HiddenCollisionRate float64
	// RelayGranted reports whether the X2 relay negotiation succeeded
	// during the injected outage.
	RelayGranted bool
	// OutageDetectedMs is how quickly the AP's echo probe failed after
	// the backhaul was cut.
	OutageDetectedMs float64
	// RelayMbps is the usable relayed capacity (inter-AP radio bound).
	RelayMbps float64
}

// RunE9 runs the hidden-terminal and backhaul-relay experiments.
func RunE9(opt Options) (E9Result, error) {
	var res E9Result
	seconds := 1.0
	if opt.Quick {
		seconds = 0.3
	}

	// --- (a) Hidden terminals: three stations around a receiver; the
	// two outer ones cannot sense each other.
	const rate = 24e6
	stations := []phy.DCFStation{
		{ID: "west", RateBps: rate, Saturated: true},
		{ID: "mid", RateBps: rate, Saturated: true},
		{ID: "east", RateBps: rate, Saturated: true},
	}
	hiddenSense := [][]bool{
		{true, true, false}, // west hears mid, not east
		{true, true, true},  // mid hears all
		{false, true, true}, // east hears mid, not west
	}

	// The two CSMA sims and the live relay-outage world (part b) are
	// independent; run all three concurrently.
	var (
		csmaHidden, csmaFull phy.DCFResult
		granted              bool
		detectMs             float64
	)
	err := forEachWorld(opt, 3, func(i int) error {
		switch i {
		case 0:
			csmaHidden = phy.SimulateDCF(phy.DCFConfig{Stations: stations, Sense: hiddenSense, Seed: opt.Seed}, seconds)
		case 1:
			csmaFull = phy.SimulateDCF(phy.DCFConfig{Stations: stations, Seed: opt.Seed}, seconds)
		case 2:
			g, d, e := runRelayOutage(opt.Seed)
			if e != nil {
				return fmt.Errorf("E9b: %w", e)
			}
			granted, detectMs = g, d
		}
		return nil
	})
	if err != nil {
		return res, err
	}

	// Registry-coordinated TDM over the same PHY: every transmitter is
	// known (licensed), so the schedule is collision-free regardless
	// of sensing topology.
	var shares []phy.TDMShare
	for _, st := range stations {
		shares = append(shares, phy.TDMShare{ID: st.ID, RateBps: rate * phy.WiFiLikeMACFactor})
	}
	tdm := phy.SimulateTDM(shares)

	// Staleness ablation: one transmitter missing from the registry
	// transmits uncoordinated with duty cycle δ; every overlapping TDM
	// slot is corrupted.
	stale := func(duty float64) float64 { return tdm.TotalBps * (1 - duty) }

	ht := metrics.NewTable("E9a — §4.3: hidden terminals, CSMA vs registry coordination",
		"scheme", "total Mbps", "collision rate")
	ht.AddRow("CSMA, full carrier sense", Mbps(csmaFull.TotalBps), csmaFull.CollisionRate)
	ht.AddRow("CSMA, hidden terminals", Mbps(csmaHidden.TotalBps), csmaHidden.CollisionRate)
	ht.AddRow("registry TDM (all known)", Mbps(tdm.TotalBps), 0.0)
	ht.AddRow("registry TDM, stale (unknown tx, 20% duty)", Mbps(stale(0.2)), 0.2)
	ht.AddRow("registry TDM, stale (unknown tx, 90% duty)", Mbps(stale(0.9)), 0.9)
	res.HiddenTable = ht
	res.CSMAHiddenMbps = Mbps(csmaHidden.TotalBps)
	res.RegistryMbps = Mbps(tdm.TotalBps)
	res.HiddenCollisionRate = csmaHidden.CollisionRate

	// --- (b) Backhaul relay (§7): cut ap1's backhaul, watch its echo
	// probe fail, negotiate relay over X2 (which rides the still-up
	// inter-AP path), and size the relayed capacity by the inter-AP
	// radio link budget. (Measured above, concurrently with the CSMA
	// sims.)
	res.RelayGranted = granted
	res.OutageDetectedMs = detectMs

	// Relayed capacity: AP↔AP link at 3 km, tower to tower.
	interAP := radio.Link{
		Tx: radio.LTEBaseStation, Rx: radio.LTEBaseStation, Band: radio.LTEBand5,
	}
	res.RelayMbps = Mbps(radio.LTEThroughputBps(interAP.SNRdB(3), radio.LTEBand5.BandwidthHz(), true))

	rt := metrics.NewTable("E9b — §7: backhaul failure and multi-hop relay",
		"metric", "value")
	rt.AddRow("outage detected after (ms)", detectMs)
	rt.AddRow("X2 relay grant obtained", granted)
	rt.AddRow("relayed capacity over 3 km inter-AP link (Mbps)", res.RelayMbps)
	res.RelayTable = rt
	opt.emit(ht, rt)
	return res, nil
}

// runRelayOutage injects a backhaul failure at ap1 and drives the X2
// relay negotiation with ap2 over the surviving inter-AP path.
func runRelayOutage(seed int64) (granted bool, detectMs float64, err error) {
	s, aps, err := newDLTEWorld(2, 3, x2.ModeCooperative, seed)
	if err != nil {
		return false, 0, err
	}
	defer s.Close()
	if _, err := aps[0].DiscoverPeers(); err != nil {
		return false, 0, err
	}

	// A UE attached at ap1 with live echo service.
	echoSrv, err := newEcho(s.Net, "ott", 9000)
	if err != nil {
		return false, 0, err
	}
	defer echoSrv.Close()
	d, _, err := attachNewUE(s, aps[0], "ue-relay", imsiFor(9, 1), 1)
	if err != nil {
		return false, 0, err
	}
	if _, err := d.Echo("ott:9000", []byte("pre"), 200*time.Millisecond, 5*time.Second); err != nil {
		return false, 0, fmt.Errorf("pre-outage echo: %w", err)
	}

	// Cut ap1's backhaul toward the Internet (OTT and registry), but
	// not the dedicated inter-AP path.
	clk := s.Clock()
	cut := clk.Now()
	s.Net.SetLinkDown("ap1", "ott", true)
	s.Net.SetLinkDown("ap1", "registry", true)

	// Outage detection: the echo probe now fails.
	_, echoErr := d.Echo("ott:9000", []byte("post"), 100*time.Millisecond, 500*time.Millisecond)
	if echoErr == nil {
		return false, 0, fmt.Errorf("echo survived a cut backhaul")
	}
	detectMs = ms(clk.Since(cut))

	// Relay negotiation over X2 (the ap1↔ap2 path is unaffected).
	if err := aps[0].RequestRelay("ap2", 5e6); err != nil {
		return false, detectMs, err
	}
	return clk.(*simnet.VirtualClock).WaitUntil(3*time.Second, func() bool {
		bps, from := aps[0].RelayGrant()
		return bps > 0 && from == "ap2"
	}), detectMs, nil
}
