package exp

import (
	"fmt"
	"time"

	"dlte/internal/baseline"
	"dlte/internal/metrics"
	"dlte/internal/phy"
	"dlte/internal/radio"
	"dlte/internal/simnet"
	"dlte/internal/x2"
)

// E1Result quantifies the paper's Table 1: the wireless design space
// along open-core and licensed-radio axes, with measured openness and
// measured radio performance for each architecture.
type E1Result struct {
	Table *metrics.Table
	// DLTEOpen reports whether a newcomer dLTE AP joined and served a
	// client with no operator action (must be true).
	DLTEOpen bool
	// TelecomOpen reports whether a rogue eNodeB could join the
	// closed core (must be false).
	TelecomOpen bool
	// DLTEAggMbps and WiFiAggMbps are 4-AP co-channel aggregate
	// throughputs under coordination vs CSMA.
	DLTEAggMbps, WiFiAggMbps float64
	// DLTERangeKm and WiFiRangeKm are 512 kbps service ranges.
	DLTERangeKm, WiFiRangeKm float64
}

// RunE1 measures the design-space quadrant (paper Table 1).
func RunE1(opt Options) (E1Result, error) {
	var res E1Result

	// --- Openness, dLTE: a newcomer AP joins the registry and serves
	// a client, with nobody's permission.
	s, aps, err := newDLTEWorld(1, 3, x2.ModeFairShare, opt.Seed)
	if err != nil {
		return res, err
	}
	defer s.Close()
	newcomer, err := s.AddAP(coreAPConfig("newcomer", 3000))
	if err == nil {
		_, _, aerr := attachNewUE(s, newcomer, "ue-n", imsiFor(1, 1), 1)
		res.DLTEOpen = aerr == nil
	}
	_ = aps

	// --- Openness, telecom/private LTE: a rogue eNodeB is refused.
	n2 := simnet.NewVirtualNetwork(simnet.Link{Latency: 5 * time.Millisecond}, opt.Seed)
	defer n2.Close()
	telco, err := baseline.NewCentralized(n2, "telco", baseline.CentralizedConfig{
		TAC: 1, WANLink: simnet.Link{Latency: 5 * time.Millisecond},
	})
	if err != nil {
		return res, err
	}
	defer telco.Close()
	if _, err := telco.AddSite("authorized"); err != nil {
		return res, err
	}
	res.TelecomOpen = telco.TryRogueSite("rogue") == nil

	// --- Radio efficiency: 4 co-channel APs, coordinated (registry
	// TDM) vs CSMA, at equal PHY rate.
	const phyRate = 24e6
	var dcfStations []phy.DCFStation
	var tdmShares []phy.TDMShare
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("s%d", i)
		dcfStations = append(dcfStations, phy.DCFStation{ID: id, RateBps: phyRate, Saturated: true})
		tdmShares = append(tdmShares, phy.TDMShare{ID: id, RateBps: phyRate * phy.WiFiLikeMACFactor})
	}
	seconds := 1.0
	if opt.Quick {
		seconds = 0.3
	}
	dcf := phy.SimulateDCF(phy.DCFConfig{Stations: dcfStations, Seed: opt.Seed}, seconds)
	tdm := phy.SimulateTDM(tdmShares)
	res.WiFiAggMbps = Mbps(dcf.TotalBps)
	res.DLTEAggMbps = Mbps(tdm.TotalBps)

	// --- Range at 512 kbps.
	lteDL := radio.Link{Tx: radio.LTEBaseStation, Rx: radio.LTEHandset, Band: radio.LTEBand5}
	wifiDL := radio.Link{Tx: radio.WiFiAccessPoint, Rx: radio.WiFiClient, Band: radio.ISM24}
	const minBps = 512e3
	res.DLTERangeKm = radio.MaxRangeKm(func(d float64) float64 {
		return radio.LTEThroughputBps(lteDL.SNRdB(d), lteDL.Band.BandwidthHz(), true)
	}, minBps, radio.LTETimingAdvanceMaxKm)
	res.WiFiRangeKm = radio.MaxRangeKm(func(d float64) float64 {
		return radio.WiFiThroughputBps(wifiDL.SNRdB(d), d, radio.WiFiDefaultMaxRangeKm)
	}, minBps, radio.WiFiDefaultMaxRangeKm)

	t := metrics.NewTable("E1 — Table 1 measured: the wireless design space",
		"architecture", "open core", "licensed radio", "coordinated RF", "4-AP agg Mbps", "512kbps range km")
	t.AddRow("legacy WiFi", true, false, false, res.WiFiAggMbps, res.WiFiRangeKm)
	t.AddRow("enterprise WiFi", false, false, true, res.DLTEAggMbps, res.WiFiRangeKm)
	t.AddRow("private LTE", false, true, true, res.DLTEAggMbps, res.DLTERangeKm)
	t.AddRow("telecom LTE", res.TelecomOpen, true, true, res.DLTEAggMbps, res.DLTERangeKm)
	t.AddRow("dLTE", res.DLTEOpen, true, true, res.DLTEAggMbps, res.DLTERangeKm)
	res.Table = t
	opt.emit(t)
	return res, nil
}
