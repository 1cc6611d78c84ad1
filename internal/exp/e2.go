package exp

import (
	"fmt"
	"time"

	"dlte/internal/baseline"
	"dlte/internal/metrics"
	"dlte/internal/simnet"
	"dlte/internal/x2"
)

// E2Result quantifies Figure 1: the data-path cost of tunneling every
// packet through a distant EPC versus dLTE's direct breakout at the AP.
type E2Result struct {
	Table *metrics.Table
	// DLTERTTms is the (EPC-distance-independent) dLTE echo RTT.
	DLTERTTms float64
	// CentralRTTms maps EPC one-way latency (ms) to measured RTT.
	CentralRTTms map[int]float64
	// DLTEAttachms and CentralAttachms compare registration latency at
	// the largest EPC distance swept.
	DLTEAttachms, CentralAttachms float64
}

// RunE2 measures the Figure 1 data paths end to end: a UE attaches and
// echoes through (a) a dLTE AP with local breakout and (b) a telecom
// EPC at increasing WAN distances. The tunnel path pays two extra WAN
// traversals per packet; attach pays one per signaling round trip.
func RunE2(opt Options) (E2Result, error) {
	res := E2Result{CentralRTTms: make(map[int]float64)}
	// The smallest value sits below the scenario's 10 ms AP→Internet
	// distance, where tunneling costs almost nothing — the honest
	// lower end of the sweep.
	epcLatencies := []int{5, 10, 20, 40, 80}
	if opt.Quick {
		epcLatencies = []int{20, 80}
	}

	// --- dLTE: stub core on the AP, breakout at the AP.
	s, aps, err := newDLTEWorld(1, 3, x2.ModeFairShare, opt.Seed)
	if err != nil {
		return res, err
	}
	defer s.Close()
	echoSrv, err := newEcho(s.Net, "ott", 9000)
	if err != nil {
		return res, err
	}
	defer echoSrv.Close()

	d, att, err := attachNewUE(s, aps[0], "ue-d", imsiFor(2, 1), 1)
	if err != nil {
		return res, err
	}
	res.DLTEAttachms = ms(att.Duration)
	rtt, err := medianEchoRTT(d, "ott:9000", 5)
	if err != nil {
		return res, err
	}
	res.DLTERTTms = ms(rtt)

	t := metrics.NewTable("E2 — Figure 1 measured: direct breakout vs EPC tunnel",
		"architecture", "EPC one-way ms", "attach ms", "echo RTT ms", "RTT penalty ×")
	t.AddRow("dLTE (breakout)", "n/a", res.DLTEAttachms, res.DLTERTTms, 1.0)

	// --- Centralized: sweep the EPC's distance.
	for _, lat := range epcLatencies {
		n := simnet.NewVirtualNetwork(simnet.Link{Latency: 10 * time.Millisecond}, opt.Seed)
		central, err := baseline.NewCentralized(n, "epc", baseline.CentralizedConfig{
			TAC: 1, WANLink: simnet.Link{Latency: time.Duration(lat) * time.Millisecond},
		})
		if err != nil {
			n.Close()
			return res, err
		}
		site, err := central.AddSite("cell")
		if err != nil {
			central.Close()
			n.Close()
			return res, err
		}
		if _, err := n.AddHost("ott"); err != nil {
			central.Close()
			n.Close()
			return res, err
		}
		echo2, err := newEcho(n, "ott", 9000)
		if err != nil {
			central.Close()
			n.Close()
			return res, err
		}

		dev, attC, err := attachCentralUE(n, central, "cell", site.AirAddr(), imsiFor(2, 100+lat))
		if err != nil {
			echo2.Close()
			central.Close()
			n.Close()
			return res, err
		}
		rttC, err := medianEchoRTT(dev, "ott:9000", 5)
		dev.Close()
		echo2.Close()
		central.Close()
		n.Close()
		if err != nil {
			return res, err
		}
		res.CentralRTTms[lat] = ms(rttC)
		res.CentralAttachms = ms(attC.Duration)
		t.AddRow(fmt.Sprintf("telecom LTE"), lat, ms(attC.Duration), ms(rttC), ms(rttC)/res.DLTERTTms)
	}
	res.Table = t
	opt.emit(t)
	return res, nil
}
