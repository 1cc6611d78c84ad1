// Spectrum sharing: two AP owners in one RF contention domain move
// from ignoring each other (selfish), to the registry-negotiated fair
// split, to full cooperation (paper §4.3). The X2 negotiation runs for
// real; the airtime consequences are evaluated on the LTE multi-cell
// simulator. The signaling runs on virtual time, so every run prints
// the same bytes.
//
//	go run ./examples/spectrum-sharing
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"dlte/internal/core"
	"dlte/internal/geo"
	"dlte/internal/metrics"
	"dlte/internal/phy"
	"dlte/internal/radio"
	"dlte/internal/simnet"
	"dlte/internal/x2"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run negotiates the split and prints what each mode delivers to out.
func run(out io.Writer) error {
	// --- The live signaling part: two APs discover each other through
	// the registry and negotiate shares over X2.
	s, err := core.NewScenario(simnet.Link{Latency: 10 * time.Millisecond}, 3)
	if err != nil {
		return err
	}
	defer s.Close()

	ap1, err := s.AddAP(core.APConfig{ID: "farm-coop", Position: geo.Pt(0, 0),
		Band: radio.LTEBand5, HeightM: 20, EIRPdBm: 58, Mode: x2.ModeFairShare, TAC: 1})
	if err != nil {
		return err
	}
	ap2, err := s.AddAP(core.APConfig{ID: "school", Position: geo.Pt(1500, 0),
		Band: radio.LTEBand5, HeightM: 20, EIRPdBm: 58, Mode: x2.ModeFairShare, TAC: 2})
	if err != nil {
		return err
	}

	domain, err := ap1.DiscoverPeers()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "registry says the contention domain is %v\n", domain)

	share, err := ap1.NegotiateShares()
	if err != nil {
		return err
	}
	s.Clock().(*simnet.VirtualClock).WaitUntil(2*time.Second, func() bool { return ap2.Share() != 1 })
	fmt.Fprintf(out, "negotiated over X2: farm-coop=%.2f school=%.2f\n\n", share, ap2.Share())

	// --- The airtime consequences, on the multi-cell simulator: eight
	// clients spread through the overlap corridor.
	users := buildUsers()
	t := metrics.NewTable("what each mode delivers (8 clients, overlapping cells)",
		"mode", "total Mbps", "worst user Mbps", "Jain fairness")
	for _, mode := range []phy.MultiCellMode{phy.Uncoordinated, phy.FairShare, phy.Cooperative} {
		r := phy.SimulateMultiCell(phy.MultiCellConfig{
			NumCells: 2, ChannelMHz: 10, Mode: mode,
			TTIs: 1500, HARQ: true, FastFading: true, Seed: 3,
		}, users)
		var vals []float64
		worst := -1.0
		for _, v := range r.PerUserBps {
			vals = append(vals, v)
			if worst < 0 || v < worst {
				worst = v
			}
		}
		t.AddRow(mode.String(), r.TotalBps/1e6, worst/1e6, metrics.JainIndex(vals))
	}
	t.Render(out)
	fmt.Fprintln(out, "\nuncoordinated wins raw total when clients hug their own AP, but")
	fmt.Fprintln(out, "starves the overlap zone; the negotiated split rescues the worst")
	fmt.Fprintln(out, "user, and cooperation (joint assignment + load-aware shares)")
	fmt.Fprintln(out, "equalizes everyone at the same aggregate (§4.3).")
	return nil
}

// buildUsers places clients between the sites, matching E5's geometry.
func buildUsers() []phy.MultiUser {
	band := radio.LTEBand5
	apX := []float64{0, 1500}
	mk := func(id string, x float64, home int) phy.MultiUser {
		u := phy.MultiUser{ID: id, Home: home,
			SINRInterfered: make([]float64, 2), SINROrthogonal: make([]float64, 2)}
		for c := 0; c < 2; c++ {
			dKm := x - apX[c]
			if dKm < 0 {
				dKm = -dKm
			}
			dKm /= 1000
			link := radio.Link{Tx: radio.LTEBaseStation, Rx: radio.LTEHandset, Band: band}
			u.SINROrthogonal[c] = link.SNRdB(dKm)
			other := 1 - c
			oKm := x - apX[other]
			if oKm < 0 {
				oKm = -oKm
			}
			iPow := link.RxPowerDBm(oKm / 1000)
			u.SINRInterfered[c] = link.SINRdB(dKm, iPow)
		}
		return u
	}
	var users []phy.MultiUser
	for i, x := range []float64{150, 350, 500, 650, 750, 800} {
		users = append(users, mk(fmt.Sprintf("a%d", i), x, 0))
	}
	users = append(users, mk("b0", 1300, 1), mk("b1", 780, 1))
	return users
}
