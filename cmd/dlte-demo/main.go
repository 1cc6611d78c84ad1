// Command dlte-demo boots a complete dLTE world in one process —
// registry, three access points with local core stubs, an OTT echo
// service, and a handful of UEs — then narrates the full lifecycle:
// open join, key publication, attach with mutual AKA, direct-breakout
// traffic, peer discovery, share negotiation, and a roam.
//
// It is the fastest way to watch every moving part of the paper's
// architecture work together. The world runs on virtual time: the
// printed latencies are simulated, and every run prints the same bytes.
//
// Usage:
//
//	dlte-demo [-ues 3]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"dlte/internal/auth"
	"dlte/internal/core"
	"dlte/internal/geo"
	"dlte/internal/ott"
	"dlte/internal/radio"
	"dlte/internal/simnet"
	"dlte/internal/ue"
	"dlte/internal/x2"
)

func main() {
	nUE := flag.Int("ues", 3, "number of UEs to attach")
	flag.Parse()
	if err := run(os.Stdout, *nUE); err != nil {
		log.Fatal(err)
	}
}

// run narrates the lifecycle with nUE subscribers to out.
func run(out io.Writer, nUE int) error {
	step := func(format string, args ...interface{}) {
		fmt.Fprintf(out, "\n==> "+format+"\n", args...)
	}

	step("booting the simulated internetwork (10 ms WAN) and global registry")
	s, err := core.NewScenario(simnet.Link{Latency: 10 * time.Millisecond}, 1)
	if err != nil {
		return err
	}
	defer s.Close()
	clk := s.Clock().(*simnet.VirtualClock)

	step("three owners independently bring up dLTE APs and join the open registry")
	var aps []*core.AccessPoint
	for i, mode := range []x2.Mode{x2.ModeCooperative, x2.ModeCooperative, x2.ModeFairShare} {
		ap, err := s.AddAP(core.APConfig{
			ID:       fmt.Sprintf("ap%d", i+1),
			Position: geo.Pt(float64(i)*3000, 0),
			Band:     radio.LTEBand5,
			HeightM:  20, EIRPdBm: 58,
			Mode: mode, TAC: uint16(i + 1),
		})
		if err != nil {
			return err
		}
		aps = append(aps, ap)
		fmt.Fprintf(out, "    %s joined (mode=%s, air=%s)\n", ap.ID(), ap.Mode(), ap.AirAddr())
	}

	step("an OTT echo service goes up on the public Internet")
	ottHost, _ := s.Net.AddHost("ott")
	echo, err := ott.NewEchoServer(ottHost, 9000)
	if err != nil {
		return err
	}
	defer echo.Close()

	step("%d subscribers publish open-SIM keys to the registry", nUE)
	devices := make([]*ue.Device, 0, nUE)
	for i := 0; i < nUE; i++ {
		d, err := s.AddUE(fmt.Sprintf("ue%d", i+1), imsi(i))
		if err != nil {
			return err
		}
		devices = append(devices, d)
		fmt.Fprintf(out, "    %s published its key\n", d.IMSI())
	}

	step("ap1 syncs published keys into its local HSS stub")
	n, err := aps[0].SyncSubscriberKeys()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "    imported %d subscriber key(s)\n", n)

	step("UEs attach at ap1 (mutual AKA against the stub, direct breakout)")
	for i, d := range devices {
		name := fmt.Sprintf("ue%d", i+1)
		if err := s.ConnectUERadio(name, "ap1", geo.Pt(800+float64(i)*200, 0)); err != nil {
			return err
		}
		res, err := d.Attach(aps[0].AirAddr(), 10*time.Second)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "    %s attached in %v → IP %s (breakout=%v)\n",
			d.IMSI(), res.Duration.Round(time.Millisecond), res.IP, res.DirectBreakout)
	}

	step("traffic flows straight from the AP to the Internet")
	rtt, err := devices[0].Echo("ott:9000", []byte("hello"), 200*time.Millisecond, 5*time.Second)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "    echo RTT through ap1: %v\n", rtt.Round(time.Millisecond))

	step("ap1 discovers its contention domain via the registry and peers over X2")
	domain, err := aps[0].DiscoverPeers()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "    contention domain: %v\n", domain)

	step("APs advertise load and negotiate airtime (cooperative)")
	for _, ap := range aps {
		ap.AdvertiseLoad()
	}
	if !clk.WaitUntil(5*time.Second, func() bool {
		for _, id := range aps[0].Peers() {
			if _, ok := aps[0].PeerLoad(id); !ok {
				return false
			}
		}
		return true
	}) {
		return fmt.Errorf("ap1 never received its peers' loads")
	}
	share, err := aps[0].NegotiateShares()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "    ap1's negotiated share: %.2f (it carries all %d UEs)\n", share, nUE)

	step("ue1 roams: ap1 prepares ap2 over X2, ue1 re-attaches")
	d := devices[0]
	if err := s.ConnectUERadio("ue1", "ap2", geo.Pt(2400, 0)); err != nil {
		return err
	}
	if err := aps[0].Mobility.Prepare("ap2", d.Publication(), -102); err != nil {
		return err
	}
	if !clk.WaitUntil(5*time.Second, func() bool {
		_, ok := aps[1].Mobility.PreparedBy(d.IMSI())
		return ok
	}) {
		return fmt.Errorf("ap2 never received ue1's prepared context")
	}
	res, err := d.Attach(aps[1].AirAddr(), 10*time.Second)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "    re-attached at ap2 in %v → new IP %s (endpoint mobility is the transport's job)\n",
		res.Duration.Round(time.Millisecond), res.IP)

	step("done — every signaling message above crossed the real NAS/S1AP/GTP/X2 stacks")
	return nil
}

// imsi derives the demo subscribers' identities.
func imsi(i int) auth.IMSI {
	return auth.IMSI(fmt.Sprintf("0010109%08d", i+1))
}
