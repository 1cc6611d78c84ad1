// Quickstart: the smallest complete dLTE network — one registry, one
// access point with its local core stub, one subscriber with a
// published open-SIM key, and traffic flowing straight from the AP to
// an Internet echo service. The world runs on virtual time, so the
// printed latencies are simulated and every run prints the same bytes.
//
//	go run ./examples/quickstart
package main

import (
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
	"dlte/internal/x2"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run builds the network and narrates its lifecycle to out.
func run(out io.Writer) error {
	// A simulated internetwork: every host pair defaults to a 10 ms
	// one-way WAN link. The scenario starts the global registry.
	s, err := core.NewScenario(simnet.Link{Latency: 10 * time.Millisecond}, 1)
	if err != nil {
		return err
	}
	defer s.Close()

	// One dLTE access point: eNodeB + local EPC stub + registry client
	// + X2 agent, all on the "gym" host (the paper's deployment site).
	ap, err := s.AddAP(core.APConfig{
		ID:       "gym",
		Position: geo.Pt(0, 0),
		Band:     radio.LTEBand5,
		HeightM:  20, EIRPdBm: 58,
		Mode: x2.ModeFairShare,
		TAC:  1,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "AP %q is up: clients attach at %s\n", ap.ID(), ap.AirAddr())

	// An OTT echo service somewhere on the Internet.
	ottHost, _ := s.Net.AddHost("echo.example")
	echo, err := ott.NewEchoServer(ottHost, 9000)
	if err != nil {
		return err
	}
	defer echo.Close()

	// A subscriber: provision a SIM, publish its key to the registry
	// (the §4.2 open-SIM step), and give it a radio link 1.2 km out.
	d, err := s.AddUE("phone", auth.IMSI("001010000000777"))
	if err != nil {
		return err
	}
	if n, err := ap.SyncSubscriberKeys(); err != nil || n != 1 {
		return fmt.Errorf("key sync: n=%d err=%v", n, err)
	}
	if err := s.ConnectUERadio("phone", "gym", geo.Pt(1200, 0)); err != nil {
		return err
	}

	// Attach: real NAS over the air, real S1AP to the stub, mutual
	// Milenage AKA, GTP-U bearer — then direct breakout.
	res, err := d.Attach(ap.AirAddr(), 10*time.Second)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "attached in %v: IP=%s GUTI=%#x breakout=%v\n",
		res.Duration.Round(time.Millisecond), res.IP, res.GUTI, res.DirectBreakout)

	// Traffic: UE → AP → Internet, no EPC in the middle.
	rtt, err := d.Echo("echo.example:9000", []byte("hello dLTE"), 200*time.Millisecond, 5*time.Second)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "echo RTT: %v\n", rtt.Round(time.Millisecond))

	// Clean release.
	if err := d.Detach(5 * time.Second); err != nil {
		return err
	}
	fmt.Fprintln(out, "detached cleanly — quickstart complete")
	return nil
}
