// Mobility: a client roams between two dLTE APs mid-session. With a
// migratory transport (the QUIC stand-in), the session glides across
// the IP address change; with a legacy TCP-like transport it resets and
// must reconnect — the paper's §4.2 argument made observable. The world
// runs on virtual time, so the printed latencies are simulated and
// every run prints the same bytes.
//
//	go run ./examples/mobility
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
	"dlte/internal/mobility"
	"dlte/internal/radio"
	"dlte/internal/simnet"
	"dlte/internal/transport"
	"dlte/internal/x2"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run roams the client once per transport mode, narrating to out.
func run(out io.Writer) error {
	for _, mode := range []transport.Mode{transport.Migratory, transport.Legacy} {
		fmt.Fprintf(out, "=== transport: %s ===\n", mode)
		if err := roam(out, mode); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}

func roam(out io.Writer, mode transport.Mode) error {
	s, err := core.NewScenario(simnet.Link{Latency: 10 * time.Millisecond}, 7)
	if err != nil {
		return err
	}
	defer s.Close()
	clk := s.Clock()

	var aps []*core.AccessPoint
	for i := 0; i < 2; i++ {
		ap, err := s.AddAP(core.APConfig{
			ID:       fmt.Sprintf("ap%d", i+1),
			Position: geo.Pt(float64(i)*2500, 0),
			Band:     radio.LTEBand5, HeightM: 20, EIRPdBm: 58,
			Mode: x2.ModeCooperative, TAC: uint16(i + 1),
		})
		if err != nil {
			return err
		}
		aps = append(aps, ap)
	}

	// MST echo service on the Internet.
	ottHost, _ := s.Net.AddHost("ott")
	pc, err := ottHost.ListenPacket(7000)
	if err != nil {
		return err
	}
	srv := transport.NewServer(pc, transport.ServerConfig{
		Mode: mode,
		Handler: func(ss *transport.ServerSession) {
			for {
				b, err := ss.Recv(10 * time.Second)
				if err != nil {
					return
				}
				if ss.Send(b) != nil {
					return
				}
			}
		},
	})
	defer srv.Close()

	// Subscriber attaches at ap1; ap2 already has radio coverage of
	// the client's position.
	d, err := s.AddUE("walker", auth.IMSI("001010000000888"))
	if err != nil {
		return err
	}
	if _, err := aps[0].SyncSubscriberKeys(); err != nil {
		return err
	}
	pos := geo.Pt(1250, 0) // midway
	s.ConnectUERadio("walker", "ap1", pos)
	s.ConnectUERadio("walker", "ap2", pos)
	if _, err := d.Attach(aps[0].AirAddr(), 10*time.Second); err != nil {
		return err
	}
	fmt.Fprintf(out, "attached at ap1, IP %s\n", d.IP())

	cli, err := transport.Dial(d.Bearer(), simnet.Addr{Host: "ott", Port: 7000},
		transport.DialConfig{Mode: mode, Timeout: 10 * time.Second})
	if err != nil {
		return err
	}
	defer cli.Close()
	ping := func(label string) {
		start := clk.Now()
		if err := cli.Send([]byte(label)); err != nil {
			fmt.Fprintf(out, "  %-16s send failed: %v\n", label, err)
			return
		}
		if _, err := cli.Recv(3 * time.Second); err != nil {
			fmt.Fprintf(out, "  %-16s echo lost: %v\n", label, err)
			return
		}
		fmt.Fprintf(out, "  %-16s echoed in %v\n", label, clk.Since(start).Round(time.Millisecond))
	}
	ping("before-roam")

	// Roam: the source AP discovers its neighbor via the registry,
	// pre-provisions it over X2, and the UE re-attaches with a new
	// public address.
	if _, err := aps[0].DiscoverPeers(); err != nil {
		return err
	}
	if err := aps[0].Mobility.Prepare("ap2", d.Publication(), -103); err != nil {
		return err
	}
	clk.(*simnet.VirtualClock).WaitUntil(time.Second, func() bool {
		return aps[0].Mobility.State(d.IMSI()) == mobility.StatePrepared
	})
	start := clk.Now()
	if _, err := d.Attach(aps[1].AirAddr(), 10*time.Second); err != nil {
		return err
	}
	fmt.Fprintf(out, "roamed to ap2 in %v, new IP %s\n", clk.Since(start).Round(time.Millisecond), d.IP())

	// Does the session survive?
	if mode == transport.Migratory {
		ping("after-roam")
		fmt.Fprintln(out, "  → the connection migrated: same session, new path (QUIC-style)")
		return nil
	}
	// Legacy: the first packet from the new address draws the server's
	// reset of the address-bound connection, which ends the read.
	cli.Send([]byte("after-roam"))
	if _, err := cli.Recv(3 * time.Second); err != nil {
		fmt.Fprintf(out, "  connection reset by server: %v\n", err)
	}
	cli.Close()
	re, err := transport.Dial(d.Bearer(), simnet.Addr{Host: "ott", Port: 7000},
		transport.DialConfig{Mode: mode, Timeout: 10 * time.Second})
	if err != nil {
		return err
	}
	defer re.Close()
	fmt.Fprintln(out, "  → application had to reconnect from scratch (TCP-style)")
	start = clk.Now()
	re.Send([]byte("post-reconnect"))
	if _, err := re.Recv(3 * time.Second); err == nil {
		fmt.Fprintf(out, "  post-reconnect echo in %v\n", clk.Since(start).Round(time.Millisecond))
	}
	return nil
}
