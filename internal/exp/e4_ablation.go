package exp

import (
	"fmt"
	"time"

	"dlte/internal/metrics"
	"dlte/internal/simnet"
	"dlte/internal/transport"
	"dlte/internal/x2"
)

// RunE4Ablation isolates how much of §4.2's mobility story each
// transport feature buys: connection migration (sockets survive),
// 0-RTT resumption (reconnect without handshake round trips), and the
// plain 2-RTT reconnect. The paper's argument is precisely that
// "current-generation transport protocols make this approach more
// feasible than it was in the past" — this ablation prices each
// generation.
func RunE4Ablation(opt Options) (*metrics.Table, error) {
	ottRTT := 100
	if opt.Quick {
		ottRTT = 50
	}
	t := metrics.NewTable("E4c — ablation: which transport feature carries the mobility story?",
		"reconnect strategy", "OTT one-way ms", "roam disruption ms")

	// The three strategies are independent worlds; run them
	// concurrently with their original derived seeds.
	var disruption [3]float64
	err := forEachWorld(opt, 3, func(i int) error {
		switch i {
		case 0:
			mig, e := runRoam(opt.Seed+11, ottRTT, transport.Migratory)
			if e != nil {
				return fmt.Errorf("migration: %w", e)
			}
			disruption[0] = mig.disruptionMs
		case 1:
			zero, e := runResumeRoam(opt.Seed+12, ottRTT, true)
			if e != nil {
				return fmt.Errorf("0-RTT resume: %w", e)
			}
			disruption[1] = zero
		case 2:
			leg, e := runRoam(opt.Seed+13, ottRTT, transport.Legacy)
			if e != nil {
				return fmt.Errorf("legacy: %w", e)
			}
			disruption[2] = leg.disruptionMs
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("connection migration (QUIC-style)", ottRTT, disruption[0])
	t.AddRow("close + 0-RTT resume (session ticket)", ottRTT, disruption[1])
	t.AddRow("close + full 2-RTT reconnect (TCP+TLS-style)", ottRTT, disruption[2])

	opt.emit(t)
	return t, nil
}

// runResumeRoam roams with an explicit close-and-resume instead of
// migration: the client tears its session down at the roam and
// reopens it with the resume token (0-RTT when resume is true).
func runResumeRoam(seed int64, ottOneWayMs int, resume bool) (float64, error) {
	s, aps, err := newDLTEWorld(2, 3, x2.ModeCooperative, seed)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	for _, ap := range []string{"ap1", "ap2"} {
		s.Net.SetLink(ap, "ott", simnet.Link{Latency: time.Duration(ottOneWayMs) * time.Millisecond})
	}
	ottHost, _ := s.Net.Host("ott")
	pc, err := ottHost.ListenPacket(7000)
	if err != nil {
		return 0, err
	}
	srv := transport.NewServer(pc, transport.ServerConfig{
		Mode:    transport.Migratory,
		Handler: func(ss *transport.ServerSession, b []byte) { ss.Send(b) },
	})
	defer srv.Close()

	d, _, err := attachNewUE(s, aps[0], "roamer", imsiFor(6, int(seed%1000)), 1)
	if err != nil {
		return 0, err
	}
	if err := s.ConnectUERadio("roamer", "ap2", aps[0].Position().Add(1000, 0)); err != nil {
		return 0, err
	}
	if _, err := aps[1].SyncSubscriberKeys(); err != nil {
		return 0, err
	}

	cli, err := transport.Dial(d.Bearer(), simnet.Addr{Host: "ott", Port: 7000},
		transport.DialConfig{Mode: transport.Migratory, Timeout: 15 * time.Second})
	if err != nil {
		return 0, err
	}
	if err := cli.Send([]byte("warm")); err != nil {
		return 0, err
	}
	if _, err := cli.Recv(5 * time.Second); err != nil {
		return 0, fmt.Errorf("warm-up echo: %w", err)
	}
	token := cli.Token()

	// Roam: close the session, re-attach, resume.
	clk := s.Clock()
	start := clk.Now()
	cli.Close()
	if _, err := d.Attach(aps[1].AirAddr(), 15*time.Second); err != nil {
		return 0, fmt.Errorf("re-attach: %w", err)
	}
	var resumeToken []byte
	if resume {
		resumeToken = token
	}
	cli2, err := transport.Dial(d.Bearer(), simnet.Addr{Host: "ott", Port: 7000},
		transport.DialConfig{Mode: transport.Migratory, ResumeToken: resumeToken, Timeout: 15 * time.Second})
	if err != nil {
		return 0, fmt.Errorf("resume dial: %w", err)
	}
	defer cli2.Close()
	if err := cli2.Send([]byte("resumed")); err != nil {
		return 0, err
	}
	if _, err := cli2.Recv(10 * time.Second); err != nil {
		return 0, fmt.Errorf("post-resume echo: %w", err)
	}
	return ms(clk.Since(start)), nil
}
