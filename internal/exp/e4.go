package exp

import (
	"errors"
	"fmt"
	"time"

	"dlte/internal/geo"
	"dlte/internal/metrics"
	"dlte/internal/simnet"
	"dlte/internal/transport"
	"dlte/internal/x2"
)

// E4Result quantifies §4.2's mobility story: session disruption when a
// client roams between dLTE APs under (a) a migratory transport (MST,
// the QUIC stand-in), (b) a legacy TCP-like transport, against (c) the
// centralized baseline's MME-masked handover. It also locates the
// paper's predicted breakdown: dLTE loses when time-on-AP approaches
// the RTT to the in-use OTT service.
type E4Result struct {
	DisruptionTable *metrics.Table
	BreakdownTable  *metrics.Table
	AblationTable   *metrics.Table
	// MSTDisruptionMs and LegacyDisruptionMs are measured roam gaps at
	// the default OTT RTT.
	MSTDisruptionMs, LegacyDisruptionMs float64
	// CentralDisruptionMs is the modeled MME handover interruption.
	CentralDisruptionMs float64
	// CrossoverDwellMs is the dwell time below which dLTE's per-roam
	// overhead exceeds the centralized handover's (the §4.2 breakdown
	// point) at the largest OTT RTT swept.
	CrossoverDwellMs float64
}

// centralHandoverMs models the user-plane interruption of an
// MME-coordinated X2 handover with path switch (~50 ms is the
// textbook LTE figure). The centralized baseline masks mobility at
// this constant cost, independent of any OTT RTT.
const centralHandoverMs = 50.0

// RunE4 measures roam disruption end to end.
//
// Topology: two dLTE APs 3 km apart sharing a registry, an OTT host
// running an MST echo server, and a UE that streams sequenced probes,
// roams from ap1 to ap2 (with X2 handover preparation), and keeps
// streaming. Disruption is the largest probe-echo gap around the roam.
func RunE4(opt Options) (E4Result, error) {
	var res E4Result
	ottRTTs := []int{10, 50, 200} // extra one-way ms to the OTT service
	if opt.Quick {
		ottRTTs = []int{10, 100}
	}

	t := metrics.NewTable("E4 — §4.2: session disruption across an AP roam",
		"scheme", "OTT one-way ms", "roam disruption ms", "probes lost", "session survived")

	// Every (RTT, transport mode) roam is its own world with the same
	// derived seed the serial loop used; run them all concurrently and
	// render afterwards in sweep order.
	mstOut := make([]roamOutcome, len(ottRTTs))
	legOut := make([]roamOutcome, len(ottRTTs))
	err := forEachWorld(opt, 2*len(ottRTTs), func(j int) error {
		i := j / 2
		rtt := ottRTTs[i]
		if j%2 == 0 {
			mst, e := runRoam(opt.Seed+int64(i), rtt, transport.Migratory)
			if e != nil {
				return fmt.Errorf("E4 mst rtt=%d: %w", rtt, e)
			}
			mstOut[i] = mst
			return nil
		}
		leg, e := runRoam(opt.Seed+int64(i)+100, rtt, transport.Legacy)
		if e != nil {
			return fmt.Errorf("E4 legacy rtt=%d: %w", rtt, e)
		}
		legOut[i] = leg
		return nil
	})
	if err != nil {
		return res, err
	}
	for i, rtt := range ottRTTs {
		mst, leg := mstOut[i], legOut[i]
		t.AddRow("dLTE + MST", rtt, mst.disruptionMs, mst.lost, mst.survived)
		t.AddRow("dLTE + legacy TCP-like", rtt, leg.disruptionMs, leg.lost, leg.survived)
		t.AddRow("telecom LTE (MME handover, modeled)", rtt, centralHandoverMs, 0, true)
		if i == 0 {
			res.MSTDisruptionMs = mst.disruptionMs
			res.LegacyDisruptionMs = leg.disruptionMs
		}
	}
	res.CentralDisruptionMs = centralHandoverMs
	res.DisruptionTable = t

	// Breakdown analysis (§4.2 last paragraph): fraction of airtime
	// lost to roaming as dwell time shrinks. dLTE pays its measured
	// per-roam disruption once per dwell; centralized pays 50 ms.
	bt := metrics.NewTable("E4b — breakdown: utilization vs time-on-AP",
		"dwell ms", "dLTE+MST util %", "telecom util %", "dLTE wins")
	dlteCost := res.MSTDisruptionMs
	for _, dwell := range []float64{500, 1000, 2000, 5000, 20000, 60000} {
		du := 100 * (1 - dlteCost/dwell)
		cu := 100 * (1 - centralHandoverMs/dwell)
		if du < 0 {
			du = 0
		}
		wins := du >= cu
		if !wins && res.CrossoverDwellMs == 0 {
			res.CrossoverDwellMs = dwell
		}
		bt.AddRow(dwell, du, cu, wins)
	}
	if res.CrossoverDwellMs == 0 && dlteCost > centralHandoverMs {
		res.CrossoverDwellMs = 500 // below the smallest dwell swept
	}
	res.BreakdownTable = bt
	opt.emit(t, bt)

	at, err := RunE4Ablation(opt)
	if err != nil {
		return res, err
	}
	res.AblationTable = at
	return res, nil
}

type roamOutcome struct {
	disruptionMs float64
	lost         int
	survived     bool
}

// runRoam executes one instrumented roam with connection migration
// (Migratory) or reconnect-from-scratch (Legacy).
func runRoam(seed int64, ottOneWayMs int, mode transport.Mode) (roamOutcome, error) {
	var out roamOutcome
	s, aps, err := newDLTEWorld(2, 3, x2.ModeCooperative, seed)
	if err != nil {
		return out, err
	}
	defer s.Close()
	// Slow the OTT path specifically.
	for _, ap := range []string{"ap1", "ap2"} {
		s.Net.SetLink(ap, "ott", simnet.Link{Latency: time.Duration(ottOneWayMs) * time.Millisecond})
	}

	ottHost, _ := s.Net.Host("ott")
	pc, err := ottHost.ListenPacket(7000)
	if err != nil {
		return out, err
	}
	srv := transport.NewServer(pc, transport.ServerConfig{
		Mode:    mode,
		Handler: func(ss *transport.ServerSession, b []byte) { ss.Send(b) },
	})
	defer srv.Close()

	// Attach at ap1; both APs get radio links (the UE sits between).
	uePos := geo.Pt(1000, 0)
	d, _, err := attachNewUE(s, aps[0], "roamer", imsiFor(5, int(seed%1000)), 1)
	if err != nil {
		return out, err
	}
	if err := s.ConnectUERadio("roamer", "ap2", uePos); err != nil {
		return out, err
	}
	if _, err := aps[1].SyncSubscriberKeys(); err != nil {
		return out, err
	}

	cli, err := transport.Dial(d.Bearer(), simnet.Addr{Host: "ott", Port: 7000},
		transport.DialConfig{Mode: mode, Timeout: 15 * time.Second})
	if err != nil {
		return out, err
	}
	defer cli.Close()

	clk := s.Clock()
	vc := clk.(*simnet.VirtualClock)
	// Probe loop: send seq, count echoes, track the largest gap.
	const probePeriod = 10 * time.Millisecond
	echoes := simnet.NewMailbox[time.Time](vc, 1024)
	readerEnd := simnet.NewMailbox[error](vc, 2)
	readEchoes := func(c *transport.Client) func() {
		return func() {
			for {
				if _, rerr := c.Recv(5 * time.Second); rerr != nil {
					readerEnd.Put(rerr)
					return
				}
				echoes.Put(clk.Now())
			}
		}
	}
	clk.Go(readEchoes(cli))
	stop := simnet.NewMailbox[struct{}](vc, 1)
	clk.Go(func() {
		for {
			if _, err := stop.Recv(probePeriod); !errors.Is(err, simnet.ErrDeadline) {
				return
			}
			cli.Send([]byte("probe"))
		}
	})

	// Warm up, then roam.
	drainUntil(clk, echoes, 400*time.Millisecond)
	aps[0].Mobility.Prepare("ap2", d.Publication(), -101)
	// Flush any echo that slipped in between warm-up and the roam so
	// the first one received is genuinely post-roam.
	for {
		if _, err := echoes.Recv(0); err != nil {
			break
		}
	}
	lastBefore := clk.Now()
	if _, err := d.Attach(aps[1].AirAddr(), 15*time.Second); err != nil {
		stop.Close()
		return out, fmt.Errorf("re-attach: %w", err)
	}

	// Legacy transports die at the roam: a probe from the new address
	// draws the RESET, which ends the echo reader with ErrReset; then
	// redial (the application-level reconnect TCP forces).
	if mode == transport.Legacy {
		cli.Send([]byte("probe"))
		readerEnd.Recv(5 * time.Second)
		// Tear the dead connection down before redialing: Close stops
		// its retransmit loop and returns at once, and the new
		// connection's bearer takes over the device's downlink.
		stop.Close()
		cli.Close()
		cli2, rerr := transport.Dial(d.Bearer(), simnet.Addr{Host: "ott", Port: 7000},
			transport.DialConfig{Mode: mode, Timeout: 15 * time.Second})
		if rerr != nil {
			return out, fmt.Errorf("legacy redial: %w", rerr)
		}
		defer cli2.Close()
		cli2.Send([]byte("probe"))
		clk.Go(readEchoes(cli2))
	}

	// First echo after the roam bounds the disruption.
	firstAfter, err := echoes.Recv(10 * time.Second)
	stop.Close()
	if err != nil {
		out.survived = false
		out.disruptionMs = 10000
		return out, nil
	}
	out.survived = true
	out.disruptionMs = ms(firstAfter.Sub(lastBefore))
	st := cli.Stats()
	out.lost = int(st.Retransmits)
	return out, nil
}

// drainUntil consumes echo timestamps for the given duration.
func drainUntil(clk simnet.Clock, echoes *simnet.Mailbox[time.Time], d time.Duration) {
	deadline := clk.Now().Add(d)
	for {
		if _, err := echoes.Recv(clk.Until(deadline)); err != nil {
			return
		}
	}
}
