package main

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"dlte/internal/auth"
	"dlte/internal/geo"
	"dlte/internal/gtp"
	"dlte/internal/metrics"
	"dlte/internal/mobility"
	"dlte/internal/nas"
	"dlte/internal/phy"
	"dlte/internal/registry"
	"dlte/internal/s1ap"
	"dlte/internal/session"
	"dlte/internal/simnet"
	"dlte/internal/ue"
	"dlte/internal/wire"
	"dlte/internal/x2"
)

// Isolated probes: each calls one layer's exported API in a loop, with
// nothing else running, and reports the median cost of one call. They
// are the unit costs the ledger multiplies by the per-unit counts the
// traced workloads read from ExecStats, epc.Stats and the Meter.

// perCall times fn like testing.B does — grow the batch until it runs
// for about 2 ms, then time several batches — but reports the median
// batch, not the mean, in nanoseconds per call.
func perCall(fn func()) float64 {
	const (
		minBatch = 2 * time.Millisecond
		batches  = 9
	)
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(t0); d >= minBatch || n >= 1<<22 {
			break
		}
		n *= 2
	}
	samples := make([]float64, batches)
	for b := range samples {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		samples[b] = float64(time.Since(t0)) / float64(n)
	}
	return median(samples)
}

// probes runs every isolated probe and returns its metrics by name.
func probes() (map[string]float64, error) {
	out := make(map[string]float64)
	for _, p := range []func(map[string]float64) error{
		probeSimnet, probeCodecs, probeNAS, probeGTP, probeMobility,
		probeRegistry, probePhy, probeMetrics, probeIdlePool,
	} {
		if err := p(out); err != nil {
			return nil, err
		}
		runtime.GC()
	}
	return out, nil
}

// hopWorld is two hosts on a virtual network, 50 us apart.
func hopWorld() (*simnet.Network, *simnet.Host, *simnet.Host) {
	n := simnet.NewVirtualNetwork(simnet.Link{Latency: 50 * time.Microsecond}, 1)
	return n, n.MustAddHost("a"), n.MustAddHost("b")
}

// await parks the driver until the advancer signals done.
func await(clk simnet.Clock, done <-chan struct{}) {
	clk.Block()
	<-done
	clk.Unblock()
}

func probeSimnet(out map[string]float64) error {
	// stream_hop: a handler-to-handler round trip; the ping-pong runs on
	// the advancer with no goroutine parked anywhere.
	{
		n, ha, hb := hopWorld()
		clk := n.Clock()
		l, err := hb.Listen(9000)
		if err != nil {
			return err
		}
		accepted := make(chan *simnet.Conn, 1)
		clk.Go(func() {
			if c, err := l.Accept(); err == nil {
				accepted <- c.(*simnet.Conn)
			}
		})
		raw, err := ha.Dial("b:9000")
		if err != nil {
			return err
		}
		cc := raw.(*simnet.Conn)
		clk.Block()
		sc := <-accepted
		clk.Unblock()
		left := 0
		done := make(chan struct{}, 1)
		sc.OnDeliver(func(data []byte) { sc.Write(data) }, nil)
		cc.OnDeliver(func(data []byte) {
			if left--; left == 0 {
				done <- struct{}{}
				return
			}
			cc.Write(data)
		}, nil)
		msg := make([]byte, 64)
		const trips = 256
		out["simnet.stream_hop_ns"] = perCall(func() {
			left = trips
			cc.Write(msg)
			await(clk, done)
		}) / trips
		n.Close()
	}
	// pkt_hop: the same round trip over datagram sockets.
	{
		n, ha, hb := hopWorld()
		clk := n.Clock()
		pa, err := ha.ListenPacket(9000)
		if err != nil {
			return err
		}
		pb, err := hb.ListenPacket(9000)
		if err != nil {
			return err
		}
		var toB net.Addr = simnet.Addr{Host: "b", Port: 9000}
		left := 0
		done := make(chan struct{}, 1)
		pb.SetHandler(func(data []byte, from net.Addr) { pb.WriteTo(data, from) })
		pa.SetHandler(func(data []byte, from net.Addr) {
			if left--; left == 0 {
				done <- struct{}{}
				return
			}
			pa.WriteTo(data, from)
		})
		msg := make([]byte, 64)
		const trips = 256
		out["simnet.pkt_hop_ns"] = perCall(func() {
			left = trips
			pa.WriteTo(msg, toB)
			await(clk, done)
		}) / trips
		n.Close()
	}
	// sleep_wake: one clock-registered actor sleeping 1 ms of virtual
	// time at a stretch — the park, advance, wake cycle every settle
	// poll pays.
	{
		n, _, _ := hopWorld()
		clk := n.Clock()
		done := make(chan struct{}, 1)
		const sleeps = 256
		out["simnet.sleep_wake_ns"] = perCall(func() {
			clk.Go(func() {
				for i := 0; i < sleeps; i++ {
					clk.Sleep(time.Millisecond)
				}
				done <- struct{}{}
			})
			await(clk, done)
		}) / sleeps
		n.Close()
	}
	// timer: schedule 100k wheel timers, cancel a third, fire the rest.
	{
		const timers = 100_000
		s := simnet.NewScheduler()
		fn := func() {}
		handles := make([]simnet.Event, timers)
		out["simnet.timer_ns"] = perCall(func() {
			base := s.Now()
			for j := range handles {
				off := time.Duration(uint64(j)*2654435761%(timers*100)) + 1
				handles[j] = s.At(base+off, fn)
			}
			for j := 0; j < timers; j += 3 {
				handles[j].Cancel()
			}
			s.RunUntil(base + timers*100)
		}) / timers
	}
	return nil
}

// sink is a reusable in-memory stream end for the framing probe.
type sink struct{ b []byte }

func (s *sink) Write(p []byte) (int, error) { s.b = append(s.b, p...); return len(p), nil }

func probeCodecs(out map[string]float64) error {
	// wire: length-prefix a 64-byte payload and reassemble it.
	{
		payload := make([]byte, 64)
		var s sink
		var asm wire.FrameAssembler
		var ferr error
		out["wire.frame_ns"] = perCall(func() {
			s.b = s.b[:0]
			if err := wire.WriteFrame(&s, payload); err != nil {
				ferr = err
			}
			if err := asm.Feed(s.b, func([]byte) error { return nil }); err != nil {
				ferr = err
			}
		})
		if ferr != nil {
			return fmt.Errorf("wire probe: %w", ferr)
		}
	}
	// s1ap: the NAS-transport fast path, encode and decode by view.
	{
		pdu := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		buf := make([]byte, 0, 256)
		var v s1ap.MsgView
		var cerr error
		out["s1ap.codec_ns"] = perCall(func() {
			hdr, mark := s1ap.StartDownlinkNASTransport(buf, 7, 9)
			msg, err := s1ap.FinishNASTransport(append(hdr, pdu...), mark)
			if err == nil {
				err = s1ap.DecodeView(msg, &v)
			}
			if err != nil {
				cerr = err
			}
		})
		if cerr != nil {
			return fmt.Errorf("s1ap probe: %w", cerr)
		}
	}
	// x2: marshal and decode one handover request.
	{
		req := &x2.HandoverRequest{IMSI: "001017700000001", SourceAP: "ap1", RSRPdBm: -9850}
		var cerr error
		out["x2.marshal_ns"] = perCall(func() {
			b, err := x2.Marshal(req)
			if err == nil {
				_, err = x2.Decode(b)
			}
			if err != nil {
				cerr = err
			}
		})
		if cerr != nil {
			return fmt.Errorf("x2 probe: %w", cerr)
		}
	}
	// session: the four lifecycle events of one attach; the next
	// attach request supersedes, so the cycle repeats.
	{
		var m session.Machine
		var ferr error
		out["session.attach_fsm_ns"] = perCall(func() {
			for _, ev := range [...]session.Event{
				session.EvAttachRequest, session.EvAuthSuccess,
				session.EvSecurityComplete, session.EvAttachComplete,
			} {
				if _, err := m.Fire(ev); err != nil {
					ferr = err
				}
			}
		})
		if ferr != nil {
			return fmt.Errorf("session probe: %w", ferr)
		}
	}
	return nil
}

func probeNAS(out map[string]float64) error {
	sim, err := auth.NewSIM("001010000000099")
	if err != nil {
		return err
	}
	hss := auth.NewSubscriberDB(false)
	if err := hss.Provision(sim); err != nil {
		return err
	}
	u, err := nas.NewUE(sim)
	if err != nil {
		return err
	}
	n := nas.NewNetworkSession(nas.NetworkConfig{
		HSS: hss, ServingNetworkID: "dlte-bench", TrackingArea: 7, DirectBreakout: true,
		AllocateIP:   func(string) (string, error) { return "198.51.100.1", nil },
		AllocateGUTI: func() uint64 { return 0x2001 },
		KnownGUTI:    func(g uint64) bool { return g == 0x2001 },
	})
	up, dn := wire.GetFrame(), wire.GetFrame()
	defer wire.PutFrame(up)
	defer wire.PutFrame(dn)
	var perr error
	// attach is the full two-sided handshake over reused pooled frames.
	attach := func() {
		msg, err := u.StartAttachAppend(up[:0], "dlte-bench")
		for err == nil {
			var reply []byte
			if reply, _, err = n.HandleAppend(msg, dn[:0]); err != nil || len(reply) == 0 {
				break
			}
			msg, _, err = u.HandleAppend(reply, up[:0])
		}
		if err == nil && n.State() != session.Attached {
			err = fmt.Errorf("attach ended in %v", n.State())
		}
		if err != nil {
			perr = err
		}
	}
	detach := func() {
		msg, err := u.StartDetachAppend(up[:0])
		if err == nil {
			var reply []byte
			if reply, _, err = n.HandleAppend(msg, dn[:0]); err == nil {
				_, _, err = u.HandleAppend(reply, up[:0])
			}
		}
		if err != nil {
			perr = err
		}
	}
	attach() // the first attach allocates the session's durable state
	attachNs := perCall(attach)
	// A detach needs a registration to end, so time the pair and take
	// the attach back out.
	cycleNs := perCall(func() { attach(); detach() })
	if perr != nil {
		return fmt.Errorf("nas probe: %w", perr)
	}
	out["nas.attach_proc_ns"] = attachNs
	out["nas.detach_proc_ns"] = cycleNs - attachNs

	db := auth.NewSubscriberDB(true)
	if err := db.Provision(sim); err != nil {
		return err
	}
	out["auth.vector_ns"] = perCall(func() {
		if _, err := db.NextVector(sim.IMSI, "ap"); err != nil {
			perr = err
		}
	})
	if perr != nil {
		return fmt.Errorf("auth probe: %w", perr)
	}
	return nil
}

// probeGTP prices encap, socket and TEID demux between two endpoints on
// a virtual network: bursts of 32 G-PDUs, then one clock sleep that
// lets the advancer deliver them.
func probeGTP(out map[string]float64) error {
	n, ha, hb := hopWorld()
	defer n.Close()
	clk := n.Clock()
	pa, err := ha.ListenPacket(gtp.Port)
	if err != nil {
		return err
	}
	pb, err := hb.ListenPacket(gtp.Port)
	if err != nil {
		return err
	}
	a, b := gtp.NewEndpoint(pa), gtp.NewEndpoint(pb)
	defer a.Close()
	defer b.Close()
	received := 0
	aTEID := a.AllocateTEID(nil)
	bTEID := b.AllocateTEID(func([]byte, net.Addr) { received++ })
	if err := a.Bind(aTEID, bTEID, simnet.Addr{Host: "b", Port: gtp.Port}); err != nil {
		return err
	}
	payload := make([]byte, 512)
	const burst = 32
	var perr error
	sent := 0
	out["gtp.send_demux_ns"] = perCall(func() {
		for i := 0; i < burst; i++ {
			if err := a.Send(aTEID, payload); err != nil {
				perr = err
			}
		}
		sent += burst
		clk.Sleep(time.Millisecond)
	}) / burst
	if perr != nil {
		return fmt.Errorf("gtp probe: %w", perr)
	}
	if received != sent {
		return fmt.Errorf("gtp probe: %d of %d G-PDUs demuxed", received, sent)
	}
	return nil
}

func probeMobility(out map[string]float64) error {
	t := mobility.DefaultTrigger()
	hits := 0
	out["mobility.trigger_ns"] = perCall(func() {
		for i := 0; i < 64; i++ {
			if t.Decide(-100+float64(i%8), -95) {
				hits++
			}
		}
	}) / 64
	if hits == 0 {
		return fmt.Errorf("mobility probe: trigger never fired")
	}
	return nil
}

// probeRegistry prices the discovery plane's store at the E10
// full-scale population: 2048 APs on a 64-column 1 km grid.
func probeRegistry(out map[string]float64) error {
	const aps = 2048
	rec := func(i int) registry.APRecord {
		return registry.APRecord{
			ID: fmt.Sprintf("ap-%04d", i), X2Addr: fmt.Sprintf("ap-%04d:36422", i),
			X: float64(i%64) * 1000, Y: float64(i/64) * 1000, Band: "b5",
			EIRPdBm: 58, HeightM: 20, Mode: "fair-share",
		}
	}
	s := registry.NewStore()
	for i := 0; i < aps; i++ {
		if err := s.Join(rec(i)); err != nil {
			return err
		}
	}
	s.List("") // build the read snapshot outside the timed calls
	var perr error
	out["registry.get_ns"] = perCall(func() {
		if _, ok := s.Get("ap-1024"); !ok {
			perr = fmt.Errorf("registry probe: ap-1024 missing")
		}
	})
	rect := geo.NewRect(geo.Pt(-500, -500), geo.Pt(3500, 1500)) // covers 8 APs
	buf := make([]registry.APRecord, 0, 64)
	out["registry.inregion_ns"] = perCall(func() {
		if buf = s.InRegionAppend("", rect, buf[:0]); len(buf) != 8 {
			perr = fmt.Errorf("registry probe: region holds %d APs, want 8", len(buf))
		}
	})
	joins := registry.NewStore()
	i := 0
	out["registry.join_ns"] = perCall(func() {
		if err := joins.Join(rec(i % aps)); err != nil {
			perr = err
		}
		i++
	})
	return perr
}

// probePhy prices one simulated second of contention: saturated DCF at
// 32 and 256 stations (E12's mixed-rate population), and an E12-style
// coexistence domain with a duty-cycled and an LBT LTE node.
func probePhy(out map[string]float64) error {
	stations := func(n int) []phy.DCFStation {
		rates := []float64{54e6, 24e6, 12e6}
		ss := make([]phy.DCFStation, n)
		for i := range ss {
			ss[i] = phy.DCFStation{ID: fmt.Sprintf("s%d", i), RateBps: rates[i%len(rates)], Saturated: true}
		}
		return ss
	}
	for _, n := range []int{32, 256} {
		cfg := phy.DCFConfig{Stations: stations(n), Seed: 11}
		out[fmt.Sprintf("phy.dcf%d_ms", n)] = perCall(func() { phy.SimulateDCF(cfg, 1.0) }) / 1e6
	}
	coex := phy.CoexConfig{
		WiFi: stations(8),
		LTE: []phy.LTENode{
			{ID: "duty", Kind: phy.LTEUDuty, RateBps: 36e6, OnMs: 20, PeriodMs: 40},
			{ID: "lbt", Kind: phy.LTELBT, RateBps: 36e6, TXOPMs: 4, CW: 31},
		},
		Seed: 11,
	}
	out["phy.coex_ms"] = perCall(func() { phy.SimulateCoex(coex, 1.0) }) / 1e6
	return nil
}

// probeMetrics prices the histogram every experiment table is built
// from: one Observe, and one Quantile over 100k unsorted samples.
func probeMetrics(out map[string]float64) error {
	const samples = 100_000
	h := metrics.NewHistogram()
	x := 0.0
	out["metrics.hist_observe_ns"] = perCall(func() {
		h.Observe(x)
		x += 0.618
	})
	vals := make([]float64, samples)
	for i := range vals {
		vals[i] = float64(uint64(i) * 2654435761 % 1_000_003)
	}
	out["metrics.hist_quantile_us"] = perCall(func() {
		q := metrics.NewHistogram()
		for _, v := range vals {
			q.Observe(v)
		}
		q.Quantile(0.99) // sorts on first query
	}) / 1e3
	return nil
}

// probeIdlePool prices a compact endpoint's slot lifecycle: alloc,
// attach, register, one TAU, release.
func probeIdlePool(out map[string]float64) error {
	p := ue.NewIdlePool(4096)
	var perr error
	out["ue.idlepool_cycle_ns"] = perCall(func() {
		i, ok := p.Alloc()
		if !ok {
			perr = fmt.Errorf("idle pool probe: arena full")
			return
		}
		p.StartAttach(i)
		p.Register(i, uint64(i)+1, 0x0a000001)
		p.TrackingAreaUpdate(i)
		p.Release(i)
	})
	return perr
}
