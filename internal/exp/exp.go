// Package exp implements the dLTE experiment harness: one runnable
// experiment per table/figure/claim in the paper, as indexed in
// DESIGN.md §3. Each experiment builds its scenario from the real
// protocol stacks (signaling measured end to end over simulated
// networks) and/or the radio/MAC simulators, and renders fixed-width
// result tables plus a headline struct the tests and benchmarks
// assert the paper's qualitative shapes against.
package exp

import (
	"fmt"
	"io"
	"math"
	"time"

	"dlte/internal/auth"
	"dlte/internal/baseline"
	"dlte/internal/core"
	"dlte/internal/geo"
	"dlte/internal/metrics"
	"dlte/internal/ott"
	"dlte/internal/radio"
	"dlte/internal/simnet"
	"dlte/internal/ue"
	"dlte/internal/x2"
)

// Options tune an experiment run.
type Options struct {
	// Quick shrinks sweeps for CI and benchmarks.
	Quick bool
	// Seed drives all randomness.
	Seed int64
	// Out, when non-nil, receives the rendered tables.
	Out io.Writer
	// Parallelism is the one real-CPU knob: it bounds how many
	// independent simulation worlds run concurrently inside one
	// experiment, and how many OS threads drain a compact world's
	// region wheels (E11, E13). 0 means one per CPU; 1 runs everything
	// serially. Results are byte-identical at any value — each world
	// derives its seed from (Seed, job index), regions are a modeling
	// constant, and tables are rendered only after all worlds finish.
	Parallelism int
	// UEs, when > 0, replaces E13's default population sweep with a
	// single world of exactly this many compact UEs. Other experiments
	// ignore it. Validation (rejecting values ≤ 0 typed explicitly)
	// happens at the flag layer in cmd/dlte-sim.
	UEs int
}

func (o Options) emit(tables ...*metrics.Table) {
	if o.Out == nil {
		return
	}
	for _, t := range tables {
		t.Render(o.Out)
		fmt.Fprintln(o.Out)
	}
}

// Mbps converts bits/second to megabits/second for table rendering.
func Mbps(bps float64) float64 { return bps / 1e6 }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// group joins a batch of clock goroutines through the clock's own
// accounting: each member puts one token on a mailbox deep enough for
// all of them, and wait takes the tokens back. The joining goroutine
// thus parks in a receive the clock tracks; a WaitGroup wake would be
// invisible to it.
type group struct {
	clk  simnet.Clock
	done *simnet.Mailbox[struct{}]
	n    int
}

func newGroup(clk simnet.Clock) *group {
	return &group{clk: clk, done: simnet.NewMailbox[struct{}](clk.(*simnet.VirtualClock), math.MaxInt)}
}

// spawn runs fn on a clock goroutine that the next wait joins. Only the
// joining goroutine calls spawn and wait.
func (g *group) spawn(fn func()) {
	g.n++
	g.clk.Go(func() {
		defer g.done.Put(struct{}{})
		fn()
	})
}

// wait returns once every goroutine spawned has returned, or the
// clock has closed.
func (g *group) wait() {
	for ; g.n > 0; g.n-- {
		if _, err := g.done.Wait(); err != nil {
			return
		}
	}
}

// defaultWAN is the scenario-wide Internet link: 10 ms one-way,
// uncongested.
var defaultWAN = simnet.Link{Latency: 10 * time.Millisecond}

// newDLTEWorld builds a scenario with n dLTE APs spaced apKm apart in
// a line, all in one contention domain, plus an OTT host named "ott".
func newDLTEWorld(n int, apKm float64, mode x2.Mode, seed int64) (*core.Scenario, []*core.AccessPoint, error) {
	s, err := core.NewScenario(defaultWAN, seed)
	if err != nil {
		return nil, nil, err
	}
	aps := make([]*core.AccessPoint, 0, n)
	for i := 0; i < n; i++ {
		ap, err := s.AddAP(core.APConfig{
			ID:       fmt.Sprintf("ap%d", i+1),
			Position: geo.Pt(float64(i)*apKm*1000, 0),
			Band:     radio.LTEBand5,
			HeightM:  20, EIRPdBm: 58,
			Mode: mode,
			TAC:  uint16(i + 1),
		})
		if err != nil {
			s.Close()
			return nil, nil, err
		}
		aps = append(aps, ap)
	}
	if _, err := s.Net.AddHost("ott"); err != nil {
		s.Close()
		return nil, nil, err
	}
	return s, aps, nil
}

// attachNewUE provisions, radio-links, and attaches a fresh UE to the
// given AP at distance dKm, returning the device and measured attach
// result.
func attachNewUE(s *core.Scenario, ap *core.AccessPoint, name string, imsi auth.IMSI, dKm float64) (*ue.Device, ue.AttachResult, error) {
	d, err := s.AddUE(name, imsi)
	if err != nil {
		return nil, ue.AttachResult{}, err
	}
	if _, err := ap.SyncSubscriberKeys(); err != nil {
		return nil, ue.AttachResult{}, err
	}
	pos := ap.Position().Add(dKm*1000, 0)
	if err := s.ConnectUERadio(name, ap.ID(), pos); err != nil {
		return nil, ue.AttachResult{}, err
	}
	res, err := d.Attach(ap.AirAddr(), 15*time.Second)
	return d, res, err
}

// coreAPConfig is the standard AP shape used across experiments.
func coreAPConfig(id string, x float64) core.APConfig {
	return core.APConfig{
		ID: id, Position: geo.Pt(x, 0), Band: radio.LTEBand5,
		HeightM: 20, EIRPdBm: 58, Mode: x2.ModeFairShare, TAC: 99,
	}
}

// imsiFor derives a deterministic valid IMSI from an index.
func imsiFor(block, i int) auth.IMSI {
	return auth.IMSI(fmt.Sprintf("00101%02d%08d", block%100, i))
}

// newEcho starts an OTT echo server on an existing host.
func newEcho(n *simnet.Network, hostName string, port int) (*ott.EchoServer, error) {
	h, ok := n.Host(hostName)
	if !ok {
		var err error
		h, err = n.AddHost(hostName)
		if err != nil {
			return nil, err
		}
	}
	return ott.NewEchoServer(h, port)
}

// medianEchoRTT probes the echo server count times and returns the
// median RTT (robust to the first packet's path-setup cost).
func medianEchoRTT(d *ue.Device, remote string, count int) (time.Duration, error) {
	h := metrics.NewHistogram()
	for i := 0; i < count; i++ {
		rtt, err := d.Echo(remote, []byte("probe"), 300*time.Millisecond, 10*time.Second)
		if err != nil {
			return 0, err
		}
		h.ObserveDuration(rtt)
	}
	return time.Duration(h.Quantile(0.5) * float64(time.Millisecond)), nil
}

// newProvisionedSIM creates a SIM and provisions it on the
// centralized core's HSS.
func newProvisionedSIM(central *baseline.Centralized, imsi auth.IMSI) (auth.SIM, error) {
	sim, err := auth.NewSIM(imsi)
	if err != nil {
		return auth.SIM{}, err
	}
	return sim, central.Core.Provision(sim)
}

// attachCentralUE provisions a fresh SIM on the centralized core,
// creates a UE host with a 5 ms air link to the site, and attaches.
func attachCentralUE(n *simnet.Network, central *baseline.Centralized, siteName, airAddr string, imsi auth.IMSI) (*ue.Device, ue.AttachResult, error) {
	sim, err := auth.NewSIM(imsi)
	if err != nil {
		return nil, ue.AttachResult{}, err
	}
	if err := central.Core.Provision(sim); err != nil {
		return nil, ue.AttachResult{}, err
	}
	host, err := n.AddHost("ue-" + string(imsi))
	if err != nil {
		return nil, ue.AttachResult{}, err
	}
	n.SetLink(host.Name(), siteName, simnet.Link{Latency: 5 * time.Millisecond})
	d, err := ue.NewDevice(host, sim)
	if err != nil {
		return nil, ue.AttachResult{}, err
	}
	res, err := d.Attach(airAddr, 30*time.Second)
	if err != nil {
		d.Close()
		return nil, ue.AttachResult{}, err
	}
	return d, res, nil
}
