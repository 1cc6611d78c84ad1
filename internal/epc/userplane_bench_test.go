package epc_test

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dlte/internal/auth"
	"dlte/internal/enb"
	"dlte/internal/epc"
	"dlte/internal/simnet"
	"dlte/internal/ue"
)

// upBed is a zero-latency world for user-plane throughput
// benchmarking: one attached UE whose bearer traffic crosses the full
// stack (air framing → eNB → GTP or breakout → gateway NAT → external
// sink). With no modeled delay, virtual time stands still and wall
// time is the per-packet CPU cost of the data path itself.
type upBed struct {
	bc       *ue.BearerConn
	sink     *simnet.PacketConn
	sinkAddr net.Addr
	// gwAddr is the gateway's per-session external address, learned
	// from the first uplink packet; downlink injections target it.
	gwAddr net.Addr

	arrived *simnet.Mailbox[struct{}] // one token per packet a counter saw
	stop    atomic.Bool

	core *epc.Core
}

func newUserPlaneBed(b testing.TB, tunneled bool) *upBed {
	b.Helper()
	n := simnet.NewVirtualNetwork(simnet.Link{}, 1)
	ap := n.MustAddHost("ap")
	coreHost := ap
	if tunneled {
		coreHost = n.MustAddHost("epc")
	}
	core, err := epc.NewCore(coreHost, epc.Config{
		Name: "up-bench", TAC: 7, DirectBreakout: !tunneled,
	})
	if err != nil {
		b.Fatal(err)
	}
	l, err := coreHost.Listen(epc.S1APPort)
	if err != nil {
		b.Fatal(err)
	}
	core.ServeS1AP(l)

	site, err := enb.New(ap, enb.Config{
		ID: 1, TAC: 7, MMEAddr: fmt.Sprintf("%s:%d", coreHost.Name(), epc.S1APPort),
	})
	if err != nil {
		b.Fatal(err)
	}

	sim, err := auth.NewSIM(auth.IMSI("001010000000077"))
	if err != nil {
		b.Fatal(err)
	}
	if err := core.Provision(sim); err != nil {
		b.Fatal(err)
	}
	dev, err := ue.NewDevice(n.MustAddHost("ue0"), sim)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := dev.Attach(site.AirAddr(), 30*time.Second); err != nil {
		b.Fatal(err)
	}

	sinkHost := n.MustAddHost("sink")
	sinkPC, err := sinkHost.ListenPacket(9000)
	if err != nil {
		b.Fatal(err)
	}

	bed := &upBed{
		bc:       dev.Bearer(),
		sink:     sinkPC,
		sinkAddr: simnet.Addr{Host: "sink", Port: 9000},
		arrived:  simnet.NewMailbox[struct{}](n.Clock().(*simnet.VirtualClock), 1024),
		core:     core,
	}
	b.Cleanup(func() {
		bed.stop.Store(true)
		bed.bc.Close()
		sinkPC.Close()
		site.Close()
		core.Close()
		dev.Close()
		n.Close()
	})

	// Learn the gateway's NAT address and wait for the downlink bind:
	// Attach returns at AttachAccept, but the gateway learns the eNB's
	// downlink TEID a beat later (when the core processes the context
	// setup response), and return traffic before that drops like on any
	// NAT without state. Ping until a pong makes the round trip.
	buf := make([]byte, 2048)
	clk := bed.bc.Clock()
	deadline := clk.Now().Add(10 * time.Second)
	for {
		if clk.Now().After(deadline) {
			b.Fatal("user-plane round trip never came up")
		}
		if _, err := bed.bc.WriteTo([]byte("probe"), bed.sinkAddr); err != nil {
			b.Fatal(err)
		}
		sinkPC.SetReadDeadline(clk.Now().Add(time.Second))
		_, from, err := sinkPC.ReadFrom(buf)
		if err != nil {
			continue
		}
		bed.gwAddr = from
		if _, err := sinkPC.WriteTo(buf[:5], from); err != nil {
			b.Fatal(err)
		}
		bed.bc.SetReadDeadline(clk.Now().Add(200 * time.Millisecond))
		if _, _, err := bed.bc.ReadFrom(buf); err == nil {
			return bed
		}
	}
}

// countUplink drains the sink, counting arrivals.
func (u *upBed) countUplink() {
	buf := make([]byte, 2048)
	clk := u.sink.Clock()
	for {
		u.sink.SetReadDeadline(clk.Now().Add(100 * time.Millisecond))
		if _, _, err := u.sink.ReadFrom(buf); err == nil {
			u.arrived.Put(struct{}{})
		} else if u.stop.Load() {
			return
		}
	}
}

// countDownlink drains the UE bearer, counting arrivals.
func (u *upBed) countDownlink() {
	buf := make([]byte, 2048)
	clk := u.bc.Clock()
	for {
		u.bc.SetReadDeadline(clk.Now().Add(100 * time.Millisecond))
		if _, _, err := u.bc.ReadFrom(buf); err == nil {
			u.arrived.Put(struct{}{})
		} else if u.stop.Load() {
			return
		}
	}
}

// pump issues n sends keeping at most window in flight (counted at the
// far end into arrived), then waits for all n to land.
func pump(b *testing.B, n, window int, arrived *simnet.Mailbox[struct{}], send func() error) {
	b.Helper()
	await := func() {
		if _, err := arrived.Recv(time.Second); err != nil {
			b.Fatalf("packet lost: %v", err)
		}
	}
	inFlight := 0
	for i := 0; i < n; i++ {
		if inFlight == window {
			await()
			inFlight--
		}
		if err := send(); err != nil {
			b.Fatal(err)
		}
		inFlight++
	}
	for ; inFlight > 0; inFlight-- {
		await()
	}
}

// BenchmarkUserPlaneUplink is the full uplink path per packet: bearer
// write → air frame → eNB decap → breakout gateway NAT → sink socket.
func BenchmarkUserPlaneUplink(b *testing.B) {
	bed := newUserPlaneBed(b, false)
	bed.bc.Clock().Go(bed.countUplink)
	payload := make([]byte, 512)
	b.ReportAllocs()
	b.ResetTimer()
	pump(b, b.N, 64, bed.arrived, func() error {
		_, err := bed.bc.WriteTo(payload, bed.sinkAddr)
		return err
	})
	b.StopTimer()
}

// BenchmarkUserPlaneDownlink is the full downlink path per packet:
// external socket → gateway NAT return → GTP tunnel → eNB air frame →
// bearer read.
func BenchmarkUserPlaneDownlink(b *testing.B) {
	bed := newUserPlaneBed(b, false)
	bed.bc.Clock().Go(bed.countDownlink)
	payload := make([]byte, 512)
	b.ReportAllocs()
	b.ResetTimer()
	pump(b, b.N, 64, bed.arrived, func() error {
		_, err := bed.sink.WriteTo(payload, bed.gwAddr)
		return err
	})
	b.StopTimer()
}

// BenchmarkBreakoutVsTunnel compares one bearer round trip (uplink +
// echo + downlink) through a dLTE direct-breakout stub against the
// same packet hauled through a telecom GTP tunnel to a remote EPC.
// The worlds have zero link latency, so the gap is pure per-packet
// CPU: the tunnel's extra encap/decap and forwarding hops.
func BenchmarkBreakoutVsTunnel(b *testing.B) {
	for _, mode := range []struct {
		name     string
		tunneled bool
	}{{"breakout", false}, {"tunnel", true}} {
		b.Run(mode.name, func(b *testing.B) {
			bed := newUserPlaneBed(b, mode.tunneled)
			payload := make([]byte, 512)
			buf := make([]byte, 2048)
			clk := bed.bc.Clock()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bed.bc.WriteTo(payload, bed.sinkAddr); err != nil {
					b.Fatal(err)
				}
				bed.sink.SetReadDeadline(clk.Now().Add(5 * time.Second))
				_, from, err := bed.sink.ReadFrom(buf)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := bed.sink.WriteTo(buf[:len(payload)], from); err != nil {
					b.Fatal(err)
				}
				bed.bc.SetReadDeadline(clk.Now().Add(5 * time.Second))
				if _, _, err := bed.bc.ReadFrom(buf); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
		})
	}
}
