package ue_test

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"dlte/internal/auth"
	"dlte/internal/core"
	"dlte/internal/geo"
	"dlte/internal/leaktest"
	"dlte/internal/ott"
	"dlte/internal/radio"
	"dlte/internal/simnet"
	"dlte/internal/transport"
	"dlte/internal/ue"
	"dlte/internal/x2"
)

func newWorld(t *testing.T) (*core.Scenario, *core.AccessPoint, *core.AccessPoint) {
	t.Helper()
	s, err := core.NewScenario(simnet.Link{Latency: 2 * time.Millisecond}, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ap1, err := s.AddAP(core.APConfig{ID: "ap1", Position: geo.Pt(0, 0), Band: radio.LTEBand5, Mode: x2.ModeCooperative, TAC: 1})
	if err != nil {
		t.Fatal(err)
	}
	ap2, err := s.AddAP(core.APConfig{ID: "ap2", Position: geo.Pt(3000, 0), Band: radio.LTEBand5, Mode: x2.ModeCooperative, TAC: 2})
	if err != nil {
		t.Fatal(err)
	}
	return s, ap1, ap2
}

func attachUE(t *testing.T, s *core.Scenario, ap *core.AccessPoint, name, imsi string) *ue.Device {
	t.Helper()
	d, err := s.AddUE(name, auth.IMSI(imsi))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ap.SyncSubscriberKeys(); err != nil {
		t.Fatal(err)
	}
	if err := s.ConnectUERadio(name, ap.ID(), geo.Pt(1000, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Attach(ap.AirAddr(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeviceLifecycleGuards(t *testing.T) {
	n := simnet.NewVirtualNetwork(simnet.Link{}, 1)
	t.Cleanup(n.Close)
	host := n.MustAddHost("u")
	sim, _ := auth.NewSIM("001010000000401")
	d, err := ue.NewDevice(host, sim)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if d.Attached() || d.IP() != "" {
		t.Error("fresh device claims attachment")
	}
	if err := d.Send("x:1", []byte("y")); !errors.Is(err, ue.ErrNotAttached) {
		t.Errorf("send detached: %v", err)
	}
	if _, err := d.Recv(10 * time.Millisecond); !errors.Is(err, ue.ErrNotAttached) {
		t.Errorf("recv detached: %v", err)
	}
	if err := d.Detach(time.Second); !errors.Is(err, ue.ErrNotAttached) {
		t.Errorf("detach detached: %v", err)
	}
	if _, err := d.Attach("nowhere:4000", time.Second); err == nil {
		t.Error("attach to nowhere succeeded")
	}
	if d.IMSI() != "001010000000401" {
		t.Errorf("IMSI = %s", d.IMSI())
	}
	pub := d.Publication()
	if len(pub.K) != 16 || len(pub.OPc) != 16 {
		t.Error("publication malformed")
	}
}

// startEcho serves an MST echo at ott:7000 in s.
func startEcho(t *testing.T, s *core.Scenario) *transport.Server {
	t.Helper()
	pc, err := s.Net.MustAddHost("ott").ListenPacket(7000)
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(pc, transport.ServerConfig{
		Mode:    transport.Migratory,
		Handler: func(ss *transport.ServerSession, b []byte) { ss.Send(b) },
	})
	t.Cleanup(srv.Close)
	return srv
}

func TestBearerConnOverDataPath(t *testing.T) {
	s, ap1, _ := newWorld(t)
	startEcho(t, s)

	d := attachUE(t, s, ap1, "ue1", "001010000000402")
	bearer := d.Bearer()
	c, err := transport.Dial(bearer, simnet.Addr{Host: "ott", Port: 7000},
		transport.DialConfig{Mode: transport.Migratory, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("MST over bearer: %v", err)
	}
	defer c.Close()
	if err := c.Send([]byte("through-the-bearer")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv(5 * time.Second)
	if err != nil || string(got) != "through-the-bearer" {
		t.Fatalf("echo = %q %v", got, err)
	}
}

// TestBearerClientCloseIsImmediate: an MST client over a bearer
// receives through the bearer's handler, so Close has no reader to
// join and returns at the instant it is called. Closing the bearer
// hands the downlink back to ReadFrom, which then sees the server's
// answer to the client's CLOSE.
func TestBearerClientCloseIsImmediate(t *testing.T) {
	s, ap1, _ := newWorld(t)
	startEcho(t, s)
	d := attachUE(t, s, ap1, "ue1", "001010000000405")
	c, err := transport.Dial(d.Bearer(), simnet.Addr{Host: "ott", Port: 7000},
		transport.DialConfig{Mode: transport.Migratory, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte("once")); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Recv(5 * time.Second); err != nil || string(got) != "once" {
		t.Fatalf("echo = %q %v", got, err)
	}
	clk := s.Clock()
	before := clk.Now()
	c.Close()
	if took := clk.Since(before); took != 0 {
		t.Fatalf("Client.Close took %v of virtual time, want 0", took)
	}

	b := d.Bearer()
	b.SetReadDeadline(clk.Now().Add(time.Second))
	buf := make([]byte, 256)
	n, _, err := b.ReadFrom(buf)
	if err != nil {
		t.Fatalf("downlink after Close: %v", err)
	}
	if p, err := transport.DecodePacket(buf[:n]); err != nil || p.Type != transport.PktClose {
		t.Errorf("downlink after Close = %+v %v, want the server's CLOSE", p, err)
	}
}

func TestBearerSurvivesRoam(t *testing.T) {
	// The E4 core mechanic: the MST session rides across a re-attach
	// to a different AP (new breakout address) without the application
	// reconnecting.
	s, ap1, ap2 := newWorld(t)
	srv := startEcho(t, s)

	d := attachUE(t, s, ap1, "roamer", "001010000000403")
	if err := s.ConnectUERadio("roamer", "ap2", geo.Pt(2000, 0)); err != nil {
		t.Fatal(err)
	}

	c, err := transport.Dial(d.Bearer(), simnet.Addr{Host: "ott", Port: 7000},
		transport.DialConfig{Mode: transport.Migratory, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Send([]byte("before"))
	if got, err := c.Recv(5 * time.Second); err != nil || string(got) != "before" {
		t.Fatalf("pre-roam echo: %q %v", got, err)
	}

	// Roam: target was prepared over X2; re-attach.
	if _, err := ap2.SyncSubscriberKeys(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Attach(ap2.AirAddr(), 5*time.Second); err != nil {
		t.Fatalf("re-attach: %v", err)
	}
	// Session continues with no application-level reconnect.
	if err := c.Send([]byte("after")); err != nil {
		t.Fatalf("post-roam send: %v", err)
	}
	got, err := c.Recv(5 * time.Second)
	if err != nil || string(got) != "after" {
		t.Fatalf("post-roam echo: %q %v", got, err)
	}
	if st := srv.Stats(); st.FreshHandshakes != 1 || st.Resets != 0 {
		t.Errorf("server saw %+v; migration should not re-handshake", st)
	}
}

func TestBearerDeadline(t *testing.T) {
	s, ap1, _ := newWorld(t)
	d := attachUE(t, s, ap1, "ue1", "001010000000404")
	b := d.Bearer()
	b.SetReadDeadline(s.Clock().Now().Add(30 * time.Millisecond))
	if _, _, err := b.ReadFrom(make([]byte, 16)); err == nil {
		t.Error("deadline read returned data from nowhere")
	}
	b.Close()
	if _, err := b.WriteTo([]byte("x"), simnet.Addr{Host: "ott", Port: 1}); !errors.Is(err, ue.ErrNotAttached) {
		t.Errorf("write after close: %v", err)
	}
}

// echoWorld attaches one UE behind ap1 and starts a handler-mode echo
// server on its own host.
func echoWorld(t *testing.T, imsi string) (*core.Scenario, *core.AccessPoint, *ue.Device, *ott.EchoServer) {
	t.Helper()
	s, ap1, _ := newWorld(t)
	srv, err := ott.NewEchoServer(s.Net.MustAddHost("ott"), 9000)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return s, ap1, attachUE(t, s, ap1, "ue1", imsi), srv
}

// TestBearerRoundTripZeroAlloc gates the user plane end to end at
// steady state: BearerConn.WriteTo → air → GTP → gateway NAT → echo
// handler and back to a BearerConn.ReadFrom that parks on the rx
// mailbox for every reply. Nothing on that path — the parked read
// included — allocates; the round trip is one goroutine park and six
// handler dispatches with no legacy delivery.
func TestBearerRoundTripZeroAlloc(t *testing.T) {
	s, _, d, srv := echoWorld(t, "001010000000405")
	b := d.Bearer()
	var dst net.Addr = simnet.Addr{Host: "ott", Port: 9000}
	payload := bytes.Repeat([]byte("dLTE"), 128)
	buf := make([]byte, 2*len(payload))
	roundTrip := func() {
		if _, err := b.WriteTo(payload, dst); err != nil {
			t.Fatal(err)
		}
		b.SetReadDeadline(s.Clock().Now().Add(time.Second))
		n, from, err := b.ReadFrom(buf)
		if err != nil || !bytes.Equal(buf[:n], payload) || from != dst {
			t.Fatalf("echo = %d bytes from %v, %v", n, from, err)
		}
	}
	for i := 0; i < 64; i++ {
		roundTrip() // warm the pools, the memos and the dispatcher's slab
	}
	const trips = 200
	before := s.Net.ExecStats()
	var allocs float64
	if leaktest.RaceEnabled { // sync.Pool drops items under the detector
		for i := 0; i <= trips; i++ {
			roundTrip()
		}
	} else {
		allocs = testing.AllocsPerRun(trips, roundTrip)
	}
	after := s.Net.ExecStats()
	if allocs != 0 {
		t.Errorf("bearer round trip allocates %v times, want 0", allocs)
	}
	if got := after.GoroutineParks - before.GoroutineParks; got != trips+1 {
		t.Errorf("%d round trips parked %d times, want one each", trips+1, got)
	}
	if got := after.HandlerDispatches - before.HandlerDispatches; got != 6*(trips+1) {
		t.Errorf("%d round trips ran %d handler dispatches, want six each", trips+1, got)
	}
	if got := after.LegacyDeliveries - before.LegacyDeliveries; got != 0 {
		t.Errorf("%d legacy deliveries on the user plane", got)
	}
	if srv.Count() != 64+trips+1 {
		t.Errorf("echo server counted %d", srv.Count())
	}
	if d.RxDrops() != 0 {
		t.Errorf("RxDrops = %d", d.RxDrops())
	}
}

// TestRxOverflowCounted: downlink packets beyond the rx queue's depth
// drop like a full socket buffer — and are counted, so the user plane
// has no silent discard.
func TestRxOverflowCounted(t *testing.T) {
	s, _, d, _ := echoWorld(t, "001010000000406")
	const sent = 300 // the rx queue holds 256
	for i := 0; i < sent; i++ {
		if err := d.Send("ott:9000", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	s.Clock().Sleep(time.Second) // every echo has come back; nobody read
	if got := d.RxDrops(); got != sent-256 {
		t.Errorf("RxDrops = %d, want %d", got, sent-256)
	}
	for i := 0; i < 256; i++ { // the survivors are the oldest, in order
		pkt, err := d.Recv(time.Second)
		if err != nil || len(pkt.Payload) != 1 || pkt.Payload[0] != byte(i) {
			t.Fatalf("packet %d = %v, %v", i, pkt.Payload, err)
		}
	}
	if _, err := d.Recv(10 * time.Millisecond); !errors.Is(err, ue.ErrTimeout) {
		t.Errorf("drained queue Recv = %v, want ErrTimeout", err)
	}
}

// TestParkedRecvSeesAssociationLoss: a reader parked on the rx mailbox
// is woken with ErrDetachedMid the instant the network side drops the
// association, not at its own deadline.
func TestParkedRecvSeesAssociationLoss(t *testing.T) {
	s, ap1, d, _ := echoWorld(t, "001010000000407")
	clk := s.Clock()
	start := clk.Now()
	clk.Go(func() {
		clk.Sleep(50 * time.Millisecond)
		ap1.ENB.Close()
	})
	_, err := d.Recv(time.Minute)
	if !errors.Is(err, ue.ErrDetachedMid) {
		t.Fatalf("Recv across association loss = %v, want ErrDetachedMid", err)
	}
	if waited := clk.Since(start); waited >= time.Second {
		t.Errorf("reader woke after %v: at its deadline, not at the loss", waited)
	}
	if d.Attached() {
		t.Error("device still attached")
	}
	if _, err := d.Recv(time.Second); !errors.Is(err, ue.ErrNotAttached) {
		t.Errorf("Recv with no association = %v, want ErrNotAttached", err)
	}
}
