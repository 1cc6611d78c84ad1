package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"dlte/internal/auth"
	"dlte/internal/geo"
	"dlte/internal/mobility"
	"dlte/internal/radio"
	"dlte/internal/simnet"
	"dlte/internal/ue"
	"dlte/internal/x2"
)

func newScenario(t *testing.T) *Scenario {
	t.Helper()
	s, err := NewScenario(simnet.Link{Latency: 2 * time.Millisecond}, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func addAP(t *testing.T, s *Scenario, id string, x float64, mode x2.Mode) *AccessPoint {
	t.Helper()
	ap, err := s.AddAP(APConfig{
		ID: id, Position: geo.Pt(x, 0), Band: radio.LTEBand5,
		HeightM: 20, EIRPdBm: 58, Mode: mode, TAC: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ap
}

func TestOpenJoinAndDiscovery(t *testing.T) {
	s := newScenario(t)
	ap1 := addAP(t, s, "ap1", 0, x2.ModeFairShare)
	ap2 := addAP(t, s, "ap2", 4000, x2.ModeFairShare)
	addAP(t, s, "far", 500_000, x2.ModeFairShare) // different contention domain

	// The registry reflects open joins.
	if got := len(s.Registry.List(radio.LTEBand5.Name)); got != 3 {
		t.Fatalf("registry records = %d", got)
	}

	domain, err := ap1.DiscoverPeers()
	if err != nil {
		t.Fatal(err)
	}
	if len(domain) != 2 || domain[0] != "ap1" || domain[1] != "ap2" {
		t.Fatalf("ap1 domain = %v", domain)
	}
	if peers := ap1.Peers(); len(peers) != 1 || peers[0] != "ap2" {
		t.Fatalf("ap1 peers = %v", peers)
	}
	// The X2 association is live in both directions.
	if !s.Clock().(*simnet.VirtualClock).WaitUntil(2*time.Second, func() bool { return ap2.Agent.PeerCount() == 1 }) {
		t.Fatal("ap2 never saw the association")
	}
}

func TestFairShareNegotiation(t *testing.T) {
	s := newScenario(t)
	ap1 := addAP(t, s, "ap1", 0, x2.ModeFairShare)
	ap2 := addAP(t, s, "ap2", 3000, x2.ModeFairShare)
	ap3 := addAP(t, s, "ap3", 6000, x2.ModeFairShare)

	if _, err := ap1.DiscoverPeers(); err != nil {
		t.Fatal(err)
	}
	share, err := ap1.NegotiateShares()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(share-1.0/3) > 1e-9 {
		t.Errorf("ap1 share = %v, want 1/3", share)
	}
	// Peers adopt the broadcast pattern (quantized to 1/10000 on the
	// wire).
	ok := s.Clock().(*simnet.VirtualClock).WaitUntil(2*time.Second, func() bool {
		return math.Abs(ap2.Share()-1.0/3) < 1e-3 && math.Abs(ap3.Share()-1.0/3) < 1e-3
	})
	if !ok {
		t.Fatalf("shares not adopted: ap2=%v ap3=%v", ap2.Share(), ap3.Share())
	}
	if math.Abs(ap2.ShareOf("ap1")-1.0/3) > 1e-3 {
		t.Errorf("ap2's view of ap1 = %v", ap2.ShareOf("ap1"))
	}
}

func TestStandaloneAPNoRegistry(t *testing.T) {
	// The paper's Papua deployment: one AP, no registry at all (§5).
	n := simnet.NewVirtualNetwork(simnet.Link{Latency: time.Millisecond}, 1)
	t.Cleanup(n.Close)
	host := n.MustAddHost("solo")
	ap, err := NewAccessPoint(host, APConfig{ID: "solo", Band: radio.LTEBand5, TAC: 9})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ap.Close)
	if err := ap.JoinRegistry(); err == nil {
		t.Error("standalone AP joined a nonexistent registry")
	}
	if _, err := ap.SyncSubscriberKeys(); err == nil {
		t.Error("standalone key sync succeeded without registry")
	}
	if ap.Share() != 1 {
		t.Errorf("standalone share = %v, want 1", ap.Share())
	}
}

func TestEndToEndAttachViaScenario(t *testing.T) {
	s := newScenario(t)
	ap := addAP(t, s, "ap1", 0, x2.ModeFairShare)

	d, err := s.AddUE("ue1", "001010000000201")
	if err != nil {
		t.Fatal(err)
	}
	// The AP learns the published key from the registry.
	if n, err := ap.SyncSubscriberKeys(); err != nil || n != 1 {
		t.Fatalf("key sync: n=%d err=%v", n, err)
	}
	// Radio link: 2 km from the site.
	if err := s.ConnectUERadio("ue1", "ap1", geo.Pt(2000, 0)); err != nil {
		t.Fatal(err)
	}
	res, err := d.Attach(ap.AirAddr(), 5*time.Second)
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	if !res.DirectBreakout {
		t.Error("dLTE AP did not advertise direct breakout")
	}
	if res.IP == "" {
		t.Error("no PDN address")
	}
}

func TestAirLinkFromRadioModel(t *testing.T) {
	near := AirLink(radio.LTEBand5, 1)
	if near.Down || near.BandwidthBps < 1e6 {
		t.Errorf("1 km link = %+v", near)
	}
	mid := AirLink(radio.LTEBand5, 10)
	if mid.Down || mid.BandwidthBps >= near.BandwidthBps {
		t.Errorf("10 km link = %+v (near %v)", mid, near.BandwidthBps)
	}
	dead := AirLink(radio.LTEBand5, 95)
	if !dead.Down {
		t.Errorf("95 km link should be down: %+v", dead)
	}
}

func TestCooperativeSharesFollowLoad(t *testing.T) {
	s := newScenario(t)
	ap1 := addAP(t, s, "ap1", 0, x2.ModeCooperative)
	ap2 := addAP(t, s, "ap2", 3000, x2.ModeCooperative)

	if _, err := ap1.DiscoverPeers(); err != nil {
		t.Fatal(err)
	}
	if !s.Clock().(*simnet.VirtualClock).WaitUntil(2*time.Second, func() bool { return ap2.Agent.PeerCount() == 1 }) {
		t.Fatal("association not established")
	}

	// Load ap1 with three clients, ap2 idle.
	for i := 0; i < 3; i++ {
		imsi := auth.IMSI(fmt.Sprintf("0010100000003%02d", i))
		d, err := s.AddUE(fmt.Sprintf("ue%d", i), imsi)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ap1.SyncSubscriberKeys(); err != nil {
			t.Fatal(err)
		}
		if err := s.ConnectUERadio(fmt.Sprintf("ue%d", i), "ap1", geo.Pt(500, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Attach(ap1.AirAddr(), 5*time.Second); err != nil {
			t.Fatalf("ue%d attach: %v", i, err)
		}
	}

	// Both APs advertise load, then ap1 negotiates.
	if err := ap2.AdvertiseLoad(); err != nil {
		t.Fatal(err)
	}
	if err := ap1.AdvertiseLoad(); err != nil {
		t.Fatal(err)
	}
	ok := s.Clock().(*simnet.VirtualClock).WaitUntil(2*time.Second, func() bool {
		share, err := ap1.NegotiateShares()
		return err == nil && share > 0.9
	})
	if !ok {
		t.Fatalf("cooperative share for loaded AP = %v, want ≈1 (3 UEs vs 0)", ap1.Share())
	}
	if !s.Clock().(*simnet.VirtualClock).WaitUntil(2*time.Second, func() bool { return ap2.Share() < 0.1 }) {
		t.Errorf("idle AP share = %v, want ≈0", ap2.Share())
	}
}

func TestRoamingWithHandoverPrep(t *testing.T) {
	s := newScenario(t)
	ap1 := addAP(t, s, "ap1", 0, x2.ModeCooperative)
	ap2 := addAP(t, s, "ap2", 3000, x2.ModeCooperative)
	if _, err := ap1.DiscoverPeers(); err != nil {
		t.Fatal(err)
	}
	if !s.Clock().(*simnet.VirtualClock).WaitUntil(2*time.Second, func() bool { return ap2.Agent.PeerCount() == 1 }) {
		t.Fatal("association not established")
	}

	d, err := s.AddUE("roamer", "001010000000250")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ap1.SyncSubscriberKeys(); err != nil {
		t.Fatal(err)
	}
	s.ConnectUERadio("roamer", "ap1", geo.Pt(1000, 0))
	s.ConnectUERadio("roamer", "ap2", geo.Pt(2000, 0))

	if _, err := d.Attach(ap1.AirAddr(), 5*time.Second); err != nil {
		t.Fatalf("initial attach: %v", err)
	}
	ip1 := d.IP()

	// Source AP prepares the target over X2 (pushes the published
	// key), then the UE re-attaches at the target.
	if err := ap1.Mobility.Prepare("ap2", d.Publication(), -101.5); err != nil {
		t.Fatal(err)
	}
	if !s.Clock().(*simnet.VirtualClock).WaitUntil(2*time.Second, func() bool {
		_, ok := ap2.Mobility.PreparedBy(d.IMSI())
		return ok
	}) {
		t.Fatal("target AP never saw the context push")
	}
	src, _ := ap2.Mobility.PreparedBy(d.IMSI())
	if src != "ap1" {
		t.Errorf("prepared by %q", src)
	}

	res, err := d.Attach(ap2.AirAddr(), 5*time.Second)
	if err != nil {
		t.Fatalf("re-attach at target: %v", err)
	}
	// dLTE mobility: the IP address changes — continuity is the
	// transport layer's job (E4 measures that).
	if res.IP == ip1 && ip1 != "" {
		t.Logf("note: IPs collided across APs (%s); allowed but rare", ip1)
	}
	if err := ap2.Mobility.NotifyComplete("ap1", d.IMSI()); err != nil {
		t.Fatal(err)
	}
	// Source cleans up its session.
	if !s.Clock().(*simnet.VirtualClock).WaitUntil(2*time.Second, func() bool {
		return ap1.Core.Gateway().NumSessions() == 0
	}) {
		t.Errorf("source sessions = %d, want 0", ap1.Core.Gateway().NumSessions())
	}
}

func TestAttachSurvivesRadioFlap(t *testing.T) {
	// Failure injection: the radio link dies mid-attach; the attach
	// times out cleanly and succeeds on retry after the link recovers.
	s := newScenario(t)
	ap := addAP(t, s, "ap1", 0, x2.ModeFairShare)
	d, err := s.AddUE("flappy", "001010000000260")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ap.SyncSubscriberKeys(); err != nil {
		t.Fatal(err)
	}
	if err := s.ConnectUERadio("flappy", "ap1", geo.Pt(1000, 0)); err != nil {
		t.Fatal(err)
	}

	// Cut the link shortly after the attach starts.
	clk := s.Clock()
	clk.Go(func() {
		clk.Sleep(20 * time.Millisecond)
		s.Net.SetLinkDown("flappy", "ap1", true)
	})
	if _, err := d.Attach(ap.AirAddr(), 700*time.Millisecond); err == nil {
		t.Log("attach won the race against the flap (acceptable)")
	}

	// Restore and retry: must succeed.
	s.Net.SetLinkDown("flappy", "ap1", false)
	res, err := d.Attach(ap.AirAddr(), 10*time.Second)
	if err != nil {
		t.Fatalf("attach after link restore: %v", err)
	}
	if res.IP == "" {
		t.Error("no IP after recovery")
	}
}

func TestUEFailsOverToSurvivingAP(t *testing.T) {
	// Failure injection: the serving AP dies entirely; the client
	// scans, picks the strongest survivor, and re-attaches.
	s := newScenario(t)
	ap1 := addAP(t, s, "ap1", 0, x2.ModeFairShare)
	ap2 := addAP(t, s, "ap2", 4000, x2.ModeFairShare)

	d, err := s.AddUE("survivor", "001010000000261")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ap1.SyncSubscriberKeys(); err != nil {
		t.Fatal(err)
	}
	if _, err := ap2.SyncSubscriberKeys(); err != nil {
		t.Fatal(err)
	}
	uePos := geo.Pt(1500, 0)
	s.ConnectUERadio("survivor", "ap1", uePos)
	s.ConnectUERadio("survivor", "ap2", uePos)
	if _, err := d.Attach(ap1.AirAddr(), 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// The serving AP dies (power loss at the site).
	ap1.Close()

	// Scan and fail over — cell selection ranks the survivor.
	ranked := s.RankAPs(uePos)
	var target *AccessPoint
	for _, sig := range ranked {
		if sig.ID == "ap1" || !sig.Usable {
			continue
		}
		target = s.AP(sig.ID)
		break
	}
	if target == nil {
		t.Fatal("no surviving AP found in scan")
	}
	res, err := d.Attach(target.AirAddr(), 10*time.Second)
	if err != nil {
		t.Fatalf("failover attach: %v", err)
	}
	if res.IP == "" {
		t.Error("no IP after failover")
	}
	if _, err := d.Attach(ap1.AirAddr(), 500*time.Millisecond); err == nil {
		t.Error("attach to the dead AP succeeded")
	}
	// Recover the session for cleanliness.
	if _, err := d.Attach(target.AirAddr(), 10*time.Second); err != nil {
		t.Fatalf("re-attach after dead-AP probe: %v", err)
	}
}

func TestRankAPsAndBestAP(t *testing.T) {
	s := newScenario(t)
	addAP(t, s, "near", 0, x2.ModeFairShare)
	addAP(t, s, "far", 10_000, x2.ModeFairShare)
	addAP(t, s, "dead", 400_000, x2.ModeFairShare)

	uePos := geo.Pt(1000, 0)
	ranked := s.RankAPs(uePos)
	if len(ranked) != 3 {
		t.Fatalf("ranked %d APs", len(ranked))
	}
	if ranked[0].ID != "near" || ranked[1].ID != "far" {
		t.Errorf("ranking = %v", ranked)
	}
	if ranked[0].RSRPdBm <= ranked[1].RSRPdBm {
		t.Errorf("RSRP not descending: %v", ranked)
	}
	if ranked[2].Usable {
		t.Error("400 km AP marked usable")
	}
	best, ok := s.BestAP(uePos)
	if !ok || best.ID() != "near" {
		t.Errorf("BestAP = %v ok=%v", best, ok)
	}
	// Mid-point between near and far leans to the closer one; a point
	// past "far" selects it.
	best, _ = s.BestAP(geo.Pt(11_000, 0))
	if best.ID() != "far" {
		t.Errorf("BestAP at 11 km = %s", best.ID())
	}
}

func TestBestAPNoneUsable(t *testing.T) {
	s := newScenario(t)
	addAP(t, s, "lonely", 0, x2.ModeFairShare)
	if _, ok := s.BestAP(geo.Pt(500_000, 0)); ok {
		t.Error("found a usable AP 500 km away")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	s := newScenario(t)
	ap := addAP(t, s, "ap9", 1234, x2.ModeCooperative)
	rec := ap.Record()
	if rec.ID != "ap9" || rec.X != 1234 || rec.Mode != "cooperative" || rec.X2Addr != "ap9:36422" {
		t.Errorf("record = %+v", rec)
	}
	got, ok := s.Registry.Get("ap9")
	if !ok || got.X2Addr != rec.X2Addr {
		t.Errorf("registry copy = %+v ok=%v", got, ok)
	}
}

// roamPair builds two associated cooperative APs with a UE attached at
// the first, radio-visible to both — the starting point of every
// handover failure-path test.
func roamPair(t *testing.T, imsi string) (*Scenario, *AccessPoint, *AccessPoint, *ue.Device) {
	t.Helper()
	s := newScenario(t)
	ap1 := addAP(t, s, "ap1", 0, x2.ModeCooperative)
	ap2 := addAP(t, s, "ap2", 3000, x2.ModeCooperative)
	if _, err := ap1.DiscoverPeers(); err != nil {
		t.Fatal(err)
	}
	if !s.Clock().(*simnet.VirtualClock).WaitUntil(2*time.Second, func() bool { return ap2.Agent.PeerCount() == 1 }) {
		t.Fatal("association not established")
	}
	d, err := s.AddUE("roamer", auth.IMSI(imsi))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ap1.SyncSubscriberKeys(); err != nil {
		t.Fatal(err)
	}
	s.ConnectUERadio("roamer", "ap1", geo.Pt(1000, 0))
	s.ConnectUERadio("roamer", "ap2", geo.Pt(2000, 0))
	if _, err := d.Attach(ap1.AirAddr(), 5*time.Second); err != nil {
		t.Fatalf("initial attach: %v", err)
	}
	return s, ap1, ap2, d
}

func TestHandoverTargetRejects(t *testing.T) {
	// Failure path: the target's admission policy refuses the UE. The
	// source must land in REJECTED with the target's cause, the target
	// must not keep a prepared context, and the UE stays attached and
	// served at the source — a refused handover is not an outage.
	s, ap1, ap2, d := roamPair(t, "001010000000270")
	ap2.Mobility.SetAdmit(func(imsi, sourceAP string, rsrpDBm float64) (bool, uint8) {
		return false, 42
	})
	if err := ap1.Mobility.Prepare("ap2", d.Publication(), -101); err != nil {
		t.Fatal(err)
	}
	if !s.Clock().(*simnet.VirtualClock).WaitUntil(2*time.Second, func() bool {
		return ap1.Mobility.State(d.IMSI()) == mobility.StateRejected
	}) {
		t.Fatalf("source state = %v, want REJECTED", ap1.Mobility.State(d.IMSI()))
	}
	if c := ap1.Mobility.RejectionCause(d.IMSI()); c != 42 {
		t.Errorf("cause = %d, want 42", c)
	}
	if _, ok := ap2.Mobility.PreparedBy(d.IMSI()); ok {
		t.Error("rejected UE still prepared at target")
	}
	// The session at the source is intact and service continues.
	if n := ap1.Core.Gateway().NumSessions(); n != 1 {
		t.Errorf("source sessions = %d, want 1", n)
	}
	if _, err := d.Attach(ap1.AirAddr(), 5*time.Second); err != nil {
		t.Errorf("UE lost service after rejected handover: %v", err)
	}
}

func TestHandoverSourceDiesMidPrepare(t *testing.T) {
	// Failure path: the source AP dies after pushing the UE context but
	// before the handover finishes. The UE must still land at the
	// prepared target, and the target's NotifyComplete must retire the
	// prepared entry even though the source is unreachable — nothing
	// strands.
	s, ap1, ap2, d := roamPair(t, "001010000000271")
	if err := ap1.Mobility.Prepare("ap2", d.Publication(), -101); err != nil {
		t.Fatal(err)
	}
	if !s.Clock().(*simnet.VirtualClock).WaitUntil(2*time.Second, func() bool {
		_, ok := ap2.Mobility.PreparedBy(d.IMSI())
		return ok
	}) {
		t.Fatal("context push never landed at target")
	}

	// The source dies: registry record gone, X2 agent and air side shut.
	ap1.Close()

	if _, err := d.Attach(ap2.AirAddr(), 5*time.Second); err != nil {
		t.Fatalf("re-attach at prepared target after source death: %v", err)
	}
	if n := ap2.Core.Gateway().NumSessions(); n != 1 {
		t.Fatalf("target sessions = %d, want 1", n)
	}
	// Completing toward a dead source may error — but the prepared
	// entry must be retired regardless, or the context leaks forever.
	if err := ap2.Mobility.NotifyComplete("ap1", d.IMSI()); err != nil {
		t.Logf("notify toward dead source failed as expected: %v", err)
	}
	if _, ok := ap2.Mobility.PreparedBy(d.IMSI()); ok {
		t.Error("prepared entry survived NotifyComplete — stranded context")
	}
	// The UE's session at the living AP is untouched by the failure.
	if n := ap2.Core.Gateway().NumSessions(); n != 1 {
		t.Errorf("target sessions after notify = %d, want 1", n)
	}
}

func TestHandoverDuplicateComplete(t *testing.T) {
	// Failure path: the target retransmits HandoverComplete (its first
	// notify looked lost). The source must tear the session down exactly
	// once, end in COMPLETED, and shrug off the duplicate.
	s, ap1, ap2, d := roamPair(t, "001010000000272")
	if err := ap1.Mobility.Prepare("ap2", d.Publication(), -101); err != nil {
		t.Fatal(err)
	}
	if !s.Clock().(*simnet.VirtualClock).WaitUntil(2*time.Second, func() bool {
		return ap1.Mobility.State(d.IMSI()) == mobility.StatePrepared
	}) {
		t.Fatalf("source state = %v, want PREPARED", ap1.Mobility.State(d.IMSI()))
	}
	if _, err := d.Attach(ap2.AirAddr(), 5*time.Second); err != nil {
		t.Fatalf("re-attach at target: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := ap2.Mobility.NotifyComplete("ap1", d.IMSI()); err != nil {
			t.Fatalf("notify %d: %v", i+1, err)
		}
	}
	if !s.Clock().(*simnet.VirtualClock).WaitUntil(2*time.Second, func() bool {
		return ap1.Core.Gateway().NumSessions() == 0 &&
			ap1.Mobility.State(d.IMSI()) == mobility.StateCompleted
	}) {
		t.Fatalf("after duplicate completes: sessions=%d state=%v",
			ap1.Core.Gateway().NumSessions(), ap1.Mobility.State(d.IMSI()))
	}
	// Both sides settled: target serves the UE, source holds nothing.
	if n := ap2.Core.Gateway().NumSessions(); n != 1 {
		t.Errorf("target sessions = %d, want 1", n)
	}
}
