package nas

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dlte/internal/auth"
	"dlte/internal/session"
	"dlte/internal/wire"
)

func testSIM(t *testing.T, imsi string) auth.SIM {
	t.Helper()
	sim, err := auth.NewSIM(auth.IMSI(imsi))
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func testNetwork(t *testing.T, hss *auth.SubscriberDB) *NetworkSession {
	t.Helper()
	ipCounter := 0
	gutiCounter := uint64(0x1000)
	return NewNetworkSession(NetworkConfig{
		HSS:              hss,
		ServingNetworkID: "dlte-ap-1",
		TrackingArea:     42,
		DirectBreakout:   true,
		AllocateIP: func(string) (string, error) {
			ipCounter++
			return fmt.Sprintf("198.51.100.%d", ipCounter), nil
		},
		AllocateGUTI: func() uint64 { gutiCounter++; return gutiCounter },
		KnownGUTI:    func(g uint64) bool { return g == 0x1001 },
	})
}

// runAttach drives the full attach handshake between a UE and a
// network session, returning the message-type trace.
func runAttach(t *testing.T, ue *UE, net *NetworkSession) []string {
	t.Helper()
	var trace []string
	up, err := ue.StartAttach("dlte-ap-1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		trace = append(trace, "UL:"+decode(up).Type.String())
		down, ev, err := net.Handle(up)
		if err != nil {
			t.Fatalf("network handle: %v", err)
		}
		if ev.Kind == EventRegistered {
			return trace
		}
		if down == nil {
			t.Fatal("network went silent mid-attach")
		}
		trace = append(trace, "DL:"+decode(down).Type.String())
		reply, _, err := ue.Handle(down)
		if err != nil {
			t.Fatalf("UE handle: %v", err)
		}
		if reply == nil {
			t.Fatal("UE went silent mid-attach")
		}
		up = reply
	}
	t.Fatal("attach did not converge")
	return nil
}

func TestAttachHappyPath(t *testing.T) {
	sim := testSIM(t, "001010000000001")
	hss := auth.NewSubscriberDB(false)
	if err := hss.Provision(sim); err != nil {
		t.Fatal(err)
	}
	ue, err := NewUE(sim)
	if err != nil {
		t.Fatal(err)
	}
	net := testNetwork(t, hss)

	trace := runAttach(t, ue, net)
	want := []string{
		"UL:AttachRequest",
		"DL:AuthenticationRequest",
		"UL:AuthenticationResponse",
		"DL:Secured", // SecurityModeCommand
		"UL:Secured", // SecurityModeComplete
		"DL:Secured", // AttachAccept
		"UL:Secured", // AttachComplete
	}
	if strings.Join(trace, ",") != strings.Join(want, ",") {
		t.Errorf("trace = %v, want %v", trace, want)
	}
	if ue.State() != UERegistered || net.State() != session.Attached {
		t.Errorf("states: ue=%v net=%v", ue.State(), net.State())
	}
	if ue.IPAddress == "" || ue.IPAddress != net.IP() {
		t.Errorf("IP mismatch: ue=%q net=%q", ue.IPAddress, net.IP())
	}
	if ue.GUTI != net.GUTI() || ue.GUTI == 0 {
		t.Errorf("GUTI mismatch: ue=%#x net=%#x", ue.GUTI, net.GUTI())
	}
	if !ue.Breakout {
		t.Error("UE did not learn direct-breakout flag")
	}
	if ue.TrackingArea != 42 {
		t.Errorf("TA = %d", ue.TrackingArea)
	}
}

func TestAttachUnknownIMSIRejected(t *testing.T) {
	sim := testSIM(t, "001010000000002")
	hss := auth.NewSubscriberDB(false) // empty closed HSS
	ue, _ := NewUE(sim)
	net := testNetwork(t, hss)

	up, _ := ue.StartAttach("dlte-ap-1")
	down, ev, err := net.Handle(up)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EventRejected {
		t.Errorf("event = %v, want EventRejected", ev.Kind)
	}
	_, _, err = ue.Handle(down)
	if err == nil || !strings.Contains(err.Error(), "attach rejected") {
		t.Errorf("UE error = %v", err)
	}
	if ue.State() != UEDeregistered {
		t.Errorf("UE state = %v", ue.State())
	}
}

func TestAttachWrongKeyFailsAuth(t *testing.T) {
	// HSS has the IMSI provisioned with different key material (e.g. a
	// spoofed identity): the UE's mutual auth must reject the network's
	// challenge, because the MAC won't verify.
	simReal := testSIM(t, "001010000000003")
	simFake := testSIM(t, "001010000000003") // same IMSI, different keys
	hss := auth.NewSubscriberDB(false)
	if err := hss.Provision(simFake); err != nil {
		t.Fatal(err)
	}
	ue, _ := NewUE(simReal)
	net := testNetwork(t, hss)

	up, _ := ue.StartAttach("dlte-ap-1")
	down, _, err := net.Handle(up)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = ue.Handle(down)
	if !errors.Is(err, auth.ErrMACFailure) {
		t.Errorf("want MAC failure, got %v", err)
	}
}

func TestNetworkRejectsWrongRES(t *testing.T) {
	sim := testSIM(t, "001010000000004")
	hss := auth.NewSubscriberDB(false)
	hss.Provision(sim)
	ue, _ := NewUE(sim)
	net := testNetwork(t, hss)

	up, _ := ue.StartAttach("dlte-ap-1")
	if _, _, err := net.Handle(up); err != nil {
		t.Fatal(err)
	}
	// Forge a RES instead of running the SIM.
	forged, _ := marshal(MsgView{Type: TypeAuthenticationResponse, RES: []byte{9, 9, 9, 9, 9, 9, 9, 9}})
	down, ev, err := net.Handle(forged)
	if err == nil || !errors.Is(err, auth.ErrResMismatch) {
		t.Errorf("want ErrResMismatch, got %v", err)
	}
	if ev.Kind != EventAuthFailed {
		t.Errorf("event = %v, want EventAuthFailed", ev.Kind)
	}
	if down == nil {
		t.Error("no AuthenticationReject sent")
	}
}

func TestDetachFlow(t *testing.T) {
	sim := testSIM(t, "001010000000005")
	hss := auth.NewSubscriberDB(false)
	hss.Provision(sim)
	ue, _ := NewUE(sim)
	net := testNetwork(t, hss)
	runAttach(t, ue, net)

	up, err := ue.StartDetach()
	if err != nil {
		t.Fatal(err)
	}
	down, ev, err := net.Handle(up)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EventDetached {
		t.Errorf("event = %v", ev.Kind)
	}
	_, done, err := ue.Handle(down)
	if err != nil || !done {
		t.Fatalf("detach accept: done=%v err=%v", done, err)
	}
	if ue.State() != UEDeregistered || net.State() != session.Detached {
		t.Errorf("states after detach: ue=%v net=%v", ue.State(), net.State())
	}
}

func TestReattachAfterDetach(t *testing.T) {
	// The same UE can attach again (SQN advances past previous).
	sim := testSIM(t, "001010000000006")
	hss := auth.NewSubscriberDB(false)
	hss.Provision(sim)
	ue, _ := NewUE(sim)

	net1 := testNetwork(t, hss)
	runAttach(t, ue, net1)
	ip1 := ue.IPAddress

	// Roam: fresh attach at a different AP (fresh session, same HSS —
	// in dLTE the published key would be in both APs' stubs).
	net2 := testNetwork(t, hss)
	runAttach(t, ue, net2)
	if ue.IPAddress == "" {
		t.Fatal("no IP after re-attach")
	}
	_ = ip1 // addresses may collide across independent APs; that's fine
}

func TestTAUAcceptAndReject(t *testing.T) {
	sim := testSIM(t, "001010000000007")
	hss := auth.NewSubscriberDB(false)
	hss.Provision(sim)
	ue, _ := NewUE(sim)
	net := testNetwork(t, hss)
	runAttach(t, ue, net)

	// testNetwork knows GUTI 0x1001, which is what the first attach
	// allocated.
	up, err := ue.StartTAU(43)
	if err != nil {
		t.Fatal(err)
	}
	down, _, err := net.Handle(up)
	if err != nil {
		t.Fatal(err)
	}
	_, done, err := ue.Handle(down)
	if err != nil || !done {
		t.Fatalf("TAU accept: done=%v err=%v", done, err)
	}
	if ue.TrackingArea != 43 {
		t.Errorf("TA after TAU = %d", ue.TrackingArea)
	}

	// A foreign AP has no GUTI context: TAU is rejected and the UE
	// falls back to deregistered (fresh attach follows).
	foreign := testNetwork(t, hss)
	foreignCfg := foreign.cfg
	foreignCfg.KnownGUTI = func(uint64) bool { return false }
	foreign = NewNetworkSession(foreignCfg)
	up, _ = ue.StartTAU(44)
	down, _, err = foreign.Handle(up)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = ue.Handle(down)
	if err == nil || !strings.Contains(err.Error(), "TAU rejected") {
		t.Errorf("TAU reject error = %v", err)
	}
	if ue.State() != UEDeregistered {
		t.Errorf("UE state after TAU reject = %v", ue.State())
	}
}

func TestAttachWithSQNResync(t *testing.T) {
	// The roaming-desync flow end to end: the UE's SQN is far ahead of
	// this core's HSS; the first challenge fails sync, the UE returns
	// AUTS, the network resynchronizes and re-challenges, and the
	// attach completes.
	sim := testSIM(t, "001010000000020")
	hss := auth.NewSubscriberDB(true)
	hss.Provision(sim)
	ue, _ := NewUE(sim)
	// Skew the UE's SQN far ahead of this HSS (as accumulated roaming
	// across future-dated cores would).
	ue.ueCtx.HighestSQN = 1 << 46
	net := testNetwork(t, hss)

	trace := runAttach(t, ue, net)
	joined := strings.Join(trace, ",")
	if !strings.Contains(joined, "UL:AuthenticationFailure") {
		t.Fatalf("no resync in trace: %v", trace)
	}
	if ue.State() != UERegistered {
		t.Fatalf("UE state = %v after resync attach", ue.State())
	}
}

func TestResyncLoopGuard(t *testing.T) {
	// A UE that keeps failing sync (malicious or broken) is rejected
	// after one resync attempt rather than looping forever.
	sim := testSIM(t, "001010000000021")
	hss := auth.NewSubscriberDB(true)
	hss.Provision(sim)
	net := testNetwork(t, hss)

	att, _ := marshal(MsgView{Type: TypeAttachRequest, IMSI: []byte(sim.IMSI)})
	if _, _, err := net.Handle(att); err != nil {
		t.Fatal(err)
	}
	fail, _ := marshal(MsgView{Type: TypeAuthenticationFailure, Cause: CauseSyncFailure, AUTS: make([]byte, 14)})
	// First resync attempt: bad AUTS → rejected immediately.
	down, ev, err := net.Handle(fail)
	if err == nil {
		t.Error("forged AUTS accepted")
	}
	if down == nil || ev.Kind != EventAuthFailed {
		t.Errorf("expected rejection, got ev=%v", ev.Kind)
	}
}

func TestSecuredEnvelopeTamperDetected(t *testing.T) {
	sim := testSIM(t, "001010000000008")
	hss := auth.NewSubscriberDB(false)
	hss.Provision(sim)
	ue, _ := NewUE(sim)
	net := testNetwork(t, hss)

	up, _ := ue.StartAttach("dlte-ap-1")
	down, _, _ := net.Handle(up)  // auth request
	up, _, err := ue.Handle(down) // auth response
	if err != nil {
		t.Fatal(err)
	}
	down, _, err = net.Handle(up) // SMC (secured)
	if err != nil {
		t.Fatal(err)
	}
	down[len(down)-1] ^= 0xFF // tamper with the inner message
	if _, _, err := ue.Handle(down); !errors.Is(err, ErrBadMAC) {
		t.Errorf("tampered SMC: want ErrBadMAC, got %v", err)
	}
}

func TestSecurityContextReplay(t *testing.T) {
	var a, b SecurityContext
	kasme := make([]byte, 32)
	a.Activate(kasme)
	b.Activate(kasme)
	env, err := a.sealMsg(nil, &MsgView{Type: TypeAttachComplete})
	if err != nil {
		t.Fatal(err)
	}
	v := decode(env)
	if err := b.OpenView(v.Count, v.MAC[:], v.Inner); err != nil {
		t.Fatal(err)
	}
	if err := b.OpenView(v.Count, v.MAC[:], v.Inner); !errors.Is(err, ErrReplay) {
		t.Errorf("replay: want ErrReplay, got %v", err)
	}
}

func TestSecurityContextInactive(t *testing.T) {
	var c SecurityContext
	if _, err := c.sealMsg(nil, &MsgView{Type: TypeAttachComplete}); err == nil {
		t.Error("seal on inactive context succeeded")
	}
	if err := c.OpenView(0, nil, nil); err == nil {
		t.Error("open on inactive context succeeded")
	}
}

func TestAllMessageCodecsRoundTrip(t *testing.T) {
	for _, m := range allMessages() {
		b, err := Append(nil, &m)
		if err != nil {
			t.Fatalf("%s: marshal: %v", m.Type, err)
		}
		var got MsgView
		if err := DecodeView(b, &got); err != nil {
			t.Fatalf("%s: decode: %v", m.Type, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s decoded as %+v", m.Type, got)
		}
		b2, err := Append(nil, &got)
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", m.Type, err)
		}
		if string(b) != string(b2) {
			t.Errorf("%s: round trip not stable", m.Type)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	var v MsgView
	if err := DecodeView([]byte{200}, &v); !errors.Is(err, ErrUnknownMessage) {
		t.Errorf("unknown type: %v", err)
	}
	if err := DecodeView([]byte{byte(TypeAttachAccept), 1}, &v); err == nil {
		t.Error("truncated AttachAccept decoded")
	}
	if err := DecodeView(nil, &v); err == nil {
		t.Error("empty buffer decoded")
	}
	if _, err := Append(nil, &MsgView{Type: 200}); !errors.Is(err, ErrUnknownMessage) {
		t.Errorf("encode unknown type: %v", err)
	}
	if _, err := Append(nil, &MsgView{Type: TypeAuthenticationResponse, RES: make([]byte, 256)}); !errors.Is(err, wire.ErrOverflow) {
		t.Errorf("256-byte RES: %v", err)
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for tt := TypeAttachRequest; tt <= TypeSecured; tt++ {
		if s := tt.String(); strings.HasPrefix(s, "MsgType(") {
			t.Errorf("missing name for type %d", tt)
		}
	}
	if MsgType(99).String() != "MsgType(99)" {
		t.Error("unknown type string wrong")
	}
}

func TestStateStrings(t *testing.T) {
	for s := UEDeregistered; s <= UERegistered; s++ {
		if strings.HasPrefix(s.String(), "UEState(") {
			t.Errorf("missing UE state name %d", s)
		}
	}
	// Network-side lifecycle state strings are covered by the session
	// package's own tests.
	if UEState(9).String() == "" {
		t.Error("unknown states must still render")
	}
}

func TestUEGuards(t *testing.T) {
	sim := testSIM(t, "001010000000009")
	ue, _ := NewUE(sim)
	if _, err := ue.StartDetach(); !errors.Is(err, ErrUnexpectedMessage) {
		t.Errorf("detach while deregistered: %v", err)
	}
	if _, err := ue.StartTAU(1); !errors.Is(err, ErrUnexpectedMessage) {
		t.Errorf("TAU while deregistered: %v", err)
	}
	// AttachAccept before authentication is rejected.
	acc, _ := marshal(MsgView{Type: TypeAttachAccept})
	if _, _, err := ue.Handle(acc); err == nil {
		t.Error("accept in deregistered state processed")
	}
}

func TestNetworkGuards(t *testing.T) {
	hss := auth.NewSubscriberDB(false)
	net := testNetwork(t, hss)
	resp, _ := marshal(MsgView{Type: TypeAuthenticationResponse, RES: make([]byte, 8)})
	if _, _, err := net.Handle(resp); !errors.Is(err, session.ErrIllegalTransition) {
		t.Errorf("auth response in idle: %v", err)
	}
	det, _ := marshal(MsgView{Type: TypeDetachRequest})
	if _, _, err := net.Handle(det); err == nil {
		t.Error("clear detach in idle processed")
	}
}

// marshal encodes v with Append into a fresh buffer.
func marshal(v MsgView) ([]byte, error) { return Append(nil, &v) }

// decode parses b, returning the zero view on error.
func decode(b []byte) MsgView {
	var v MsgView
	DecodeView(b, &v)
	return v
}

// allMessages is one instance of every NAS message type.
func allMessages() []MsgView {
	return []MsgView{
		{Type: TypeAttachRequest, IMSI: []byte("001019999999999"), UECapabilities: []byte("cat4"), FollowOnData: true},
		{Type: TypeAuthenticationRequest, RAND: make([]byte, 16), AUTN: make([]byte, 16)},
		{Type: TypeAuthenticationResponse, RES: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Type: TypeAuthenticationReject, Cause: CauseAuthFailure},
		{Type: TypeSecurityModeCommand, IntegrityAlg: 1, CipherAlg: 2},
		{Type: TypeSecurityModeComplete},
		{Type: TypeAttachAccept, GUTI: 0xDEAD, TrackingArea: 7, EBI: 5, PDNAddress: []byte("10.0.0.9"), DirectBreakout: true},
		{Type: TypeAttachComplete},
		{Type: TypeAttachReject, Cause: CauseCongestion},
		{Type: TypeDetachRequest, GUTI: 99},
		{Type: TypeDetachAccept},
		{Type: TypeTAURequest, GUTI: 5, TrackingArea: 9},
		{Type: TypeTAUAccept, TrackingArea: 9},
		{Type: TypeTAUReject, Cause: CauseIllegalUE},
		{Type: TypeSecured, Count: 3, MAC: [4]byte{1, 2, 3, 4}, Inner: []byte{5, 6}},
		{Type: TypeAuthenticationFailure, Cause: CauseSyncFailure, AUTS: make([]byte, 14)},
	}
}
