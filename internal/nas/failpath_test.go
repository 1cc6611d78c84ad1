package nas

import (
	"errors"
	"strings"
	"testing"

	"dlte/internal/auth"
	"dlte/internal/session"
)

// TestAttachAcceptBuildFailureRejects drives an attach whose
// AttachAccept cannot be serialized (the allocator hands back a PDN
// address longer than the wire format's length-8 field). The regression
// this pins: the session used to return the error with no downlink and
// no FSM event, stranding the UE in limbo and the context in Attaching
// forever. Now the session must fail over to a clear AttachReject,
// surface EventRejected so the EPC releases state, and land in
// Detached.
func TestAttachAcceptBuildFailureRejects(t *testing.T) {
	sim := testSIM(t, "001010000000030")
	hss := auth.NewSubscriberDB(false)
	hss.Provision(sim)
	ue, _ := NewUE(sim)

	cfg := testNetwork(t, hss).cfg
	cfg.AllocateIP = func(string) (string, error) {
		return strings.Repeat("x", 300), nil // overflows String8
	}
	net := NewNetworkSession(cfg)

	up, _ := ue.StartAttach("dlte-ap-1")
	down, _, err := net.Handle(up) // AuthenticationRequest
	if err != nil {
		t.Fatal(err)
	}
	up, _, err = ue.Handle(down) // AuthenticationResponse
	if err != nil {
		t.Fatal(err)
	}
	down, _, err = net.Handle(up) // SecurityModeCommand
	if err != nil {
		t.Fatal(err)
	}
	up, _, err = ue.Handle(down) // SecurityModeComplete
	if err != nil {
		t.Fatal(err)
	}

	down, ev, err := net.Handle(up) // accept build fails here
	if err == nil {
		t.Fatal("oversized PDN address serialized successfully")
	}
	if ev.Kind != EventRejected {
		t.Errorf("event = %v, want EventRejected", ev.Kind)
	}
	if net.State() != session.Detached {
		t.Errorf("network state = %v, want Detached (no stranded context)", net.State())
	}
	if down == nil {
		t.Fatal("no downlink: UE left hanging with no reject")
	}
	var m MsgView
	if derr := DecodeView(down, &m); derr != nil || m.Type != TypeAttachReject {
		t.Fatalf("downlink = %v (err %v), want clear AttachReject", m.Type, derr)
	}
	if _, _, uerr := ue.Handle(down); uerr == nil ||
		!strings.Contains(uerr.Error(), "attach rejected") {
		t.Errorf("UE reject handling = %v", uerr)
	}
}

// TestDetachSealFailureStillReleases pins the detach half of the same
// bug: when the DetachAccept cannot be sealed, the session must still
// surface EventDetached (the FSM is already Detached by then) so the
// EPC releases the context — the UE's retransmission covers the lost
// accept. White-box: drive the FSM to Attached with security never
// activated, so sealing the accept fails.
func TestDetachSealFailureStillReleases(t *testing.T) {
	hss := auth.NewSubscriberDB(false)
	net := testNetwork(t, hss)
	for _, ev := range []session.Event{
		session.EvAttachRequest, session.EvAuthSuccess,
		session.EvSecurityComplete, session.EvAttachComplete,
	} {
		if _, err := net.FSM().Fire(ev); err != nil {
			t.Fatal(err)
		}
	}

	det, _ := marshal(MsgView{Type: TypeDetachRequest, GUTI: 7})
	down, ev, err := net.Handle(det)
	if err == nil {
		t.Fatal("seal on inactive security context succeeded")
	}
	if ev.Kind != EventDetached {
		t.Errorf("event = %v, want EventDetached despite seal failure", ev.Kind)
	}
	if ev.GUTI != 7 {
		t.Errorf("event GUTI = %d, want 7", ev.GUTI)
	}
	if down != nil {
		t.Errorf("unexpected downlink %x", down)
	}
	if net.State() != session.Detached {
		t.Errorf("network state = %v, want Detached", net.State())
	}
}

// TestNetworkIllegalTransitions covers the FSM guard on every uplink
// that fires an event: out-of-order messages must return a typed
// *session.TransitionError and change nothing.
func TestNetworkIllegalTransitions(t *testing.T) {
	hss := auth.NewSubscriberDB(false)
	cases := []struct {
		name string
		msg  MsgView
	}{
		{"auth response in idle", MsgView{Type: TypeAuthenticationResponse, RES: make([]byte, 8)}},
		{"auth failure in idle", MsgView{Type: TypeAuthenticationFailure, Cause: CauseSyncFailure, AUTS: make([]byte, 14)}},
		{"SMC complete in idle", MsgView{Type: TypeSecurityModeComplete}},
		{"attach complete in idle", MsgView{Type: TypeAttachComplete}},
		{"detach in idle", MsgView{Type: TypeDetachRequest, GUTI: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := testNetwork(t, hss)
			b, _ := marshal(tc.msg)
			down, ev, err := net.Handle(b)
			if !errors.Is(err, session.ErrIllegalTransition) {
				t.Fatalf("err = %v, want ErrIllegalTransition", err)
			}
			var terr *session.TransitionError
			if !errors.As(err, &terr) {
				t.Fatalf("err is not a *session.TransitionError: %T", err)
			}
			if down != nil || ev.Kind != EventNone {
				t.Errorf("illegal transition had side effects: down=%x ev=%v", down, ev.Kind)
			}
			if net.State() != session.Idle {
				t.Errorf("state moved to %v", net.State())
			}
		})
	}

	// A second AttachRequest mid-procedure is also illegal: identity
	// can't be re-claimed once authentication is underway.
	sim := testSIM(t, "001010000000031")
	hss2 := auth.NewSubscriberDB(false)
	hss2.Provision(sim)
	net := testNetwork(t, hss2)
	att, _ := marshal(MsgView{Type: TypeAttachRequest, IMSI: []byte(sim.IMSI)})
	if _, _, err := net.Handle(att); err != nil {
		t.Fatal(err)
	}
	if _, _, err := net.Handle(att); !errors.Is(err, session.ErrIllegalTransition) {
		t.Errorf("second AttachRequest: %v, want ErrIllegalTransition", err)
	}
	if net.State() != session.Authenticating {
		t.Errorf("state after illegal re-attach = %v", net.State())
	}
}
