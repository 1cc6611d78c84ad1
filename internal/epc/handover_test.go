package epc

import (
	"testing"

	"dlte/internal/auth"
	"dlte/internal/nas"
	"dlte/internal/s1ap"
	"dlte/internal/session"
)

// TestCompleteHandoverFindsTAUOpenedSession drives raw S1AP through the
// roaming arrival: the UE context is opened by a TAURequest carrying a
// foreign GUTI (rejected, FSM Idle → Idle), and the UE then attaches on
// that same context. CompleteHandover must find the session by IMSI
// however its context was opened, end its lifecycle, and leave no
// byIMSI entry behind.
func TestCompleteHandoverFindsTAUOpenedSession(t *testing.T) {
	c := newHotpathCore(t)
	l, err := c.host.Listen(S1APPort)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	c.ServeS1AP(l)

	sim, err := auth.NewSIM("001010000000101")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Provision(sim); err != nil {
		t.Fatal(err)
	}
	u, err := nas.NewUE(sim)
	if err != nil {
		t.Fatal(err)
	}

	sc, err := c.host.Network().MustAddHost("enb").Dial("core:36412")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	conn := s1ap.NewConn(sc)
	const enbUEID = 1
	// recvNAS returns the next downlink NAS PDU, skipping the context
	// setup request the core interleaves once the session is Attaching.
	recvNAS := func() s1ap.MsgView {
		t.Helper()
		for {
			var m s1ap.MsgView
			if err := conn.Recv(&m); err != nil {
				t.Fatal(err)
			}
			if m.Type == s1ap.TypeDownlinkNASTransport {
				return m
			}
		}
	}

	// A GUTI some other core allocated: TAC 9, and top bits no identity
	// of this core carries.
	tau, err := nas.Append(nil, &nas.MsgView{Type: nas.TypeTAURequest, GUTI: 5<<48 | 9<<32 | 0x123, TrackingArea: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&s1ap.MsgView{Type: s1ap.TypeInitialUEMessage, ENBUEID: enbUEID, NASPDU: tau}); err != nil {
		t.Fatal(err)
	}
	d := recvNAS()
	var m nas.MsgView
	if err := nas.DecodeView(d.NASPDU, &m); err != nil || m.Type != nas.TypeTAUReject {
		t.Fatalf("foreign-GUTI TAU answered with %v (%v), want TAUReject", m.Type, err)
	}
	mmeUEID := d.MMEUEID

	// The fresh attach the reject forces, on the same S1 UE context.
	pdu, err := u.StartAttach(c.cfg.SNID)
	if err != nil {
		t.Fatal(err)
	}
	for done := false; ; {
		if err := conn.Send(&s1ap.MsgView{Type: s1ap.TypeUplinkNASTransport, ENBUEID: enbUEID, MMEUEID: mmeUEID, NASPDU: pdu}); err != nil {
			t.Fatal(err)
		}
		if done { // that was the AttachComplete
			break
		}
		if pdu, done, err = u.Handle(recvNAS().NASPDU); err != nil {
			t.Fatal(err)
		}
	}
	// An association is served in order: once the setup response is
	// back, the AttachComplete before it has been served.
	if err := conn.Send(&s1ap.MsgView{Type: s1ap.TypeS1SetupRequest, ENBID: 1, TAC: 7}); err != nil {
		t.Fatal(err)
	}
	var sr s1ap.MsgView
	if err := conn.Recv(&sr); err != nil || sr.Type != s1ap.TypeS1SetupResponse {
		t.Fatalf("after AttachComplete: %v (%v), want S1SetupResponse", sr.Type, err)
	}

	c.mu.Lock()
	s := c.byIMSI[u.IMSI()]
	c.mu.Unlock()
	if s == nil || s.nasSession.State() != session.Attached {
		t.Fatalf("after attach: session %+v, want Attached", s)
	}
	if err := c.CompleteHandover(u.IMSI()); err != nil {
		t.Fatal(err)
	}
	if got := s.nasSession.State(); got != session.Detached {
		t.Errorf("after CompleteHandover: FSM %v, want Detached", got)
	}
	c.mu.Lock()
	left := len(c.byIMSI)
	c.mu.Unlock()
	if left != 0 {
		t.Errorf("after CompleteHandover: %d byIMSI entries, want 0", left)
	}
}
