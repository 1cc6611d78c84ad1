package epc

import (
	"bytes"
	"testing"

	"dlte/internal/auth"
	"dlte/internal/nas"
	"dlte/internal/s1ap"
	"dlte/internal/session"
)

// TestReusedENBUEIDReleasesOldContext registers a UE on eNB UE ID 1 of
// a hand-built association, then sends a second InitialUEMessage on the
// same ID. The new message ends the context the ID named: the old
// session is released along with its registration and gateway session,
// and the association holds one S1 context, the new one.
func TestReusedENBUEIDReleasesOldContext(t *testing.T) {
	c := newHotpathCore(t)
	var down bytes.Buffer
	ec := &enbConn{c: c, conn: s1ap.NewConn(&down), sessions: make(map[uint32]*ueSession)}
	ec.bindNAS()
	rx := s1ap.NewConn(&down)
	send := func(v s1ap.MsgView) {
		t.Helper()
		ec.v = v
		if _, err := c.route(ec); err != nil {
			t.Fatal(err)
		}
		if err := c.serve(ec); err != nil {
			t.Fatal(err)
		}
		ec.cur = nil
	}
	attachRequest := func(imsi string) (*nas.UE, []byte) {
		t.Helper()
		sim, err := auth.NewSIM(auth.IMSI(imsi))
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
		up, err := u.StartAttach(c.cfg.SNID)
		if err != nil {
			t.Fatal(err)
		}
		return u, up
	}

	u, up := attachRequest("001010000000901")
	send(s1ap.MsgView{Type: s1ap.TypeInitialUEMessage, ENBUEID: 1, NASPDU: up})
	for down.Len() > 0 {
		var v s1ap.MsgView
		if err := rx.Recv(&v); err != nil {
			t.Fatal(err)
		}
		if v.Type != s1ap.TypeDownlinkNASTransport {
			continue
		}
		reply, _, err := u.Handle(v.NASPDU)
		if err != nil {
			t.Fatal(err)
		}
		if len(reply) > 0 {
			send(s1ap.MsgView{Type: s1ap.TypeUplinkNASTransport, ENBUEID: 1, MMEUEID: v.MMEUEID, NASPDU: reply})
		}
	}
	old := ec.sessions[1]
	if st := old.nasSession.State(); st != session.Attached {
		t.Fatalf("first session %v, want %v", st, session.Attached)
	}
	if tb := c.Tables(); tb != (Tables{Contexts: 1, Registered: 1, GUTIs: 1}) || c.gw.NumSessions() != 1 {
		t.Fatalf("after the first attach: %+v, %d gateway sessions", tb, c.gw.NumSessions())
	}

	_, up = attachRequest("001010000000902")
	send(s1ap.MsgView{Type: s1ap.TypeInitialUEMessage, ENBUEID: 1, NASPDU: up})
	if st := old.nasSession.State(); st != session.Detached {
		t.Errorf("first session %v after its eNB UE ID was reused, want %v", st, session.Detached)
	}
	if s := ec.sessions[1]; s == old || s.nasSession.State() != session.Authenticating {
		t.Errorf("eNB UE ID 1 names %p (%v), want a new authenticating session", s, s.nasSession.State())
	}
	// The first subscriber keeps its GUTI: only a detach returns it.
	if tb := c.Tables(); tb != (Tables{Contexts: 1, Registered: 0, GUTIs: 1}) || c.gw.NumSessions() != 0 {
		t.Errorf("after the reuse: %+v, %d gateway sessions; want 1 context, no registration, no gateway session", tb, c.gw.NumSessions())
	}
}
