package session

import (
	"errors"
	"testing"
)

// fire asserts a legal transition to want.
func fire(t *testing.T, m *Machine, ev Event, want State) {
	t.Helper()
	got, err := m.Fire(ev)
	if err != nil {
		t.Fatalf("Fire(%v) in %v: unexpected error %v", ev, m.State(), err)
	}
	if got != want {
		t.Fatalf("Fire(%v) = %v, want %v", ev, got, want)
	}
}

// reject asserts an illegal transition: a typed *TransitionError that
// matches ErrIllegalTransition and leaves the state untouched.
func reject(t *testing.T, m *Machine, ev Event) {
	t.Helper()
	before := m.State()
	got, err := m.Fire(ev)
	if err == nil {
		t.Fatalf("Fire(%v) in %v: want illegal-transition error, got state %v", ev, before, got)
	}
	var te *TransitionError
	if !errors.As(err, &te) {
		t.Fatalf("Fire(%v) error %T, want *TransitionError", ev, err)
	}
	if !errors.Is(err, ErrIllegalTransition) {
		t.Fatalf("Fire(%v) error does not match ErrIllegalTransition", ev)
	}
	if te.From != before || te.Event != ev {
		t.Fatalf("TransitionError{From: %v, Event: %v}, want {%v, %v}", te.From, te.Event, before, ev)
	}
	if got != before || m.State() != before {
		t.Fatalf("illegal Fire(%v) moved state %v -> %v", ev, before, m.State())
	}
}

func TestHappyPathAttachDetach(t *testing.T) {
	var m Machine
	if m.State() != Idle {
		t.Fatalf("zero Machine in %v, want Idle", m.State())
	}
	fire(t, &m, EvAttachRequest, Authenticating)
	fire(t, &m, EvAuthSuccess, SecurityMode)
	fire(t, &m, EvSecurityComplete, Attaching)
	fire(t, &m, EvAttachComplete, Attached)
	fire(t, &m, EvTAURequest, Attached)
	fire(t, &m, EvPathSwitch, Attached)
	fire(t, &m, EvDetachRequest, Detached)
	fire(t, &m, EvRelease, Detached) // teardown after detach is idempotent
	fire(t, &m, EvAttachRequest, Authenticating)
}

func TestAuthFlows(t *testing.T) {
	var m Machine
	fire(t, &m, EvAttachRequest, Authenticating)
	fire(t, &m, EvAuthResync, Authenticating) // SQN resync re-issues the challenge
	fire(t, &m, EvAuthFailure, Detached)

	m = Machine{}
	fire(t, &m, EvAttachRequest, Authenticating)
	fire(t, &m, EvReject, Detached) // unknown subscriber

	m = Machine{}
	fire(t, &m, EvTAURequest, Idle) // roaming TAU on a fresh session stays Idle
}

// TestOutOfOrderAttachComplete: an AttachComplete before the accept
// phase (Idle, Authenticating, SecurityMode) must be a typed reject.
func TestOutOfOrderAttachComplete(t *testing.T) {
	var m Machine
	reject(t, &m, EvAttachComplete) // Idle

	fire(t, &m, EvAttachRequest, Authenticating)
	reject(t, &m, EvAttachComplete) // mid-authentication

	fire(t, &m, EvAuthSuccess, SecurityMode)
	reject(t, &m, EvAttachComplete) // before security mode finished

	fire(t, &m, EvSecurityComplete, Attaching)
	fire(t, &m, EvAttachComplete, Attached) // now legal
	reject(t, &m, EvAttachComplete)         // duplicate complete
}

// TestDuplicateAttachRequestMidAuthentication: a second AttachRequest
// while the first attach is still in flight must be rejected in every
// intermediate state (a fresh attach may only supersede a *settled*
// session: Attached or Detached).
func TestDuplicateAttachRequestMidAuthentication(t *testing.T) {
	var m Machine
	fire(t, &m, EvAttachRequest, Authenticating)
	reject(t, &m, EvAttachRequest) // duplicate during AKA

	fire(t, &m, EvAuthSuccess, SecurityMode)
	reject(t, &m, EvAttachRequest) // duplicate during security mode

	fire(t, &m, EvSecurityComplete, Attaching)
	reject(t, &m, EvAttachRequest) // duplicate while accept outstanding

	fire(t, &m, EvAttachComplete, Attached)
	fire(t, &m, EvAttachRequest, Authenticating) // supersede is legal once settled
}

// TestDetachDuringSecurityMode: a detach before the session is
// attached must be a typed reject, not a silent accept.
func TestDetachDuringSecurityMode(t *testing.T) {
	var m Machine
	fire(t, &m, EvAttachRequest, Authenticating)
	fire(t, &m, EvAuthSuccess, SecurityMode)
	reject(t, &m, EvDetachRequest)

	// The session is still usable after the reject.
	fire(t, &m, EvSecurityComplete, Attaching)
	reject(t, &m, EvDetachRequest) // still not attached
	fire(t, &m, EvAttachComplete, Attached)
	fire(t, &m, EvDetachRequest, Detached)
}

func TestReleaseLegalEverywhere(t *testing.T) {
	states := []struct {
		name  string
		setup []Event
	}{
		{"Idle", nil},
		{"Authenticating", []Event{EvAttachRequest}},
		{"SecurityMode", []Event{EvAttachRequest, EvAuthSuccess}},
		{"Attaching", []Event{EvAttachRequest, EvAuthSuccess, EvSecurityComplete}},
		{"Attached", []Event{EvAttachRequest, EvAuthSuccess, EvSecurityComplete, EvAttachComplete}},
		{"Detached", []Event{EvAttachRequest, EvReject}},
	}
	for _, tc := range states {
		var m Machine
		for _, ev := range tc.setup {
			if _, err := m.Fire(ev); err != nil {
				t.Fatalf("%s setup Fire(%v): %v", tc.name, ev, err)
			}
		}
		if got, err := m.Fire(EvRelease); err != nil || got != Detached {
			t.Fatalf("%s: Fire(Release) = %v, %v; want Detached, nil", tc.name, got, err)
		}
	}
}

func TestHandoverTransitions(t *testing.T) {
	var m Machine
	fire(t, &m, EvAttachRequest, Authenticating)
	fire(t, &m, EvAuthSuccess, SecurityMode)
	fire(t, &m, EvSecurityComplete, Attaching)
	fire(t, &m, EvAttachComplete, Attached)
	fire(t, &m, EvHandoverComplete, Detached) // source side after X2 handover

	var fresh Machine
	reject(t, &fresh, EvHandoverComplete) // no context to hand over
	reject(t, &fresh, EvPathSwitch)
}

func TestCan(t *testing.T) {
	var m Machine
	if !m.Can(EvAttachRequest) || m.Can(EvDetachRequest) {
		t.Fatalf("Idle: Can(AttachRequest)=%v Can(DetachRequest)=%v", m.Can(EvAttachRequest), m.Can(EvDetachRequest))
	}
	if m.State() != Idle {
		t.Fatalf("Can must not change state, now %v", m.State())
	}
}

func TestUnknownEventRejected(t *testing.T) {
	var m Machine
	reject(t, &m, Event(250))
}

func TestStringCoverage(t *testing.T) {
	for s := State(0); s < numStates; s++ {
		if str := s.String(); str == "" || str == "State(0)" {
			t.Fatalf("State(%d).String() = %q", uint8(s), str)
		}
	}
	for e := Event(0); e < numEvents; e++ {
		if str := e.String(); str == "" {
			t.Fatalf("Event(%d).String() = %q", uint8(e), str)
		}
	}
	if State(200).String() != "State(200)" {
		t.Fatalf("unknown state String: %q", State(200).String())
	}
	if Event(200).String() != "Event(200)" {
		t.Fatalf("unknown event String: %q", Event(200).String())
	}
}

// TestFireNoAllocs gates the legal-transition hot path at zero
// allocations: Fire runs once per NAS message under a core's serving
// gate.
func TestFireNoAllocs(t *testing.T) {
	var m Machine
	allocs := testing.AllocsPerRun(1000, func() {
		m.Fire(EvAttachRequest)
		m.Fire(EvAuthSuccess)
		m.Fire(EvSecurityComplete)
		m.Fire(EvAttachComplete)
		m.Fire(EvDetachRequest)
	})
	if allocs != 0 {
		t.Fatalf("legal Fire path allocates %.1f/run, want 0", allocs)
	}
}
