// Package session implements the per-UE control-plane lifecycle as an
// explicit, deterministic finite state machine. The EPC's view of one
// subscriber moves through
//
//	Idle → Authenticating → SecurityMode → Attaching → Attached → Detached
//
// driven by typed events (NAS messages arriving, authentication
// outcomes, X2 handover signals, context release), with a table of
// legal transitions. Illegal events — an AttachComplete before the
// accept went out, a duplicate AttachRequest mid-authentication, a
// detach during security mode — produce a typed *TransitionError and
// leave the state untouched: never a panic, never a silent accept.
//
// The machine holds lifecycle state only. Protocol material (auth
// vectors, security contexts, allocated identities) stays with the
// layers that own it: nas.NetworkSession delegates its message
// legality checks here, and epc.Core's session table drives the same
// machine for EPC-level events (release, handover completion), so the
// UE lifecycle has exactly one authority instead of being smeared
// across packages.
package session

import (
	"errors"
	"fmt"
	"sync"
)

// State is one stop in the per-UE control-plane lifecycle.
type State uint8

// Lifecycle states.
const (
	// Idle is a fresh session: no identity claimed yet.
	Idle State = iota
	// Authenticating means an AttachRequest arrived and an AKA
	// challenge is outstanding.
	Authenticating
	// SecurityMode means AKA succeeded and the NAS security-mode
	// exchange is outstanding.
	SecurityMode
	// Attaching means resources are allocated and the AttachAccept is
	// awaiting its AttachComplete.
	Attaching
	// Attached is a live registration with an active data path.
	Attached
	// Detached is terminal for this session object: the UE detached,
	// was rejected, handed over elsewhere, or its context was
	// released. (A re-attach transitions back to Authenticating.)
	Detached

	numStates
)

// String names the state.
func (s State) String() string {
	switch s {
	case Idle:
		return "IDLE"
	case Authenticating:
		return "AUTHENTICATING"
	case SecurityMode:
		return "SECURITY-MODE"
	case Attaching:
		return "ATTACHING"
	case Attached:
		return "ATTACHED"
	case Detached:
		return "DETACHED"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Event is a typed input to the lifecycle machine.
type Event uint8

// Lifecycle events. NAS-driven events correspond to uplink messages
// (after any verification the protocol layer performs); the rest are
// EPC- or X2-level signals.
const (
	// EvAttachRequest is an AttachRequest claiming an identity. Legal
	// from Idle and Detached, and from Attached (TS 24.301: a fresh
	// attach supersedes the old context) — but not mid-flow.
	EvAttachRequest Event = iota
	// EvAuthResync is a recoverable SQN-failure AuthenticationFailure
	// carrying AUTS: the challenge is re-issued, state stays put.
	EvAuthResync
	// EvAuthSuccess is a verified AuthenticationResponse.
	EvAuthSuccess
	// EvAuthFailure is a failed authentication: bad RES, unrecoverable
	// failure cause, or a resync loop.
	EvAuthFailure
	// EvSecurityComplete is a SecurityModeComplete under the activated
	// security context.
	EvSecurityComplete
	// EvAttachComplete confirms the AttachAccept: the UE is registered.
	EvAttachComplete
	// EvDetachRequest is a UE-initiated detach.
	EvDetachRequest
	// EvTAURequest is a tracking-area update: legal on a fresh session
	// (the roaming case — the UE shows up with only a GUTI) and on a
	// live one (periodic TAU).
	EvTAURequest
	// EvPathSwitch retargets an attached UE's downlink after an intra-
	// core handover.
	EvPathSwitch
	// EvHandoverComplete tells the source side its UE landed at a peer
	// AP: the local context is done.
	EvHandoverComplete
	// EvReject is a network-initiated rejection: unknown subscriber,
	// vector failure, resource exhaustion.
	EvReject
	// EvRelease tears the session down: UE context release, radio
	// loss, association loss, core shutdown. Legal from every state
	// (idempotent on Detached).
	EvRelease

	numEvents
)

// String names the event.
func (e Event) String() string {
	switch e {
	case EvAttachRequest:
		return "AttachRequest"
	case EvAuthResync:
		return "AuthResync"
	case EvAuthSuccess:
		return "AuthSuccess"
	case EvAuthFailure:
		return "AuthFailure"
	case EvSecurityComplete:
		return "SecurityComplete"
	case EvAttachComplete:
		return "AttachComplete"
	case EvDetachRequest:
		return "DetachRequest"
	case EvTAURequest:
		return "TAURequest"
	case EvPathSwitch:
		return "PathSwitch"
	case EvHandoverComplete:
		return "HandoverComplete"
	case EvReject:
		return "Reject"
	case EvRelease:
		return "Release"
	default:
		return fmt.Sprintf("Event(%d)", uint8(e))
	}
}

// ErrIllegalTransition is the sentinel every *TransitionError matches
// via errors.Is.
var ErrIllegalTransition = errors.New("session: illegal transition")

// TransitionError is the typed reject for an event that is not legal
// in the machine's current state.
type TransitionError struct {
	From  State
	Event Event
}

// Error implements error.
func (e *TransitionError) Error() string {
	return fmt.Sprintf("session: illegal transition: %s in %s", e.Event, e.From)
}

// Is matches ErrIllegalTransition.
func (e *TransitionError) Is(target error) bool { return target == ErrIllegalTransition }

// illegal marks a forbidden (state, event) pair in the table.
const illegal = numStates

// transitions is the full legality table: transitions[from][event] is
// the next state, or the illegal sentinel.
var transitions = func() [numStates][numEvents]State {
	var t [numStates][numEvents]State
	for s := State(0); s < numStates; s++ {
		for e := Event(0); e < numEvents; e++ {
			t[s][e] = illegal
		}
	}
	allow := func(from State, ev Event, to State) { t[from][ev] = to }

	allow(Idle, EvAttachRequest, Authenticating)
	allow(Idle, EvTAURequest, Idle) // roaming TAU on a fresh session
	allow(Idle, EvReject, Detached)
	allow(Idle, EvRelease, Detached)

	allow(Authenticating, EvAuthResync, Authenticating)
	allow(Authenticating, EvAuthSuccess, SecurityMode)
	allow(Authenticating, EvAuthFailure, Detached)
	allow(Authenticating, EvReject, Detached)
	allow(Authenticating, EvRelease, Detached)

	allow(SecurityMode, EvSecurityComplete, Attaching)
	allow(SecurityMode, EvReject, Detached)
	allow(SecurityMode, EvRelease, Detached)

	allow(Attaching, EvAttachComplete, Attached)
	allow(Attaching, EvReject, Detached)
	allow(Attaching, EvRelease, Detached)

	allow(Attached, EvDetachRequest, Detached)
	allow(Attached, EvTAURequest, Attached)
	allow(Attached, EvPathSwitch, Attached)
	allow(Attached, EvHandoverComplete, Detached)
	allow(Attached, EvAttachRequest, Authenticating) // supersede
	allow(Attached, EvReject, Detached)
	allow(Attached, EvRelease, Detached)

	allow(Detached, EvAttachRequest, Authenticating) // re-attach
	allow(Detached, EvRelease, Detached)             // idempotent teardown

	return t
}()

// Machine is one UE's lifecycle state machine. The zero value is a
// valid machine in Idle. Machines are safe for concurrent use: NAS
// processing fires events from a core's serving gate while
// EPC/X2 paths (release, handover completion) fire from their own
// goroutines.
type Machine struct {
	mu    sync.Mutex
	state State
}

// State reports the current lifecycle state.
func (m *Machine) State() State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state
}

// Can reports whether ev is legal in the current state, without
// firing it.
func (m *Machine) Can(ev Event) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return ev < numEvents && transitions[m.state][ev] != illegal
}

// Fire applies ev. It returns the state after the transition; if the
// event is illegal in the current state it returns the unchanged
// state and a *TransitionError. The legal path does not allocate.
func (m *Machine) Fire(ev Event) (State, error) {
	m.mu.Lock()
	if ev >= numEvents {
		s := m.state
		m.mu.Unlock()
		return s, &TransitionError{From: s, Event: ev}
	}
	next := transitions[m.state][ev]
	if next == illegal {
		s := m.state
		m.mu.Unlock()
		return s, &TransitionError{From: s, Event: ev}
	}
	m.state = next
	m.mu.Unlock()
	return next, nil
}
