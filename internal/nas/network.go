package nas

import (
	"fmt"

	"dlte/internal/auth"
	"dlte/internal/session"
)

// EventKind classifies session events surfaced to the MME.
type EventKind int

// Session events.
const (
	EventNone EventKind = iota
	// EventRegistered fires when AttachComplete lands: the session is
	// live and the data path can be activated.
	EventRegistered
	// EventDetached fires on detach completion.
	EventDetached
	// EventAuthFailed fires when the UE fails authentication.
	EventAuthFailed
	// EventRejected fires when the network rejects the UE.
	EventRejected
)

// Event is a session state change of interest to the surrounding EPC.
type Event struct {
	Kind EventKind
	IMSI string
	IP   string
	GUTI uint64
}

// NetworkConfig wires a NAS session to its EPC environment.
type NetworkConfig struct {
	// HSS is the subscriber store to authenticate against.
	HSS *auth.SubscriberDB
	// ServingNetworkID is bound into KASME; in dLTE it names the AP.
	ServingNetworkID string
	// TrackingArea is advertised in AttachAccept.
	TrackingArea uint16
	// DirectBreakout marks dLTE semantics in AttachAccept.
	DirectBreakout bool
	// AllocateIP assigns the UE's PDN address at accept time.
	AllocateIP func(imsi string) (string, error)
	// AllocateGUTI assigns a temporary identity.
	AllocateGUTI func() uint64
	// KnownGUTI reports whether a GUTI belongs to this MME (for TAU).
	KnownGUTI func(guti uint64) bool
}

// NetworkSession is the network-side NAS protocol handler for one UE.
// Lifecycle state lives in the embedded session.Machine: Handle fires
// the event for each uplink message before performing its side
// effects, so an out-of-order message is rejected with a typed
// *session.TransitionError and changes nothing.
type NetworkSession struct {
	cfg      NetworkConfig
	fsm      session.Machine
	imsi     string
	vector   auth.Vector
	sec      SecurityContext
	guti     uint64
	ip       string
	ebi      uint8
	resynced bool
}

// NewNetworkSession builds a session.
func NewNetworkSession(cfg NetworkConfig) *NetworkSession {
	return &NetworkSession{cfg: cfg}
}

// State reports the current lifecycle state.
func (s *NetworkSession) State() session.State { return s.fsm.State() }

// FSM exposes the lifecycle machine so EPC-level paths (context
// release, X2 handover completion) can drive the same authority NAS
// processing uses.
func (s *NetworkSession) FSM() *session.Machine { return &s.fsm }

// IMSI reports the peer identity (set after AttachRequest).
func (s *NetworkSession) IMSI() string { return s.imsi }

// IP reports the assigned PDN address (set at accept).
func (s *NetworkSession) IP() string { return s.ip }

// GUTI reports the assigned temporary identity.
func (s *NetworkSession) GUTI() uint64 { return s.guti }

// Handle processes one uplink NAS message, returning the downlink
// reply (nil if none) and an Event for the surrounding EPC.
func (s *NetworkSession) Handle(b []byte) (reply []byte, ev Event, err error) {
	out, ev, err := s.HandleAppend(b, nil)
	if len(out) == 0 {
		return nil, ev, err
	}
	return out, ev, err
}

// HandleAppend processes one uplink NAS message and appends any
// downlink reply to dst (typically a pooled frame whose ownership
// stays with the caller). A reply exists iff the returned buffer is
// longer than dst. Views into b are not retained past the call.
func (s *NetworkSession) HandleAppend(b, dst []byte) (out []byte, ev Event, err error) {
	var v MsgView
	if derr := DecodeView(b, &v); derr != nil {
		return dst, Event{}, derr
	}
	if v.Type == TypeSecured {
		if !s.sec.Active() {
			return dst, Event{}, fmt.Errorf("nas: protected uplink before security activation")
		}
		if oerr := s.sec.OpenView(v.Count, v.MAC[:], v.Inner); oerr != nil {
			return dst, Event{}, oerr
		}
		inner := v.Inner
		if derr := DecodeView(inner, &v); derr != nil {
			return dst, Event{}, derr
		}
	}

	switch v.Type {
	case TypeAttachRequest:
		if _, ferr := s.fsm.Fire(session.EvAttachRequest); ferr != nil {
			return dst, Event{}, ferr
		}
		if s.imsi != string(v.IMSI) { // comparison allocates nothing; a re-attach keeps its string
			s.imsi = string(v.IMSI)
		}
		s.resynced = false // fresh attach, fresh resync-loop budget
		if !s.cfg.HSS.Known(auth.IMSI(s.imsi)) {
			s.fsm.Fire(session.EvReject)
			return reply(dst, &v, TypeAttachReject, CauseIMSIUnknown),
				Event{Kind: EventRejected, IMSI: s.imsi}, nil
		}
		vec, verr := s.cfg.HSS.NextVector(auth.IMSI(s.imsi), s.cfg.ServingNetworkID)
		if verr != nil {
			s.fsm.Fire(session.EvReject)
			return reply(dst, &v, TypeAttachReject, CauseProtocolError),
				Event{Kind: EventRejected, IMSI: s.imsi}, verr
		}
		s.vector = vec
		v.Type, v.RAND, v.AUTN = TypeAuthenticationRequest, vec.RAND, vec.AUTN
		out, merr := Append(dst, &v)
		return out, Event{}, merr

	case TypeAuthenticationFailure:
		if v.Cause != CauseSyncFailure || s.resynced {
			// Either an unrecoverable failure or a second resync in one
			// attach (a loop guard): give up on this UE.
			if _, ferr := s.fsm.Fire(session.EvAuthFailure); ferr != nil {
				return dst, Event{}, ferr
			}
			return reply(dst, &v, TypeAttachReject, CauseAuthFailure),
				Event{Kind: EventAuthFailed, IMSI: s.imsi}, nil
		}
		if _, ferr := s.fsm.Fire(session.EvAuthResync); ferr != nil {
			return dst, Event{}, ferr
		}
		if rerr := s.cfg.HSS.Resynchronize(auth.IMSI(s.imsi), s.vector.RAND, v.AUTS); rerr != nil {
			s.fsm.Fire(session.EvAuthFailure)
			return reply(dst, &v, TypeAuthenticationReject, CauseAuthFailure),
				Event{Kind: EventAuthFailed, IMSI: s.imsi}, rerr
		}
		s.resynced = true
		vec, verr := s.cfg.HSS.NextVector(auth.IMSI(s.imsi), s.cfg.ServingNetworkID)
		if verr != nil {
			s.fsm.Fire(session.EvReject)
			return reply(dst, &v, TypeAttachReject, CauseProtocolError),
				Event{Kind: EventRejected, IMSI: s.imsi}, verr
		}
		s.vector = vec
		v.Type, v.RAND, v.AUTN = TypeAuthenticationRequest, vec.RAND, vec.AUTN
		out, merr := Append(dst, &v)
		return out, Event{}, merr

	case TypeAuthenticationResponse:
		if cerr := auth.CheckRES(s.vector, v.RES); cerr != nil {
			if _, ferr := s.fsm.Fire(session.EvAuthFailure); ferr != nil {
				return dst, Event{}, ferr
			}
			return reply(dst, &v, TypeAuthenticationReject, CauseAuthFailure),
				Event{Kind: EventAuthFailed, IMSI: s.imsi}, cerr
		}
		if _, ferr := s.fsm.Fire(session.EvAuthSuccess); ferr != nil {
			return dst, Event{}, ferr
		}
		s.sec.Activate(s.vector.KASME)
		v.Type, v.IntegrityAlg, v.CipherAlg = TypeSecurityModeCommand, 1, 0
		out, serr := s.sec.sealMsg(dst, &v)
		if serr != nil {
			// A session left in SecurityMode with no downlink would hang
			// until the UE gave up and the EPC leaked the context: fail
			// the FSM and tell the UE to start over.
			s.fsm.Fire(session.EvReject)
			return reply(dst, &v, TypeAttachReject, CauseProtocolError),
				Event{Kind: EventRejected, IMSI: s.imsi}, serr
		}
		return out, Event{}, nil

	case TypeSecurityModeComplete:
		if _, ferr := s.fsm.Fire(session.EvSecurityComplete); ferr != nil {
			return dst, Event{}, ferr
		}
		ip, aerr := s.cfg.AllocateIP(s.imsi)
		if aerr != nil {
			s.fsm.Fire(session.EvReject)
			return reply(dst, &v, TypeAttachReject, CauseCongestion),
				Event{Kind: EventRejected, IMSI: s.imsi}, aerr
		}
		s.ip = ip
		s.guti = s.cfg.AllocateGUTI()
		s.ebi = 5
		// A literal, not v: v's fields flow into the HSS calls above,
		// so a conversion stored in v would be heap-allocated, where
		// in a literal it stays on the stack.
		out, serr := s.sec.sealMsg(dst, &MsgView{
			Type:           TypeAttachAccept,
			GUTI:           s.guti,
			TrackingArea:   s.cfg.TrackingArea,
			EBI:            s.ebi,
			PDNAddress:     []byte(s.ip),
			DirectBreakout: s.cfg.DirectBreakout,
		})
		if serr != nil {
			// Same leak as the SecurityModeCommand path: an un-sendable
			// accept must fail the session, not strand it in Attaching.
			s.fsm.Fire(session.EvReject)
			return reply(dst, &v, TypeAttachReject, CauseProtocolError),
				Event{Kind: EventRejected, IMSI: s.imsi}, serr
		}
		return out, Event{}, nil

	case TypeAttachComplete:
		if _, ferr := s.fsm.Fire(session.EvAttachComplete); ferr != nil {
			return dst, Event{}, ferr
		}
		// The AKA vector is only consulted between AttachRequest and
		// SecurityModeComplete; a re-attach always fetches a fresh one.
		// Dropping it here shrinks every idle session the EPC retains
		// (RAND/AUTN/XRES/KASME ≈ 200 bytes per registered UE).
		s.vector = auth.Vector{}
		return dst, Event{Kind: EventRegistered, IMSI: s.imsi, IP: s.ip, GUTI: s.guti}, nil

	case TypeDetachRequest:
		if _, ferr := s.fsm.Fire(session.EvDetachRequest); ferr != nil {
			return dst, Event{}, ferr
		}
		ev := Event{Kind: EventDetached, IMSI: s.imsi, GUTI: v.GUTI}
		v.Type = TypeDetachAccept
		out, serr := s.sec.sealMsg(dst, &v)
		if serr != nil {
			// The FSM is already Detached; surface the event regardless
			// so the EPC releases the context instead of leaking it (the
			// UE's retransmission covers the lost accept).
			return dst, ev, serr
		}
		return out, ev, nil

	case TypeTAURequest:
		if _, ferr := s.fsm.Fire(session.EvTAURequest); ferr != nil {
			return dst, Event{}, ferr
		}
		if s.cfg.KnownGUTI != nil && s.cfg.KnownGUTI(v.GUTI) {
			v.Type = TypeTAUAccept // the reply echoes the request's TrackingArea
			out, _ := Append(dst, &v)
			return out, Event{}, nil
		}
		// Unknown GUTI: this MME has no context for the UE — the
		// standard response that forces a fresh attach, and the normal
		// case when roaming between independent dLTE APs.
		return reply(dst, &v, TypeTAUReject, CauseIllegalUE), Event{}, nil

	default:
		return dst, Event{}, fmt.Errorf("%w: %s in %s", ErrUnexpectedMessage, v.Type, s.fsm.State())
	}
}

// reply appends a cause-only message of type t (a reject), built in v.
// Replies reuse the request's view once its fields are consumed: the
// encoder reads only the fields of v.Type, so setting those is enough,
// and the handler's frame holds one view. The fixed layout cannot fail
// to encode.
func reply(dst []byte, v *MsgView, t MsgType, cause uint8) []byte {
	v.Type, v.Cause = t, cause
	out, _ := Append(dst, v)
	return out
}
