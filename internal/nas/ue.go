package nas

import (
	"errors"
	"fmt"

	"dlte/internal/auth"
)

// UEState is the UE-side EMM state.
type UEState int

// UE states, in attach order.
const (
	UEDeregistered UEState = iota
	UEAttachInitiated
	UEAuthenticated
	UESecured
	UERegistered
)

// String names the state.
func (s UEState) String() string {
	switch s {
	case UEDeregistered:
		return "DEREGISTERED"
	case UEAttachInitiated:
		return "ATTACH-INITIATED"
	case UEAuthenticated:
		return "AUTHENTICATED"
	case UESecured:
		return "SECURED"
	case UERegistered:
		return "REGISTERED"
	default:
		return fmt.Sprintf("UEState(%d)", int(s))
	}
}

// ErrUnexpectedMessage reports a NAS message arriving in a state that
// cannot accept it.
var ErrUnexpectedMessage = errors.New("nas: unexpected message for state")

// UE is the UE-side NAS state machine. It is message-in/message-out:
// the caller moves bytes between it and the network (over RRC in the
// real system, over the simulated air interface here).
//
// The UE object persists across attaches to different networks — its
// SQN state lives in the SIM — which is what lets a dLTE client roam
// between unrelated APs and re-authenticate at each (paper §4.2).
type UE struct {
	sim   auth.SIM
	ueCtx auth.UEContext
	state UEState
	sec   SecurityContext
	snID  string
	kasme []byte

	// Registration results, valid in UERegistered.
	GUTI         uint64
	IPAddress    string
	EBI          uint8
	TrackingArea uint16
	Breakout     bool
}

// NewUE builds a UE around a provisioned SIM.
func NewUE(sim auth.SIM) (*UE, error) {
	m, err := sim.Milenage()
	if err != nil {
		return nil, err
	}
	return &UE{sim: sim, ueCtx: auth.UEContext{Mil: m}}, nil
}

// IMSI reports the UE's identity.
func (u *UE) IMSI() string { return string(u.sim.IMSI) }

// State reports the current EMM state.
func (u *UE) State() UEState { return u.state }

// StartAttach resets session state and returns the serialized
// AttachRequest for the serving network snID.
func (u *UE) StartAttach(snID string) ([]byte, error) {
	return u.StartAttachAppend(nil, snID)
}

// StartAttachAppend is StartAttach appending into a caller-owned
// buffer.
func (u *UE) StartAttachAppend(dst []byte, snID string) ([]byte, error) {
	u.state = UEAttachInitiated
	u.snID = snID
	u.sec.reset()
	u.kasme = nil
	// IPAddress is left stale here — registration results are only
	// valid in UERegistered, and keeping the old string lets the
	// accept path skip reallocating when the network reassigns it.
	u.GUTI, u.EBI = 0, 0
	return Append(dst, &MsgView{Type: TypeAttachRequest, IMSI: []byte(u.sim.IMSI), UECapabilities: []byte("cat4"), FollowOnData: true})
}

// StartDetach returns a sealed DetachRequest; valid only when
// registered.
func (u *UE) StartDetach() ([]byte, error) {
	return u.StartDetachAppend(nil)
}

// StartDetachAppend is StartDetach appending into a caller-owned
// buffer.
func (u *UE) StartDetachAppend(dst []byte) ([]byte, error) {
	if u.state != UERegistered {
		return dst, fmt.Errorf("%w: detach in %s", ErrUnexpectedMessage, u.state)
	}
	return u.sec.sealMsg(dst, &MsgView{Type: TypeDetachRequest, GUTI: u.GUTI})
}

// StartTAU returns a Tracking Area Update request for use after idle
// mobility to an AP that may or may not share MME state.
func (u *UE) StartTAU(ta uint16) ([]byte, error) {
	return u.StartTAUAppend(nil, ta)
}

// StartTAUAppend is StartTAU appending into a caller-owned buffer.
func (u *UE) StartTAUAppend(dst []byte, ta uint16) ([]byte, error) {
	if u.state != UERegistered {
		return dst, fmt.Errorf("%w: TAU in %s", ErrUnexpectedMessage, u.state)
	}
	// TAU is sent in clear here: the target MME may not hold our
	// security context (it will reject and force re-attach, which is
	// the dLTE roaming path).
	return Append(dst, &MsgView{Type: TypeTAURequest, GUTI: u.GUTI, TrackingArea: ta})
}

// Handle processes one downlink NAS message and returns the uplink
// reply (nil if none) and whether the procedure completed.
func (u *UE) Handle(b []byte) (reply []byte, done bool, err error) {
	out, done, err := u.HandleAppend(b, nil)
	if len(out) == 0 {
		return nil, done, err
	}
	return out, done, err
}

// HandleAppend processes one downlink NAS message and appends any
// uplink reply to dst (typically a pooled frame whose ownership stays
// with the caller). A reply exists iff the returned buffer is longer
// than dst.
func (u *UE) HandleAppend(b, dst []byte) (out []byte, done bool, err error) {
	var v MsgView
	if derr := DecodeView(b, &v); derr != nil {
		return dst, false, derr
	}
	if v.Type == TypeSecured {
		if !u.sec.Active() {
			// First protected message: activate with the pending KASME
			// (the SMC arrives right after a successful AKA).
			if u.kasme == nil {
				return dst, false, fmt.Errorf("nas: protected message before AKA")
			}
			u.sec.Activate(u.kasme)
		}
		if oerr := u.sec.OpenView(v.Count, v.MAC[:], v.Inner); oerr != nil {
			return dst, false, oerr
		}
		inner := v.Inner
		if derr := DecodeView(inner, &v); derr != nil {
			return dst, false, derr
		}
	}

	// Replies reuse v once the message's fields are consumed: the
	// encoder reads only the fields of v.Type.
	switch v.Type {
	case TypeAuthenticationRequest:
		if u.state != UEAttachInitiated {
			return dst, false, fmt.Errorf("%w: %s in %s", ErrUnexpectedMessage, v.Type, u.state)
		}
		res, aerr := u.ueCtx.Respond(v.RAND, v.AUTN, u.snID)
		if errors.Is(aerr, auth.ErrSyncFailure) {
			// SQN out of step (normal after roaming a published-key
			// SIM across independent cores): return AUTS so the HSS
			// can resynchronize, and await a fresh challenge.
			auts, berr := u.ueCtx.BuildAUTS(v.RAND)
			if berr != nil {
				return dst, false, berr
			}
			v.Type, v.Cause, v.AUTS = TypeAuthenticationFailure, CauseSyncFailure, auts
			out, merr := Append(dst, &v)
			return out, false, merr
		}
		if aerr != nil {
			// The network failed OUR authentication of IT — mutual auth
			// protects the client even on an open dLTE AP.
			return dst, false, aerr
		}
		u.kasme = res.KASME
		u.state = UEAuthenticated
		v.Type, v.RES = TypeAuthenticationResponse, res.RES
		out, merr := Append(dst, &v)
		return out, false, merr

	case TypeSecurityModeCommand:
		if u.state != UEAuthenticated {
			return dst, false, fmt.Errorf("%w: %s in %s", ErrUnexpectedMessage, v.Type, u.state)
		}
		u.state = UESecured
		v.Type = TypeSecurityModeComplete
		out, serr := u.sec.sealMsg(dst, &v)
		if serr != nil {
			return dst, false, serr
		}
		return out, false, nil

	case TypeAttachAccept:
		if u.state != UESecured {
			return dst, false, fmt.Errorf("%w: %s in %s", ErrUnexpectedMessage, v.Type, u.state)
		}
		u.GUTI = v.GUTI
		u.TrackingArea = v.TrackingArea
		u.EBI = v.EBI
		if u.IPAddress != string(v.PDNAddress) { // comparison allocates nothing
			u.IPAddress = string(v.PDNAddress)
		}
		u.Breakout = v.DirectBreakout
		u.state = UERegistered
		v.Type = TypeAttachComplete
		out, serr := u.sec.sealMsg(dst, &v)
		if serr != nil {
			return dst, false, serr
		}
		return out, true, nil

	case TypeAttachReject:
		u.state = UEDeregistered
		return dst, false, fmt.Errorf("nas: attach rejected, cause %d", v.Cause)

	case TypeAuthenticationReject:
		u.state = UEDeregistered
		return dst, false, fmt.Errorf("nas: authentication rejected, cause %d", v.Cause)

	case TypeDetachAccept:
		u.state = UEDeregistered
		u.GUTI, u.IPAddress = 0, ""
		return dst, true, nil

	case TypeTAUAccept:
		u.TrackingArea = v.TrackingArea
		return dst, true, nil

	case TypeTAUReject:
		// Unknown GUTI at this AP: fall back to a fresh attach — the
		// dLTE roaming path (each AP is its own network).
		u.state = UEDeregistered
		return dst, false, fmt.Errorf("nas: TAU rejected, cause %d", v.Cause)

	default:
		return dst, false, fmt.Errorf("%w: %s in %s", ErrUnexpectedMessage, v.Type, u.state)
	}
}
