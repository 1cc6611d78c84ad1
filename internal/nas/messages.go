// Package nas implements the subset of the LTE Non-Access-Stratum
// protocol a standard client exercises against an EPC (TS 24.301
// simplified): attach with mutual AKA, NAS security mode, default
// bearer establishment, detach, and tracking-area update — plus the
// integrity protection that makes the dLTE stub core look like a real
// network to an unmodified handset (paper §4.1).
//
// Every message is a MsgView: a type tag plus the union of all message
// fields. Each type's field layout is declared once, in MsgView.walk,
// and the wire.Codec runs that one declaration in both directions
// (DESIGN.md §9): Append encodes into a caller-owned buffer, and
// DecodeView parses with byte fields aliasing the input. Both are
// allocation-free. Decoding is canonical — trailing bytes and non-{0,1}
// boolean octets are rejected — so every accepted encoding re-encodes
// byte-identically.
package nas

import (
	"errors"
	"fmt"

	"dlte/internal/wire"
)

// MsgType identifies a NAS message.
type MsgType uint8

// NAS message types (values are local to this implementation).
const (
	TypeAttachRequest MsgType = iota + 1
	TypeAuthenticationRequest
	TypeAuthenticationResponse
	TypeAuthenticationReject
	TypeSecurityModeCommand
	TypeSecurityModeComplete
	TypeAttachAccept
	TypeAttachComplete
	TypeAttachReject
	TypeDetachRequest
	TypeDetachAccept
	TypeTAURequest
	TypeTAUAccept
	TypeTAUReject
	TypeSecured // integrity-protected envelope
	// TypeAuthenticationFailure carries the UE's rejection of a
	// network challenge — including the AUTS resynchronization token
	// on SQN failures (TS 24.301 §5.4.2.6).
	TypeAuthenticationFailure
)

var typeNames = [...]string{
	TypeAttachRequest:          "AttachRequest",
	TypeAuthenticationRequest:  "AuthenticationRequest",
	TypeAuthenticationResponse: "AuthenticationResponse",
	TypeAuthenticationReject:   "AuthenticationReject",
	TypeSecurityModeCommand:    "SecurityModeCommand",
	TypeSecurityModeComplete:   "SecurityModeComplete",
	TypeAttachAccept:           "AttachAccept",
	TypeAttachComplete:         "AttachComplete",
	TypeAttachReject:           "AttachReject",
	TypeDetachRequest:          "DetachRequest",
	TypeDetachAccept:           "DetachAccept",
	TypeTAURequest:             "TAURequest",
	TypeTAUAccept:              "TAUAccept",
	TypeTAUReject:              "TAUReject",
	TypeSecured:                "Secured",
	TypeAuthenticationFailure:  "AuthenticationFailure",
}

// String names the message type for logs and tests.
func (t MsgType) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Codec errors.
var (
	// ErrUnknownMessage reports an unrecognized type octet.
	ErrUnknownMessage = errors.New("nas: unknown message type")
	// ErrNonCanonical reports an encoding that parses but is not the
	// unique canonical form (trailing bytes, boolean octets other than
	// 0/1). Decoders reject these so that accepted input always
	// re-encodes byte-identically.
	ErrNonCanonical = wire.ErrNonCanonical
)

// Cause codes for reject messages.
const (
	CauseIMSIUnknown   uint8 = 2
	CauseIllegalUE     uint8 = 3
	CauseAuthFailure   uint8 = 20
	CauseCongestion    uint8 = 22
	CauseNotAuthorized uint8 = 35
	CauseProtocolError uint8 = 111
)

// CauseSyncFailure marks an SQN synchronisation failure (TS 24.008
// cause #21).
const CauseSyncFailure uint8 = 21

// MsgView is any NAS message: a type tag plus the union of all message
// fields. Only the fields its Type carries mean anything: Append reads
// just those and DecodeView writes just those, so a view can be reused
// (a reply built in the request's view sets its type and its fields).
// After DecodeView the byte fields are views aliasing the decoded
// buffer — valid only while the caller owns that buffer, never
// retained (DESIGN.md §7).
type MsgView struct {
	Type MsgType

	IMSI           []byte // AttachRequest
	UECapabilities []byte // AttachRequest: opaque capability string
	RAND           []byte // AuthenticationRequest (16 bytes)
	AUTN           []byte // AuthenticationRequest (16 bytes)
	RES            []byte // AuthenticationResponse
	AUTS           []byte // AuthenticationFailure (14 bytes on CauseSyncFailure)
	PDNAddress     []byte // AttachAccept: the UE's IP address
	Inner          []byte // Secured: the protected message

	GUTI         uint64  // AttachAccept, DetachRequest, TAURequest
	Count        uint32  // Secured: replay-protected counter
	MAC          [4]byte // Secured: over count‖inner
	TrackingArea uint16  // AttachAccept, TAURequest, TAUAccept
	Cause        uint8   // rejects, AuthenticationFailure
	IntegrityAlg uint8   // SecurityModeCommand
	CipherAlg    uint8   // SecurityModeCommand
	EBI          uint8   // AttachAccept: default bearer identity (5..15)

	FollowOnData   bool // AttachRequest: wants user-plane resources now
	DirectBreakout bool // AttachAccept: traffic exits at the AP (Fig. 1)
}

// walk is the one declaration of every NAS message layout: the type
// octet, then the type's fields in wire order.
func (v *MsgView) walk(c *wire.Codec) {
	c.U8((*uint8)(&v.Type))
	switch v.Type {
	case TypeAttachRequest: // the IMSI goes in clear before a GUTI exists
		c.Bytes8(&v.IMSI)
		c.Bytes8(&v.UECapabilities)
		c.Bool(&v.FollowOnData)
	case TypeAuthenticationRequest: // the AKA challenge
		c.Bytes8(&v.RAND)
		c.Bytes8(&v.AUTN)
	case TypeAuthenticationResponse:
		c.Bytes8(&v.RES)
	case TypeAuthenticationFailure: // the UE rejects the network's challenge
		c.U8(&v.Cause)
		c.Bytes8(&v.AUTS)
	case TypeAuthenticationReject, TypeAttachReject, TypeTAUReject:
		c.U8(&v.Cause)
	case TypeSecurityModeCommand: // the first integrity-protected downlink
		c.U8(&v.IntegrityAlg)
		c.U8(&v.CipherAlg)
	case TypeSecurityModeComplete, TypeAttachComplete, TypeDetachAccept:
	case TypeAttachAccept: // registration plus the default EPS bearer
		c.U64(&v.GUTI)
		c.U16(&v.TrackingArea)
		c.U8(&v.EBI)
		c.Bytes8(&v.PDNAddress)
		c.Bool(&v.DirectBreakout)
	case TypeDetachRequest:
		c.U64(&v.GUTI)
	case TypeTAURequest:
		c.U64(&v.GUTI)
		c.U16(&v.TrackingArea)
	case TypeTAUAccept:
		c.U16(&v.TrackingArea)
	case TypeSecured: // count ‖ MAC over count‖inner ‖ inner
		c.U32(&v.Count)
		c.Fixed(v.MAC[:])
		c.Bytes16(&v.Inner)
	default:
		c.Fail(ErrUnknownMessage)
	}
}

// Append appends v's encoding (type octet and fields) to dst and
// returns the extended slice. A field too long for its length prefix
// is an error, and dst comes back unextended. Ownership of dst stays
// with the caller (DESIGN.md §7).
func Append(dst []byte, v *MsgView) ([]byte, error) {
	c := wire.Encoder(dst)
	v.walk(&c)
	if err := c.Err(); err != nil {
		return dst, fmt.Errorf("nas: encode %s: %w", v.Type, err)
	}
	return c.Bytes(), nil
}

// DecodeView parses one NAS message into v without copying: byte
// fields alias b. Decoding is strict — unknown types, truncation,
// trailing bytes, and non-canonical boolean octets are all errors — so
// any accepted input is the unique encoding of the result.
func DecodeView(b []byte, v *MsgView) error {
	c := wire.Decoder(b)
	v.walk(&c)
	if err := c.Err(); err != nil {
		return fmt.Errorf("nas: decode %s: %w", v.Type, err)
	}
	return nil
}
