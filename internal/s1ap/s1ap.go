// Package s1ap implements the subset of the S1 Application Protocol
// (TS 36.413 simplified) that connects an eNodeB to an MME: S1 setup,
// NAS transport in both directions, initial context setup (which
// carries the GTP-U tunnel endpoints), and UE context release. In a
// telecom EPC this protocol crosses a WAN to the operator's core; in
// dLTE it runs over loopback inside the AP — the same code path either
// way, which is how the E2/E3 experiments isolate the architecture
// difference.
//
// Like the NAS codec, every message is a MsgView whose per-type layout
// is declared once, in MsgView.walk, and run in both directions by the
// wire.Codec (DESIGN.md §9): Append builds into caller-owned buffers,
// DecodeView parses without copying, and decoding rejects trailing
// bytes so every accepted encoding is canonical. The NAS-transport
// messages additionally support a start/finish pair that lets the NAS
// layer append its PDU directly into the S1AP frame — the signaling
// fast path carries one buffer end to end.
package s1ap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"dlte/internal/wire"
)

// MsgType identifies an S1AP message.
type MsgType uint8

// S1AP message types.
const (
	TypeS1SetupRequest MsgType = iota + 1
	TypeS1SetupResponse
	TypeInitialUEMessage
	TypeDownlinkNASTransport
	TypeUplinkNASTransport
	TypeInitialContextSetupRequest
	TypeInitialContextSetupResponse
	TypeUEContextReleaseCommand
	TypeUEContextReleaseComplete
	TypePathSwitchRequest
	TypePathSwitchAck
	TypeUEContextReleaseRequest
)

var typeNames = [...]string{
	TypeS1SetupRequest:              "S1SetupRequest",
	TypeS1SetupResponse:             "S1SetupResponse",
	TypeInitialUEMessage:            "InitialUEMessage",
	TypeDownlinkNASTransport:        "DownlinkNASTransport",
	TypeUplinkNASTransport:          "UplinkNASTransport",
	TypeInitialContextSetupRequest:  "InitialContextSetupRequest",
	TypeInitialContextSetupResponse: "InitialContextSetupResponse",
	TypeUEContextReleaseCommand:     "UEContextReleaseCommand",
	TypeUEContextReleaseComplete:    "UEContextReleaseComplete",
	TypePathSwitchRequest:           "PathSwitchRequest",
	TypePathSwitchAck:               "PathSwitchAck",
	TypeUEContextReleaseRequest:     "UEContextReleaseRequest",
}

// String names the type.
func (t MsgType) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("S1AP(%d)", uint8(t))
}

// Codec errors.
var (
	// ErrUnknownMessage reports an unrecognized type octet.
	ErrUnknownMessage = errors.New("s1ap: unknown message type")
	// ErrNonCanonical reports an encoding with trailing bytes: it
	// parses, but is not the unique serialization of the result.
	ErrNonCanonical = wire.ErrNonCanonical
)

// MsgView is any S1AP message: a type tag plus the union of all
// fields. Only the fields its Type carries mean anything: Append reads
// just those and DecodeView writes just those, so a reused view keeps
// stale values elsewhere. After DecodeView the byte fields are views
// aliasing the decoded buffer (DESIGN.md §7).
type MsgView struct {
	Type MsgType

	ENBName    []byte // S1SetupRequest
	MMEName    []byte // S1SetupResponse
	SNID       []byte // S1SetupResponse: the identity UEs bind into KASME
	NASPDU     []byte // NAS transports, InitialUEMessage
	SGWAddr    []byte // InitialContextSetupRequest: gateway GTP-U "host:port"
	UEAddr     []byte // InitialContextSetupRequest: the UE's PDN address
	ENBAddr    []byte // InitialContextSetupResponse: eNodeB GTP-U "host:port"
	NewENBAddr []byte // PathSwitchRequest: the target eNodeB's endpoint

	ENBID      uint32 // S1SetupRequest
	ENBUEID    uint32
	MMEUEID    uint32
	SGWTEID    uint32 // InitialContextSetupRequest: uplink TEID
	ENBTEID    uint32 // InitialContextSetupResponse: downlink TEID
	NewENBTEID uint32 // PathSwitchRequest
	TAC        uint16 // S1SetupRequest
	ServedTAC  uint16 // S1SetupResponse
	Cause      uint8  // release command/request
}

// walk is the one declaration of every S1AP message layout: the type
// octet, then the type's fields in wire order.
func (v *MsgView) walk(c *wire.Codec) {
	c.U8((*uint8)(&v.Type))
	switch v.Type {
	case TypeS1SetupRequest: // an eNodeB introduces itself to an MME
		c.U32(&v.ENBID)
		c.Bytes8(&v.ENBName)
		c.U16(&v.TAC)
	case TypeS1SetupResponse:
		c.Bytes8(&v.MMEName)
		c.U16(&v.ServedTAC)
		c.Bytes8(&v.SNID)
	case TypeInitialUEMessage: // a new UE's first uplink NAS PDU
		c.U32(&v.ENBUEID)
		c.Bytes16(&v.NASPDU)
	case TypeDownlinkNASTransport, TypeUplinkNASTransport:
		c.U32(&v.ENBUEID)
		c.U32(&v.MMEUEID)
		c.Bytes16(&v.NASPDU) // last: StartDownlinkNASTransport relies on it
	case TypeInitialContextSetupRequest: // activates the UE's data path
		c.U32(&v.ENBUEID)
		c.U32(&v.MMEUEID)
		c.Bytes8(&v.SGWAddr)
		c.U32(&v.SGWTEID)
		c.Bytes8(&v.UEAddr)
	case TypeInitialContextSetupResponse:
		c.U32(&v.ENBUEID)
		c.U32(&v.MMEUEID)
		c.Bytes8(&v.ENBAddr)
		c.U32(&v.ENBTEID)
	case TypeUEContextReleaseCommand, TypeUEContextReleaseRequest:
		// The request is the eNodeB-initiated release (TS 36.413
		// §8.3.2): the radio link is gone, so the MME ends the session
		// with the command/complete exchange.
		c.U32(&v.ENBUEID)
		c.U32(&v.MMEUEID)
		c.U8(&v.Cause)
	case TypeUEContextReleaseComplete:
		c.U32(&v.ENBUEID)
		c.U32(&v.MMEUEID)
	case TypePathSwitchRequest: // the centralized baseline's tunnel move
		c.U32(&v.MMEUEID)
		c.Bytes8(&v.NewENBAddr)
		c.U32(&v.NewENBTEID)
	case TypePathSwitchAck:
		c.U32(&v.MMEUEID)
	default:
		c.Fail(ErrUnknownMessage)
	}
}

// Append appends v's encoding (type octet and fields) to dst and
// returns the extended slice. A field too long for its length prefix
// is an error, and dst comes back unextended.
func Append(dst []byte, v *MsgView) ([]byte, error) {
	c := wire.Encoder(dst)
	v.walk(&c)
	if err := c.Err(); err != nil {
		return dst, fmt.Errorf("s1ap: encode %s: %w", v.Type, err)
	}
	return c.Bytes(), nil
}

// DecodeView parses one S1AP message into v without copying: byte
// fields alias b. Decoding is strict — unknown types, truncation, and
// trailing bytes are all errors — so any accepted input is the unique
// encoding of the result.
func DecodeView(b []byte, v *MsgView) error {
	c := wire.Decoder(b)
	v.walk(&c)
	if err := c.Err(); err != nil {
		return fmt.Errorf("s1ap: decode %s: %w", v.Type, err)
	}
	return nil
}

// StartDownlinkNASTransport appends the downlink-transport header with
// a zero NAS-PDU length and returns the mark to pass to
// FinishNASTransport. The caller appends the NAS PDU directly to the
// returned buffer — the signaling fast path serializes NAS straight
// into the S1AP frame with no intermediate copy. It is the one
// hand-written encoder left: the header is walk's
// DownlinkNASTransport layout up to the PDU, its last field
// (TestStartFinishMatchesAppend pins the two together).
func StartDownlinkNASTransport(dst []byte, enbUEID, mmeUEID uint32) ([]byte, int) {
	dst = append(dst, byte(TypeDownlinkNASTransport))
	dst = binary.BigEndian.AppendUint32(dst, enbUEID)
	dst = binary.BigEndian.AppendUint32(dst, mmeUEID)
	dst = append(dst, 0, 0) // NAS PDU length, patched by FinishNASTransport
	return dst, len(dst)
}

// FinishNASTransport patches the NAS-PDU length of a transport started
// with StartDownlinkNASTransport, where everything past mark is the
// appended PDU.
func FinishNASTransport(b []byte, mark int) ([]byte, error) {
	n := len(b) - mark
	if n > math.MaxUint16 {
		return b, fmt.Errorf("%w: NAS PDU of %d bytes", wire.ErrOverflow, n)
	}
	binary.BigEndian.PutUint16(b[mark-2:mark], uint16(n))
	return b, nil
}

// Conn frames S1AP messages over a reliable stream.
type Conn struct {
	fc *wire.FrameConn
}

// NewConn wraps a stream (net.Conn or simnet.Conn).
func NewConn(rw io.ReadWriter) *Conn { return &Conn{fc: wire.NewFrameConn(rw)} }

// Send writes one message, serializing through a pooled frame. Safe
// for concurrent use.
func (c *Conn) Send(v *MsgView) error {
	frame := wire.GetFrame()
	b, err := Append(frame, v)
	if err == nil {
		err = c.fc.Send(b)
	}
	wire.PutFrame(frame)
	return err
}

// SendFrame writes one pre-serialized message (built with Append). The
// buffer remains owned by the caller: the framing layer copies it out
// before SendFrame returns.
func (c *Conn) SendFrame(b []byte) error { return c.fc.Send(b) }

// Recv reads the next message into v. The frame is freshly allocated
// and owned by v's views from then on.
func (c *Conn) Recv(v *MsgView) error {
	b, err := c.fc.Recv()
	if err != nil {
		return err
	}
	return DecodeView(b, v)
}
