// Package s1ap implements the subset of the S1 Application Protocol
// (TS 36.413 simplified) that connects an eNodeB to an MME: S1 setup,
// NAS transport in both directions, initial context setup (which
// carries the GTP-U tunnel endpoints), and UE context release. In a
// telecom EPC this protocol crosses a WAN to the operator's core; in
// dLTE it runs over loopback inside the AP — the same code path either
// way, which is how the E2/E3 experiments isolate the architecture
// difference.
//
// Like the NAS codec, the wire format is fixed-layout and strict
// (DESIGN.md §9): AppendX encoders build into caller-owned buffers,
// DecodeView parses without copying, and decoders reject trailing
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

// msgTypeNames is built once; String runs on logging/error paths that
// must not allocate a map per call.
var msgTypeNames = map[MsgType]string{
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
	if n, ok := msgTypeNames[t]; ok {
		return n
	}
	return fmt.Sprintf("S1AP(%d)", uint8(t))
}

// Message is any S1AP message.
type Message interface {
	Type() MsgType
}

// Codec errors.
var (
	// ErrUnknownMessage reports an unrecognized type octet.
	ErrUnknownMessage = errors.New("s1ap: unknown message type")
	// ErrNonCanonical reports an encoding with trailing bytes: it
	// parses, but is not the unique serialization of the result.
	ErrNonCanonical = errors.New("s1ap: non-canonical encoding")
)

// S1SetupRequest introduces an eNodeB to an MME.
type S1SetupRequest struct {
	ENBID   uint32
	ENBName string
	TAC     uint16
}

// Type implements Message.
func (S1SetupRequest) Type() MsgType { return TypeS1SetupRequest }

// S1SetupResponse accepts the eNodeB.
type S1SetupResponse struct {
	MMEName string
	// ServedTAC echoes the tracking area the MME serves.
	ServedTAC uint16
	// SNID is the serving-network identity the eNodeB must broadcast;
	// UEs bind it into KASME during AKA.
	SNID string
}

// Type implements Message.
func (S1SetupResponse) Type() MsgType { return TypeS1SetupResponse }

// InitialUEMessage carries the first uplink NAS PDU of a new UE.
type InitialUEMessage struct {
	ENBUEID uint32
	NASPDU  []byte
}

// Type implements Message.
func (InitialUEMessage) Type() MsgType { return TypeInitialUEMessage }

// DownlinkNASTransport carries a NAS PDU toward the UE.
type DownlinkNASTransport struct {
	ENBUEID uint32
	MMEUEID uint32
	NASPDU  []byte
}

// Type implements Message.
func (DownlinkNASTransport) Type() MsgType { return TypeDownlinkNASTransport }

// UplinkNASTransport carries a NAS PDU from the UE.
type UplinkNASTransport struct {
	ENBUEID uint32
	MMEUEID uint32
	NASPDU  []byte
}

// Type implements Message.
func (UplinkNASTransport) Type() MsgType { return TypeUplinkNASTransport }

// InitialContextSetupRequest activates the UE's data path: it tells
// the eNodeB where the gateway terminates the uplink GTP-U tunnel.
type InitialContextSetupRequest struct {
	ENBUEID uint32
	MMEUEID uint32
	// SGWAddr is the gateway's GTP-U endpoint ("host:port").
	SGWAddr string
	// SGWTEID is the uplink TEID allocated by the gateway.
	SGWTEID uint32
	// UEAddr is the PDN address assigned to the UE.
	UEAddr string
}

// Type implements Message.
func (InitialContextSetupRequest) Type() MsgType { return TypeInitialContextSetupRequest }

// InitialContextSetupResponse returns the eNodeB's downlink tunnel end.
type InitialContextSetupResponse struct {
	ENBUEID uint32
	MMEUEID uint32
	// ENBAddr is the eNodeB's GTP-U endpoint ("host:port").
	ENBAddr string
	// ENBTEID is the downlink TEID allocated by the eNodeB.
	ENBTEID uint32
}

// Type implements Message.
func (InitialContextSetupResponse) Type() MsgType { return TypeInitialContextSetupResponse }

// UEContextReleaseCommand tears down a UE's S1 context.
type UEContextReleaseCommand struct {
	ENBUEID uint32
	MMEUEID uint32
	Cause   uint8
}

// Type implements Message.
func (UEContextReleaseCommand) Type() MsgType { return TypeUEContextReleaseCommand }

// UEContextReleaseComplete acknowledges the release.
type UEContextReleaseComplete struct {
	ENBUEID uint32
	MMEUEID uint32
}

// Type implements Message.
func (UEContextReleaseComplete) Type() MsgType { return TypeUEContextReleaseComplete }

// UEContextReleaseRequest is the eNodeB-initiated release (TS 36.413
// §8.3.2): the radio link to a UE is gone, so the MME should end the
// session with the standard command/complete exchange instead of
// carrying the context forever.
type UEContextReleaseRequest struct {
	ENBUEID uint32
	MMEUEID uint32
	Cause   uint8
}

// Type implements Message.
func (UEContextReleaseRequest) Type() MsgType { return TypeUEContextReleaseRequest }

// PathSwitchRequest asks the MME to move a UE's downlink tunnel to a
// new eNodeB after an X2 handover (used by the centralized baseline).
type PathSwitchRequest struct {
	MMEUEID uint32
	// NewENBAddr/NewENBTEID are the target eNodeB's tunnel endpoint.
	NewENBAddr string
	NewENBTEID uint32
}

// Type implements Message.
func (PathSwitchRequest) Type() MsgType { return TypePathSwitchRequest }

// PathSwitchAck confirms the tunnel move.
type PathSwitchAck struct {
	MMEUEID uint32
}

// Type implements Message.
func (PathSwitchAck) Type() MsgType { return TypePathSwitchAck }

// --- Append encoders -------------------------------------------------

func appendString8(dst []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint8 {
		return dst, fmt.Errorf("%w: length-8 field of %d bytes", wire.ErrOverflow, len(s))
	}
	dst = append(dst, uint8(len(s)))
	return append(dst, s...), nil
}

func appendBytes16(dst, b []byte) ([]byte, error) {
	if len(b) > math.MaxUint16 {
		return dst, fmt.Errorf("%w: length-16 field of %d bytes", wire.ErrOverflow, len(b))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(b)))
	return append(dst, b...), nil
}

// AppendS1SetupRequest appends a serialized S1SetupRequest to dst.
func AppendS1SetupRequest(dst []byte, m S1SetupRequest) ([]byte, error) {
	dst = append(dst, byte(TypeS1SetupRequest))
	dst = binary.BigEndian.AppendUint32(dst, m.ENBID)
	dst, err := appendString8(dst, m.ENBName)
	if err != nil {
		return dst, err
	}
	return binary.BigEndian.AppendUint16(dst, m.TAC), nil
}

// AppendS1SetupResponse appends a serialized S1SetupResponse to dst.
func AppendS1SetupResponse(dst []byte, m S1SetupResponse) ([]byte, error) {
	dst = append(dst, byte(TypeS1SetupResponse))
	dst, err := appendString8(dst, m.MMEName)
	if err != nil {
		return dst, err
	}
	dst = binary.BigEndian.AppendUint16(dst, m.ServedTAC)
	return appendString8(dst, m.SNID)
}

// AppendInitialUEMessage appends a serialized InitialUEMessage to dst.
func AppendInitialUEMessage(dst []byte, enbUEID uint32, nasPDU []byte) ([]byte, error) {
	dst = append(dst, byte(TypeInitialUEMessage))
	dst = binary.BigEndian.AppendUint32(dst, enbUEID)
	return appendBytes16(dst, nasPDU)
}

// AppendDownlinkNASTransport appends a serialized downlink transport
// to dst.
func AppendDownlinkNASTransport(dst []byte, enbUEID, mmeUEID uint32, nasPDU []byte) ([]byte, error) {
	dst = append(dst, byte(TypeDownlinkNASTransport))
	dst = binary.BigEndian.AppendUint32(dst, enbUEID)
	dst = binary.BigEndian.AppendUint32(dst, mmeUEID)
	return appendBytes16(dst, nasPDU)
}

// AppendUplinkNASTransport appends a serialized uplink transport to
// dst.
func AppendUplinkNASTransport(dst []byte, enbUEID, mmeUEID uint32, nasPDU []byte) ([]byte, error) {
	dst = append(dst, byte(TypeUplinkNASTransport))
	dst = binary.BigEndian.AppendUint32(dst, enbUEID)
	dst = binary.BigEndian.AppendUint32(dst, mmeUEID)
	return appendBytes16(dst, nasPDU)
}

// StartDownlinkNASTransport appends the downlink-transport header with
// a zero NAS-PDU length and returns the mark to pass to
// FinishNASTransport. The caller appends the NAS PDU directly to the
// returned buffer — the signaling fast path serializes NAS straight
// into the S1AP frame with no intermediate copy.
func StartDownlinkNASTransport(dst []byte, enbUEID, mmeUEID uint32) ([]byte, int) {
	dst = append(dst, byte(TypeDownlinkNASTransport))
	dst = binary.BigEndian.AppendUint32(dst, enbUEID)
	dst = binary.BigEndian.AppendUint32(dst, mmeUEID)
	dst = append(dst, 0, 0) // NAS PDU length, patched by FinishNASTransport
	return dst, len(dst)
}

// StartUplinkNASTransport is StartDownlinkNASTransport for the uplink
// direction.
func StartUplinkNASTransport(dst []byte, enbUEID, mmeUEID uint32) ([]byte, int) {
	dst = append(dst, byte(TypeUplinkNASTransport))
	dst = binary.BigEndian.AppendUint32(dst, enbUEID)
	dst = binary.BigEndian.AppendUint32(dst, mmeUEID)
	dst = append(dst, 0, 0)
	return dst, len(dst)
}

// FinishNASTransport patches the NAS-PDU length of a transport started
// with StartDownlinkNASTransport / StartUplinkNASTransport, where
// everything past mark is the appended PDU.
func FinishNASTransport(b []byte, mark int) ([]byte, error) {
	n := len(b) - mark
	if n > math.MaxUint16 {
		return b, fmt.Errorf("%w: NAS PDU of %d bytes", wire.ErrOverflow, n)
	}
	binary.BigEndian.PutUint16(b[mark-2:mark], uint16(n))
	return b, nil
}

// AppendInitialContextSetupRequest appends a serialized request to dst.
func AppendInitialContextSetupRequest(dst []byte, m InitialContextSetupRequest) ([]byte, error) {
	dst = append(dst, byte(TypeInitialContextSetupRequest))
	dst = binary.BigEndian.AppendUint32(dst, m.ENBUEID)
	dst = binary.BigEndian.AppendUint32(dst, m.MMEUEID)
	dst, err := appendString8(dst, m.SGWAddr)
	if err != nil {
		return dst, err
	}
	dst = binary.BigEndian.AppendUint32(dst, m.SGWTEID)
	return appendString8(dst, m.UEAddr)
}

// AppendInitialContextSetupResponse appends a serialized response to
// dst.
func AppendInitialContextSetupResponse(dst []byte, m InitialContextSetupResponse) ([]byte, error) {
	dst = append(dst, byte(TypeInitialContextSetupResponse))
	dst = binary.BigEndian.AppendUint32(dst, m.ENBUEID)
	dst = binary.BigEndian.AppendUint32(dst, m.MMEUEID)
	dst, err := appendString8(dst, m.ENBAddr)
	if err != nil {
		return dst, err
	}
	return binary.BigEndian.AppendUint32(dst, m.ENBTEID), nil
}

// AppendUEContextReleaseCommand appends a serialized command to dst.
func AppendUEContextReleaseCommand(dst []byte, m UEContextReleaseCommand) []byte {
	dst = append(dst, byte(TypeUEContextReleaseCommand))
	dst = binary.BigEndian.AppendUint32(dst, m.ENBUEID)
	dst = binary.BigEndian.AppendUint32(dst, m.MMEUEID)
	return append(dst, m.Cause)
}

// AppendUEContextReleaseComplete appends a serialized complete to dst.
func AppendUEContextReleaseComplete(dst []byte, m UEContextReleaseComplete) []byte {
	dst = append(dst, byte(TypeUEContextReleaseComplete))
	dst = binary.BigEndian.AppendUint32(dst, m.ENBUEID)
	return binary.BigEndian.AppendUint32(dst, m.MMEUEID)
}

// AppendUEContextReleaseRequest appends a serialized request to dst.
func AppendUEContextReleaseRequest(dst []byte, m UEContextReleaseRequest) []byte {
	dst = append(dst, byte(TypeUEContextReleaseRequest))
	dst = binary.BigEndian.AppendUint32(dst, m.ENBUEID)
	dst = binary.BigEndian.AppendUint32(dst, m.MMEUEID)
	return append(dst, m.Cause)
}

// AppendPathSwitchRequest appends a serialized request to dst.
func AppendPathSwitchRequest(dst []byte, m PathSwitchRequest) ([]byte, error) {
	dst = append(dst, byte(TypePathSwitchRequest))
	dst = binary.BigEndian.AppendUint32(dst, m.MMEUEID)
	dst, err := appendString8(dst, m.NewENBAddr)
	if err != nil {
		return dst, err
	}
	return binary.BigEndian.AppendUint32(dst, m.NewENBTEID), nil
}

// AppendPathSwitchAck appends a serialized ack to dst.
func AppendPathSwitchAck(dst []byte, m PathSwitchAck) []byte {
	dst = append(dst, byte(TypePathSwitchAck))
	return binary.BigEndian.AppendUint32(dst, m.MMEUEID)
}

// AppendMessage appends any S1AP message to dst, dispatching on its
// concrete type.
func AppendMessage(dst []byte, m Message) ([]byte, error) {
	switch t := m.(type) {
	case *S1SetupRequest:
		return AppendS1SetupRequest(dst, *t)
	case *S1SetupResponse:
		return AppendS1SetupResponse(dst, *t)
	case *InitialUEMessage:
		return AppendInitialUEMessage(dst, t.ENBUEID, t.NASPDU)
	case *DownlinkNASTransport:
		return AppendDownlinkNASTransport(dst, t.ENBUEID, t.MMEUEID, t.NASPDU)
	case *UplinkNASTransport:
		return AppendUplinkNASTransport(dst, t.ENBUEID, t.MMEUEID, t.NASPDU)
	case *InitialContextSetupRequest:
		return AppendInitialContextSetupRequest(dst, *t)
	case *InitialContextSetupResponse:
		return AppendInitialContextSetupResponse(dst, *t)
	case *UEContextReleaseCommand:
		return AppendUEContextReleaseCommand(dst, *t), nil
	case *UEContextReleaseComplete:
		return AppendUEContextReleaseComplete(dst, *t), nil
	case *UEContextReleaseRequest:
		return AppendUEContextReleaseRequest(dst, *t), nil
	case *PathSwitchRequest:
		return AppendPathSwitchRequest(dst, *t)
	case *PathSwitchAck:
		return AppendPathSwitchAck(dst, *t), nil
	default:
		return dst, fmt.Errorf("%w: %T", ErrUnknownMessage, m)
	}
}

// Marshal serializes a message with its type octet into a fresh
// buffer.
func Marshal(m Message) ([]byte, error) {
	out, err := AppendMessage(make([]byte, 0, 64), m)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// --- View decoder ----------------------------------------------------

// MsgView is the decoded form of any S1AP message: a type tag plus the
// union of all fields. Byte-backed fields are views aliasing the
// decoded buffer (DESIGN.md §7); fields the decoded type does not
// carry are zero.
type MsgView struct {
	Type MsgType

	// Views into the decoded buffer.
	ENBName    []byte // S1SetupRequest
	MMEName    []byte // S1SetupResponse
	SNID       []byte // S1SetupResponse
	NASPDU     []byte // NAS transports
	SGWAddr    []byte // InitialContextSetupRequest
	UEAddr     []byte // InitialContextSetupRequest
	ENBAddr    []byte // InitialContextSetupResponse
	NewENBAddr []byte // PathSwitchRequest

	ENBID      uint32
	ENBUEID    uint32
	MMEUEID    uint32
	SGWTEID    uint32
	ENBTEID    uint32
	NewENBTEID uint32
	TAC        uint16 // S1SetupRequest
	ServedTAC  uint16 // S1SetupResponse
	Cause      uint8  // release command/request
}

// DecodeView parses one S1AP message into v without copying: byte
// fields alias b. Decoding is strict — unknown types, truncation, and
// trailing bytes are all errors — so any accepted input is the unique
// encoding of the result.
func DecodeView(b []byte, v *MsgView) error {
	*v = MsgView{}
	r := *wire.NewReader(b)
	t := MsgType(r.U8())
	v.Type = t
	switch t {
	case TypeS1SetupRequest:
		v.ENBID = r.U32()
		v.ENBName = r.View8()
		v.TAC = r.U16()
	case TypeS1SetupResponse:
		v.MMEName = r.View8()
		v.ServedTAC = r.U16()
		v.SNID = r.View8()
	case TypeInitialUEMessage:
		v.ENBUEID = r.U32()
		v.NASPDU = r.View16()
	case TypeDownlinkNASTransport, TypeUplinkNASTransport:
		v.ENBUEID = r.U32()
		v.MMEUEID = r.U32()
		v.NASPDU = r.View16()
	case TypeInitialContextSetupRequest:
		v.ENBUEID = r.U32()
		v.MMEUEID = r.U32()
		v.SGWAddr = r.View8()
		v.SGWTEID = r.U32()
		v.UEAddr = r.View8()
	case TypeInitialContextSetupResponse:
		v.ENBUEID = r.U32()
		v.MMEUEID = r.U32()
		v.ENBAddr = r.View8()
		v.ENBTEID = r.U32()
	case TypeUEContextReleaseCommand, TypeUEContextReleaseRequest:
		v.ENBUEID = r.U32()
		v.MMEUEID = r.U32()
		v.Cause = r.U8()
	case TypeUEContextReleaseComplete:
		v.ENBUEID = r.U32()
		v.MMEUEID = r.U32()
	case TypePathSwitchRequest:
		v.MMEUEID = r.U32()
		v.NewENBAddr = r.View8()
		v.NewENBTEID = r.U32()
	case TypePathSwitchAck:
		v.MMEUEID = r.U32()
	default:
		return fmt.Errorf("%w: %d", ErrUnknownMessage, t)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("s1ap: decode %s: %w", t, err)
	}
	if n := r.Remaining(); n != 0 {
		return fmt.Errorf("s1ap: decode %s: %w: %d trailing bytes", t, ErrNonCanonical, n)
	}
	return nil
}

// bcopy copies a view into a fresh heap slice for the materialized
// message forms.
func bcopy(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// Materialize copies the view into the concrete heap-owned message
// struct for its type, detaching it from the decoded buffer.
func (v *MsgView) Materialize() Message {
	switch v.Type {
	case TypeS1SetupRequest:
		return &S1SetupRequest{ENBID: v.ENBID, ENBName: string(v.ENBName), TAC: v.TAC}
	case TypeS1SetupResponse:
		return &S1SetupResponse{MMEName: string(v.MMEName), ServedTAC: v.ServedTAC, SNID: string(v.SNID)}
	case TypeInitialUEMessage:
		return &InitialUEMessage{ENBUEID: v.ENBUEID, NASPDU: bcopy(v.NASPDU)}
	case TypeDownlinkNASTransport:
		return &DownlinkNASTransport{ENBUEID: v.ENBUEID, MMEUEID: v.MMEUEID, NASPDU: bcopy(v.NASPDU)}
	case TypeUplinkNASTransport:
		return &UplinkNASTransport{ENBUEID: v.ENBUEID, MMEUEID: v.MMEUEID, NASPDU: bcopy(v.NASPDU)}
	case TypeInitialContextSetupRequest:
		return &InitialContextSetupRequest{ENBUEID: v.ENBUEID, MMEUEID: v.MMEUEID, SGWAddr: string(v.SGWAddr), SGWTEID: v.SGWTEID, UEAddr: string(v.UEAddr)}
	case TypeInitialContextSetupResponse:
		return &InitialContextSetupResponse{ENBUEID: v.ENBUEID, MMEUEID: v.MMEUEID, ENBAddr: string(v.ENBAddr), ENBTEID: v.ENBTEID}
	case TypeUEContextReleaseCommand:
		return &UEContextReleaseCommand{ENBUEID: v.ENBUEID, MMEUEID: v.MMEUEID, Cause: v.Cause}
	case TypeUEContextReleaseComplete:
		return &UEContextReleaseComplete{ENBUEID: v.ENBUEID, MMEUEID: v.MMEUEID}
	case TypeUEContextReleaseRequest:
		return &UEContextReleaseRequest{ENBUEID: v.ENBUEID, MMEUEID: v.MMEUEID, Cause: v.Cause}
	case TypePathSwitchRequest:
		return &PathSwitchRequest{MMEUEID: v.MMEUEID, NewENBAddr: string(v.NewENBAddr), NewENBTEID: v.NewENBTEID}
	case TypePathSwitchAck:
		return &PathSwitchAck{MMEUEID: v.MMEUEID}
	default:
		return nil
	}
}

// Decode parses an S1AP message into its heap-owned concrete struct.
func Decode(b []byte) (Message, error) {
	var v MsgView
	if err := DecodeView(b, &v); err != nil {
		return nil, err
	}
	return v.Materialize(), nil
}

// Conn frames S1AP messages over a reliable stream.
type Conn struct {
	fc *wire.FrameConn
}

// NewConn wraps a stream (net.Conn or simnet.Conn).
func NewConn(rw io.ReadWriter) *Conn { return &Conn{fc: wire.NewFrameConn(rw)} }

// Send writes one message, serializing through a pooled frame. Safe
// for concurrent use.
func (c *Conn) Send(m Message) error {
	frame := wire.GetFrame()
	b, err := AppendMessage(frame, m)
	if err == nil {
		err = c.fc.Send(b)
	}
	wire.PutFrame(frame)
	return err
}

// SendFrame writes one pre-serialized message (built with the AppendX
// encoders). The buffer remains owned by the caller: the framing layer
// copies it out before SendFrame returns.
func (c *Conn) SendFrame(b []byte) error { return c.fc.Send(b) }

// Recv reads the next message into a heap-owned struct.
func (c *Conn) Recv() (Message, error) {
	b, err := c.fc.Recv()
	if err != nil {
		return nil, err
	}
	return Decode(b)
}
