// Package x2 implements the eNodeB-to-eNodeB X2 interface (TS 36.423
// subset) extended the way the dLTE paper proposes (§4.3): alongside
// standard handover preparation and load information, peers exchange
// dLTE operating mode (fair-share vs cooperative), negotiated airtime
// shares, published-key UE contexts for fast re-attach at the target
// AP, and backhaul relay requests (the §7 multi-hop future-work
// feature). The agent half of the package maintains peer connections
// over the Internet backhaul and meters coordination traffic, which is
// what experiment E7 sizes against the X2-bandwidth analysis the paper
// cites.
//
// The agent owns no goroutine. Serve installs an accept handler on a
// simnet.Listener, and every association, accepted or dialed,
// receives through its conn's delivery handler: the accept side
// answers the PeerHello there, and message handlers run inline on the
// network's dispatcher.
package x2

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"dlte/internal/wire"
)

// MsgType identifies an X2 message.
type MsgType uint8

// X2 message types: standard X2-AP first, dLTE extensions after.
const (
	TypePeerHello MsgType = iota + 1
	TypePeerHelloAck
	TypeLoadInformation
	TypeHandoverRequest
	TypeHandoverRequestAck
	TypeHandoverComplete
	// dLTE extensions.
	TypeModeProposal
	TypeModeResponse
	TypeShareUpdate
	TypeUEContextPush
	TypeRelayRequest
	TypeRelayResponse
	TypeRelayData
)

// kinds maps each type octet to its name and a constructor for the
// message the decoder walks into.
var kinds = [...]struct {
	name string
	new  func() Message
}{
	TypePeerHello:          {"PeerHello", func() Message { return new(PeerHello) }},
	TypePeerHelloAck:       {"PeerHelloAck", func() Message { return new(PeerHelloAck) }},
	TypeLoadInformation:    {"LoadInformation", func() Message { return new(LoadInformation) }},
	TypeHandoverRequest:    {"HandoverRequest", func() Message { return new(HandoverRequest) }},
	TypeHandoverRequestAck: {"HandoverRequestAck", func() Message { return new(HandoverRequestAck) }},
	TypeHandoverComplete:   {"HandoverComplete", func() Message { return new(HandoverComplete) }},
	TypeModeProposal:       {"ModeProposal", func() Message { return new(ModeProposal) }},
	TypeModeResponse:       {"ModeResponse", func() Message { return new(ModeResponse) }},
	TypeShareUpdate:        {"ShareUpdate", func() Message { return new(ShareUpdate) }},
	TypeUEContextPush:      {"UEContextPush", func() Message { return new(UEContextPush) }},
	TypeRelayRequest:       {"RelayRequest", func() Message { return new(RelayRequest) }},
	TypeRelayResponse:      {"RelayResponse", func() Message { return new(RelayResponse) }},
	TypeRelayData:          {"RelayData", func() Message { return new(RelayData) }},
}

// String names the type.
func (t MsgType) String() string {
	if int(t) < len(kinds) && kinds[t].new != nil {
		return kinds[t].name
	}
	return fmt.Sprintf("X2(%d)", uint8(t))
}

// Message is any X2 message. Its walk is the one declaration of its
// field layout, run by Encode and Decode alike.
type Message interface {
	Type() MsgType
	walk(c *wire.Codec)
}

// ErrUnknownMessage reports an unrecognized type octet.
var ErrUnknownMessage = errors.New("x2: unknown message type")

// Mode is a dLTE operating mode.
type Mode uint8

// dLTE peer coordination modes (§4.3).
const (
	// ModeSelfish means no coordination (the uncoordinated baseline).
	ModeSelfish Mode = iota
	// ModeFairShare coordinates a bare-minimum fair airtime split.
	ModeFairShare
	// ModeCooperative fuses resources: joint scheduling + handoff.
	ModeCooperative
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeSelfish:
		return "selfish"
	case ModeFairShare:
		return "fair-share"
	case ModeCooperative:
		return "cooperative"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// PeerHello introduces an AP to a neighbor discovered via the registry.
type PeerHello struct {
	APID     string
	X, Y     float64 // registry-declared position, meters
	BandName string
	Mode     Mode
}

// Type implements Message.
func (PeerHello) Type() MsgType { return TypePeerHello }

func (m *PeerHello) walk(c *wire.Codec) {
	c.String8(&m.APID)
	c.F64(&m.X)
	c.F64(&m.Y)
	c.String8(&m.BandName)
	c.U8((*uint8)(&m.Mode))
}

// PeerHelloAck completes the hello exchange.
type PeerHelloAck struct {
	APID string
	Mode Mode
}

// Type implements Message.
func (PeerHelloAck) Type() MsgType { return TypePeerHelloAck }

func (m *PeerHelloAck) walk(c *wire.Codec) {
	c.String8(&m.APID)
	c.U8((*uint8)(&m.Mode))
}

// LoadInformation advertises an AP's current radio load, the input to
// share negotiation and cooperative assignment.
type LoadInformation struct {
	APID string
	// AttachedUEs is the number of registered clients.
	AttachedUEs uint16
	// PRBUtilization is the fraction of scheduled resources in use,
	// scaled ×10000.
	PRBUtilization uint16
	// DemandBps is the aggregate offered load.
	DemandBps uint64
}

// Type implements Message.
func (LoadInformation) Type() MsgType { return TypeLoadInformation }

func (m *LoadInformation) walk(c *wire.Codec) {
	c.String8(&m.APID)
	c.U16(&m.AttachedUEs)
	c.U16(&m.PRBUtilization)
	c.U64(&m.DemandBps)
}

// HandoverRequest prepares the target AP to receive a client.
type HandoverRequest struct {
	IMSI     string
	SourceAP string
	// RSRPdBm is the measurement that triggered the handover, ×100.
	RSRPdBm int32
}

// Type implements Message.
func (HandoverRequest) Type() MsgType { return TypeHandoverRequest }

func (m *HandoverRequest) walk(c *wire.Codec) {
	c.String8(&m.IMSI)
	c.String8(&m.SourceAP)
	c.I32(&m.RSRPdBm)
}

// HandoverRequestAck accepts (or refuses) the incoming client.
type HandoverRequestAck struct {
	IMSI     string
	Accepted bool
	Cause    uint8
}

// Type implements Message.
func (HandoverRequestAck) Type() MsgType { return TypeHandoverRequestAck }

func (m *HandoverRequestAck) walk(c *wire.Codec) {
	c.String8(&m.IMSI)
	c.Bool(&m.Accepted)
	c.U8(&m.Cause)
}

// HandoverComplete tells the source the client attached at the target.
type HandoverComplete struct {
	IMSI     string
	TargetAP string
}

// Type implements Message.
func (HandoverComplete) Type() MsgType { return TypeHandoverComplete }

func (m *HandoverComplete) walk(c *wire.Codec) {
	c.String8(&m.IMSI)
	c.String8(&m.TargetAP)
}

// ModeProposal asks a peer to operate in the given mode.
type ModeProposal struct {
	APID string
	Mode Mode
}

// Type implements Message.
func (ModeProposal) Type() MsgType { return TypeModeProposal }

func (m *ModeProposal) walk(c *wire.Codec) {
	c.String8(&m.APID)
	c.U8((*uint8)(&m.Mode))
}

// ModeResponse accepts or rejects a mode proposal. Agreement requires
// both owners to opt in — coordination is voluntary (§4.3).
type ModeResponse struct {
	APID     string
	Mode     Mode
	Accepted bool
}

// Type implements Message.
func (ModeResponse) Type() MsgType { return TypeModeResponse }

func (m *ModeResponse) walk(c *wire.Codec) {
	c.String8(&m.APID)
	c.U8((*uint8)(&m.Mode))
	c.Bool(&m.Accepted)
}

// ShareUpdate distributes the negotiated TDM airtime pattern.
type ShareUpdate struct {
	// APIDs and Fractions are parallel; fractions are ×10000.
	APIDs     []string
	Fractions []uint16
}

// Type implements Message.
func (ShareUpdate) Type() MsgType { return TypeShareUpdate }

// ErrShareMismatch reports a ShareUpdate whose APIDs and Fractions
// differ in length.
var ErrShareMismatch = errors.New("x2: share update APIDs and Fractions differ in length")

func (m *ShareUpdate) walk(c *wire.Codec) {
	n := len(m.APIDs)
	wire.Len(c, &m.APIDs, 1, math.MaxUint8) // a larger domain is ErrOverflow, not a wrapped count
	if c.Decoding() {
		wire.Fit(c, &m.Fractions, len(m.APIDs))
	} else if len(m.Fractions) != n {
		c.Fail(fmt.Errorf("%w: %d and %d", ErrShareMismatch, n, len(m.Fractions)))
		return
	}
	for i := range m.APIDs {
		c.String8(&m.APIDs[i])
		c.U16(&m.Fractions[i])
	}
}

// UEContextPush pre-provisions a roaming client's published SIM at the
// target AP so its re-attach is a pure local operation — dLTE's fast
// re-authentication path (§4.2, §6 "fast re-authentication").
type UEContextPush struct {
	IMSI string
	K    []byte // published key material (open dLTE SIM)
	OPc  []byte
}

// Type implements Message.
func (UEContextPush) Type() MsgType { return TypeUEContextPush }

func (m *UEContextPush) walk(c *wire.Codec) {
	c.String8(&m.IMSI)
	c.Bytes8(&m.K)
	c.Bytes8(&m.OPc)
}

// RelayRequest asks a neighbor to carry traffic while this AP's
// backhaul is down (§7 multi-hop sharing).
type RelayRequest struct {
	APID string
	// NeededBps is the requested relay capacity.
	NeededBps uint64
}

// Type implements Message.
func (RelayRequest) Type() MsgType { return TypeRelayRequest }

func (m *RelayRequest) walk(c *wire.Codec) {
	c.String8(&m.APID)
	c.U64(&m.NeededBps)
}

// RelayResponse grants or refuses relay capacity.
type RelayResponse struct {
	APID       string
	Granted    bool
	GrantedBps uint64
}

// Type implements Message.
func (RelayResponse) Type() MsgType { return TypeRelayResponse }

func (m *RelayResponse) walk(c *wire.Codec) {
	c.String8(&m.APID)
	c.Bool(&m.Granted)
	c.U64(&m.GrantedBps)
}

// RelayData carries an opaque user packet across the inter-AP radio
// path toward the relaying AP's backhaul.
type RelayData struct {
	FlowID  uint32
	Payload []byte
}

// Type implements Message.
func (RelayData) Type() MsgType { return TypeRelayData }

func (m *RelayData) walk(c *wire.Codec) {
	c.U32(&m.FlowID)
	c.Bytes16(&m.Payload)
}

// Encode writes m's type octet and fields to an encoding Codec — a
// pooled one (wire.GetEncoder) on the allocation-free send path.
func Encode(c *wire.Codec, m Message) {
	t := m.Type()
	c.U8((*uint8)(&t))
	m.walk(c)
}

// Marshal serializes a message with its type octet into a fresh
// buffer.
func Marshal(m Message) ([]byte, error) {
	c := wire.GetEncoder()
	defer wire.PutEncoder(c)
	Encode(c, m)
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("x2: encode %s: %w", m.Type(), err)
	}
	return bytes.Clone(c.Bytes()), nil
}

// Decode parses an X2 message. Decoding is as strict as NAS, S1AP and
// the registry: X2 peers are other administrative domains, so
// truncation, trailing bytes and boolean octets other than 0/1 are all
// errors, and an accepted input is the unique encoding of the result.
// The message and its fields are copies, so it outlives b; Inbox is
// the allocation-free alternative for a receive path.
func Decode(b []byte) (Message, error) {
	c := wire.CopyingDecoder(b)
	return decode(&c, nil)
}

// Inbox decodes one association's frames in place. It holds one
// scratch message per type, which every frame of that type is decoded
// into, and the message's strings and byte fields view the frame, so
// once each type has been seen a decode allocates nothing. What Decode
// returns is valid only until the next Decode and only while the frame
// is unchanged: a handler that keeps a field past its call clones it
// (DESIGN.md §12, "X2 receive lifetime"). An Inbox is not safe for
// concurrent use; the zero value is ready.
type Inbox struct {
	c    wire.Codec
	msgs [len(kinds)]Message
}

// Decode parses frame, as strictly as the package-level Decode, into
// the inbox's message of its type.
func (in *Inbox) Decode(frame []byte) (Message, error) {
	in.c = wire.BorrowingDecoder(frame)
	return decode(&in.c, &in.msgs)
}

// decode reads a type octet from c and walks the rest of c's input
// into a message of that type: box's, when box is non-nil (made on the
// type's first use), else a new one.
func decode(c *wire.Codec, box *[len(kinds)]Message) (Message, error) {
	var t MsgType
	c.U8((*uint8)(&t))
	if int(t) >= len(kinds) || kinds[t].new == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownMessage, t)
	}
	var m Message
	if box == nil {
		m = kinds[t].new()
	} else if m = box[t]; m == nil {
		m = kinds[t].new()
		box[t] = m
	}
	m.walk(c)
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("x2: decode %s: %w", t, err)
	}
	return m, nil
}
