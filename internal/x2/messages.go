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
	"errors"
	"fmt"

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

// msgTypeNames is built once; String runs on logging/error paths that
// must not allocate a map per call.
var msgTypeNames = map[MsgType]string{
	TypePeerHello:          "PeerHello",
	TypePeerHelloAck:       "PeerHelloAck",
	TypeLoadInformation:    "LoadInformation",
	TypeHandoverRequest:    "HandoverRequest",
	TypeHandoverRequestAck: "HandoverRequestAck",
	TypeHandoverComplete:   "HandoverComplete",
	TypeModeProposal:       "ModeProposal",
	TypeModeResponse:       "ModeResponse",
	TypeShareUpdate:        "ShareUpdate",
	TypeUEContextPush:      "UEContextPush",
	TypeRelayRequest:       "RelayRequest",
	TypeRelayResponse:      "RelayResponse",
	TypeRelayData:          "RelayData",
}

// String names the type.
func (t MsgType) String() string {
	if n, ok := msgTypeNames[t]; ok {
		return n
	}
	return fmt.Sprintf("X2(%d)", uint8(t))
}

// Message is any X2 message.
type Message interface {
	wire.Message
	Type() MsgType
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

// EncodeTo implements wire.Message.
func (m PeerHello) EncodeTo(w *wire.Writer) {
	w.String8(m.APID)
	w.F64(m.X)
	w.F64(m.Y)
	w.String8(m.BandName)
	w.U8(uint8(m.Mode))
}

// PeerHelloAck completes the hello exchange.
type PeerHelloAck struct {
	APID string
	Mode Mode
}

// Type implements Message.
func (PeerHelloAck) Type() MsgType { return TypePeerHelloAck }

// EncodeTo implements wire.Message.
func (m PeerHelloAck) EncodeTo(w *wire.Writer) {
	w.String8(m.APID)
	w.U8(uint8(m.Mode))
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

// EncodeTo implements wire.Message.
func (m LoadInformation) EncodeTo(w *wire.Writer) {
	w.String8(m.APID)
	w.U16(m.AttachedUEs)
	w.U16(m.PRBUtilization)
	w.U64(m.DemandBps)
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

// EncodeTo implements wire.Message.
func (m HandoverRequest) EncodeTo(w *wire.Writer) {
	w.String8(m.IMSI)
	w.String8(m.SourceAP)
	w.U32(uint32(m.RSRPdBm))
}

// HandoverRequestAck accepts (or refuses) the incoming client.
type HandoverRequestAck struct {
	IMSI     string
	Accepted bool
	Cause    uint8
}

// Type implements Message.
func (HandoverRequestAck) Type() MsgType { return TypeHandoverRequestAck }

// EncodeTo implements wire.Message.
func (m HandoverRequestAck) EncodeTo(w *wire.Writer) {
	w.String8(m.IMSI)
	w.Bool(m.Accepted)
	w.U8(m.Cause)
}

// HandoverComplete tells the source the client attached at the target.
type HandoverComplete struct {
	IMSI     string
	TargetAP string
}

// Type implements Message.
func (HandoverComplete) Type() MsgType { return TypeHandoverComplete }

// EncodeTo implements wire.Message.
func (m HandoverComplete) EncodeTo(w *wire.Writer) {
	w.String8(m.IMSI)
	w.String8(m.TargetAP)
}

// ModeProposal asks a peer to operate in the given mode.
type ModeProposal struct {
	APID string
	Mode Mode
}

// Type implements Message.
func (ModeProposal) Type() MsgType { return TypeModeProposal }

// EncodeTo implements wire.Message.
func (m ModeProposal) EncodeTo(w *wire.Writer) {
	w.String8(m.APID)
	w.U8(uint8(m.Mode))
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

// EncodeTo implements wire.Message.
func (m ModeResponse) EncodeTo(w *wire.Writer) {
	w.String8(m.APID)
	w.U8(uint8(m.Mode))
	w.Bool(m.Accepted)
}

// ShareUpdate distributes the negotiated TDM airtime pattern.
type ShareUpdate struct {
	// APIDs and Fractions are parallel; fractions are ×10000.
	APIDs     []string
	Fractions []uint16
}

// Type implements Message.
func (ShareUpdate) Type() MsgType { return TypeShareUpdate }

// EncodeTo implements wire.Message.
func (m ShareUpdate) EncodeTo(w *wire.Writer) {
	w.U8(uint8(len(m.APIDs)))
	for i := range m.APIDs {
		w.String8(m.APIDs[i])
		w.U16(m.Fractions[i])
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

// EncodeTo implements wire.Message.
func (m UEContextPush) EncodeTo(w *wire.Writer) {
	w.String8(m.IMSI)
	w.Bytes8(m.K)
	w.Bytes8(m.OPc)
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

// EncodeTo implements wire.Message.
func (m RelayRequest) EncodeTo(w *wire.Writer) {
	w.String8(m.APID)
	w.U64(m.NeededBps)
}

// RelayResponse grants or refuses relay capacity.
type RelayResponse struct {
	APID       string
	Granted    bool
	GrantedBps uint64
}

// Type implements Message.
func (RelayResponse) Type() MsgType { return TypeRelayResponse }

// EncodeTo implements wire.Message.
func (m RelayResponse) EncodeTo(w *wire.Writer) {
	w.String8(m.APID)
	w.Bool(m.Granted)
	w.U64(m.GrantedBps)
}

// RelayData carries an opaque user packet across the inter-AP radio
// path toward the relaying AP's backhaul.
type RelayData struct {
	FlowID  uint32
	Payload []byte
}

// Type implements Message.
func (RelayData) Type() MsgType { return TypeRelayData }

// EncodeTo implements wire.Message.
func (m RelayData) EncodeTo(w *wire.Writer) {
	w.U32(m.FlowID)
	w.Bytes16(m.Payload)
}

// Marshal serializes a message with its type octet.
func Marshal(m Message) ([]byte, error) { return wire.Marshal(uint8(m.Type()), m) }

// Decode parses an X2 message.
func Decode(b []byte) (Message, error) {
	r := wire.NewReader(b)
	t := MsgType(r.U8())
	var m Message
	switch t {
	case TypePeerHello:
		m = &PeerHello{APID: r.String8(), X: r.F64(), Y: r.F64(), BandName: r.String8(), Mode: Mode(r.U8())}
	case TypePeerHelloAck:
		m = &PeerHelloAck{APID: r.String8(), Mode: Mode(r.U8())}
	case TypeLoadInformation:
		m = &LoadInformation{APID: r.String8(), AttachedUEs: r.U16(), PRBUtilization: r.U16(), DemandBps: r.U64()}
	case TypeHandoverRequest:
		m = &HandoverRequest{IMSI: r.String8(), SourceAP: r.String8(), RSRPdBm: int32(r.U32())}
	case TypeHandoverRequestAck:
		m = &HandoverRequestAck{IMSI: r.String8(), Accepted: r.Bool(), Cause: r.U8()}
	case TypeHandoverComplete:
		m = &HandoverComplete{IMSI: r.String8(), TargetAP: r.String8()}
	case TypeModeProposal:
		m = &ModeProposal{APID: r.String8(), Mode: Mode(r.U8())}
	case TypeModeResponse:
		m = &ModeResponse{APID: r.String8(), Mode: Mode(r.U8()), Accepted: r.Bool()}
	case TypeShareUpdate:
		n := int(r.U8())
		su := &ShareUpdate{}
		for i := 0; i < n; i++ {
			su.APIDs = append(su.APIDs, r.String8())
			su.Fractions = append(su.Fractions, r.U16())
		}
		m = su
	case TypeUEContextPush:
		m = &UEContextPush{IMSI: r.String8(), K: r.Bytes8(), OPc: r.Bytes8()}
	case TypeRelayRequest:
		m = &RelayRequest{APID: r.String8(), NeededBps: r.U64()}
	case TypeRelayResponse:
		m = &RelayResponse{APID: r.String8(), Granted: r.Bool(), GrantedBps: r.U64()}
	case TypeRelayData:
		m = &RelayData{FlowID: r.U32(), Payload: r.Bytes16()}
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownMessage, t)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("x2: decode %s: %w", t, err)
	}
	return m, nil
}
