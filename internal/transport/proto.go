// Package transport implements MST ("mobile session transport"), the
// QUIC-style endpoint-mobility transport the dLTE paper leans on for
// service continuity (§4.2): sessions are named by connection ID
// rather than address 4-tuple, a resumption token enables 0-RTT
// re-establishment, and a client that acquires a new IP address simply
// keeps sending — the server re-binds the session to the packets'
// latest authenticated source (path migration).
//
// The same engine also runs in Legacy mode, modeling a TCP-like
// transport: the session is bound to the initial source address, a
// migrated client is RESET, and re-establishment costs a fresh 2-RTT
// handshake. Experiment E4 measures exactly the gap between the two
// under AP roaming.
//
// Endpoints receive only through the socket's delivery handler
// (PacketConn.SetHandler): each inbound packet runs the protocol
// machine inline on the network's dispatcher, and no reader goroutine
// exists to poll or to join. Sockets are simnet datagram sockets or
// ue.BearerConn, both on a simnet.VirtualClock.
package transport

import (
	"errors"
	"fmt"

	"dlte/internal/wire"
)

// PacketType identifies an MST packet.
type PacketType uint8

// MST packet types.
const (
	// PktHello opens a session (carries an optional resume token).
	PktHello PacketType = iota + 1
	// PktChallenge is the Legacy-mode extra handshake round trip
	// (the TCP+TLS stand-in).
	PktChallenge
	// PktConfirm answers a challenge.
	PktConfirm
	// PktAccept completes the handshake (carries a resume token).
	PktAccept
	// PktData carries one sequenced payload.
	PktData
	// PktAck carries a cumulative acknowledgment.
	PktAck
	// PktReset aborts a session (unknown CID, address violation).
	PktReset
	// PktClose ends a session gracefully.
	PktClose
)

// String names the packet type.
func (t PacketType) String() string {
	switch t {
	case PktHello:
		return "HELLO"
	case PktChallenge:
		return "CHALLENGE"
	case PktConfirm:
		return "CONFIRM"
	case PktAccept:
		return "ACCEPT"
	case PktData:
		return "DATA"
	case PktAck:
		return "ACK"
	case PktReset:
		return "RESET"
	case PktClose:
		return "CLOSE"
	default:
		return fmt.Sprintf("Pkt(%d)", uint8(t))
	}
}

// Packet is the single MST packet shape; fields are used per type.
type Packet struct {
	Type PacketType
	// CID is the connection ID naming the session independent of
	// addresses.
	CID uint64
	// Seq is the data sequence number (PktData) or echoed cookie
	// (PktChallenge/PktConfirm).
	Seq uint64
	// Ack is the cumulative acknowledgment: all seq < Ack received.
	Ack uint64
	// Token is the resume token (PktHello/PktAccept).
	Token []byte
	// Payload is application data (PktData).
	Payload []byte
}

// ErrBadPacket reports a malformed MST packet.
var ErrBadPacket = errors.New("transport: bad packet")

func (p *Packet) walk(c *wire.Codec) {
	c.U8((*uint8)(&p.Type))
	c.U64(&p.CID)
	c.U64(&p.Seq)
	c.U64(&p.Ack)
	c.Bytes8(&p.Token)
	c.Bytes16(&p.Payload)
}

// EncodePacket serializes a packet.
func EncodePacket(p Packet) ([]byte, error) {
	c := wire.Encoder(make([]byte, 0, 32+len(p.Token)+len(p.Payload)))
	p.walk(&c)
	if err := c.Err(); err != nil {
		return nil, err
	}
	return c.Bytes(), nil
}

// DecodePacket parses a packet. Token and Payload are copies.
func DecodePacket(b []byte) (p Packet, err error) {
	c := wire.CopyingDecoder(b)
	p.walk(&c)
	if err := c.Err(); err != nil {
		return Packet{}, fmt.Errorf("%w: %v", ErrBadPacket, err)
	}
	return p, nil
}

// Mode selects the transport's mobility semantics.
type Mode int

const (
	// Migratory is MST proper: CID routing, 0-RTT resume, migration.
	Migratory Mode = iota
	// Legacy models TCP: address-bound sessions, 2-RTT handshake, no
	// resume, RESET on migration.
	Legacy
)

// String names the mode.
func (m Mode) String() string {
	if m == Legacy {
		return "legacy"
	}
	return "migratory"
}
