// Package enb implements the eNodeB: the radio-side server UEs attach
// through. It speaks a framed air-interface protocol to UEs (standing
// in for RRC + the data radio bearer), S1AP to its core (local stub or
// remote EPC — the eNodeB cannot tell, which is the point), and GTP-U
// for the user plane.
package enb

import (
	"errors"
	"fmt"

	"dlte/internal/wire"
)

// AirPort is the default port eNodeBs listen on for UE associations.
const AirPort = 4000

// AirMsgType identifies an air-interface frame.
type AirMsgType uint8

// Air-interface frame types.
const (
	// AirNASUp carries an uplink NAS PDU (RRC UL Information Transfer).
	AirNASUp AirMsgType = iota + 1
	// AirNASDown carries a downlink NAS PDU.
	AirNASDown
	// AirDataUp carries an uplink user packet (encoded epc.UserPacket).
	AirDataUp
	// AirDataDown carries a downlink user packet.
	AirDataDown
	// AirRelease ends the radio connection.
	AirRelease
	// AirBroadcast is the first downlink frame on every new radio
	// connection: the SIB-like system information (serving network
	// identity and tracking area) a UE needs before it can attach.
	AirBroadcast
)

// String names the frame type.
func (t AirMsgType) String() string {
	switch t {
	case AirNASUp:
		return "NASUp"
	case AirNASDown:
		return "NASDown"
	case AirDataUp:
		return "DataUp"
	case AirDataDown:
		return "DataDown"
	case AirRelease:
		return "Release"
	case AirBroadcast:
		return "Broadcast"
	default:
		return fmt.Sprintf("Air(%d)", uint8(t))
	}
}

// ErrBadAirFrame reports a malformed air frame.
var ErrBadAirFrame = errors.New("enb: bad air frame")

// walkAir is the one declaration of the air frame layout: the type
// octet, then the payload behind a u16 length.
func walkAir(c *wire.Codec, t *AirMsgType, payload *[]byte) {
	c.U8((*uint8)(t))
	c.Bytes16(payload)
}

// AppendAir appends one framed air message to dst and returns the
// extended slice: the allocation-free encode for the per-packet data
// path (dst is typically a pooled buffer from wire.GetFrame).
func AppendAir(dst []byte, t AirMsgType, payload []byte) ([]byte, error) {
	c := wire.Encoder(dst)
	walkAir(&c, &t, &payload)
	if err := c.Err(); err != nil {
		return dst, fmt.Errorf("enb: air frame: %w", err)
	}
	return c.Bytes(), nil
}

// DecodeAirView parses one air message without copying: the payload is
// a view into b, valid only as long as b is. Retainers must copy.
func DecodeAirView(b []byte) (t AirMsgType, payload []byte, err error) {
	c := wire.Decoder(b)
	walkAir(&c, &t, &payload)
	if err := c.Err(); err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrBadAirFrame, err)
	}
	return t, payload, nil
}

// SystemInfo is the broadcast content of an AirBroadcast frame.
type SystemInfo struct {
	// SNID is the serving-network identity bound into KASME.
	SNID string
	// TAC is the tracking area code.
	TAC uint16
}

func (si *SystemInfo) walk(c *wire.Codec) {
	c.String8(&si.SNID)
	c.U16(&si.TAC)
}

// EncodeSystemInfo serializes broadcast system information.
func EncodeSystemInfo(si SystemInfo) ([]byte, error) {
	c := wire.Encoder(make([]byte, 0, 3+len(si.SNID)))
	si.walk(&c)
	if err := c.Err(); err != nil {
		return nil, err
	}
	return c.Bytes(), nil
}

// DecodeSystemInfo parses broadcast system information.
func DecodeSystemInfo(b []byte) (si SystemInfo, err error) {
	c := wire.Decoder(b)
	si.walk(&c)
	if err := c.Err(); err != nil {
		return SystemInfo{}, fmt.Errorf("%w: %v", ErrBadAirFrame, err)
	}
	return si, nil
}
