// Package epc implements the Evolved Packet Core functions the dLTE
// paper virtualizes into a per-AP "local core" stub (§4.1): the HSS
// (subscriber store, here auth.SubscriberDB plus a published-key
// import path), the MME (NAS orchestration over S1AP), and a combined
// S/P-GW (GTP-U termination, IP address pool, NAT-style Internet
// breakout).
//
// One Core type serves both deployment shapes the paper contrasts:
// place it on a distant host serving many eNodeBs and it is the
// telecom EPC of Figure 1 (left); place one per AP host serving its
// own eNodeB and it is the dLTE stub of Figure 1 (right). The code
// path is identical — the measured differences (E2, E3) come purely
// from where the packets have to travel.
package epc

import (
	"fmt"

	"dlte/internal/wire"
)

// UserPacket is the abstract subscriber IP packet carried through
// GTP-U tunnels and over the air interface: a remote endpoint plus an
// opaque payload. (A full IP header adds nothing to the experiments;
// the remote address is what routing acts on.)
type UserPacket struct {
	// Remote is the Internet peer, "host:port".
	Remote string
	// Payload is the application data.
	Payload []byte
}

// AppendUserPacket appends the wire form of a user packet to dst and
// returns the extended slice. It is the allocation-free encode the
// forwarding loops use: dst is typically a pooled buffer with GTP
// headroom already reserved (gtp.GetBuffer), so the tunneled packet is
// built in place and handed down the stack without a copy.
func AppendUserPacket(dst []byte, remote string, payload []byte) ([]byte, error) {
	if len(remote) > 0xFF {
		return dst, fmt.Errorf("epc: encode user packet: %w: remote length %d", wire.ErrOverflow, len(remote))
	}
	if len(payload) > 0xFFFF {
		return dst, fmt.Errorf("epc: encode user packet: %w: payload length %d", wire.ErrOverflow, len(payload))
	}
	dst = append(dst, byte(len(remote)))
	dst = append(dst, remote...)
	dst = append(dst, byte(len(payload)>>8), byte(len(payload)))
	dst = append(dst, payload...)
	return dst, nil
}

// DecodeUserPacketView parses a tunneled user packet without copying:
// remote and payload are views into b, valid only as long as b is.
// Retainers must copy; the forwarding loops consume both before the
// receive buffer is recycled. The layout is AppendUserPacket's: remote
// behind a u8 length, payload behind a u16 length, nothing after.
func DecodeUserPacketView(b []byte) (remote, payload []byte, err error) {
	c := wire.Decoder(b)
	c.Bytes8(&remote)
	c.Bytes16(&payload)
	if err := c.Err(); err != nil {
		return nil, nil, fmt.Errorf("epc: decode user packet: %w", err)
	}
	return remote, payload, nil
}
