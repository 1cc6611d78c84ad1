// Package registry implements the dLTE global registry (paper §1,
// §4.3): an open, federation-style directory that (a) records which
// access points operate in which region and band — the peer-discovery
// substrate for out-of-band spectrum coordination — and (b) stores the
// pre-published subscriber keys that let any AP authenticate an open
// dLTE SIM (§4.2).
//
// The registry is deliberately simple: open join (any conforming AP is
// accepted, like BGP peering or a DNS zone), region/band queries, and
// a key-publication feed, over a small binary framed protocol (see
// codec.go). One per-connection engine serves it: as a delivery
// handler on simnet WANs (Server.Serve, the experiments) and fed frame
// by frame from a blocking conn on real TCP (Server.ServeConn,
// cmd/dlte-registry). Clients either poll (Client) or mirror a
// revision-delta feed (Mirror) that ships only what changed since a
// known revision.
package registry

import (
	"encoding/hex"
	"errors"
	"fmt"

	"dlte/internal/auth"
	"dlte/internal/geo"
)

// APRecord describes one registered access point.
type APRecord struct {
	// ID is the AP's unique identity.
	ID string `json:"id"`
	// X2Addr is where peers reach the AP's X2 endpoint ("host:port").
	X2Addr string `json:"x2_addr"`
	// X and Y are the AP position in meters (registry-declared).
	X float64 `json:"x"`
	Y float64 `json:"y"`
	// Band names the operating band.
	Band string `json:"band"`
	// EIRPdBm and HeightM feed contention-domain analysis.
	EIRPdBm float64 `json:"eirp_dbm"`
	HeightM float64 `json:"height_m"`
	// Mode is the declared coordination mode ("fair-share",
	// "cooperative", "selfish").
	Mode string `json:"mode"`
}

// Position returns the record's location as a geo.Point.
func (r APRecord) Position() geo.Point { return geo.Pt(r.X, r.Y) }

// KeyRecord is a published open-SIM key (hex-encoded).
type KeyRecord struct {
	IMSI string `json:"imsi"`
	K    string `json:"k"`
	OPc  string `json:"opc"`
}

// Publication converts to auth material.
func (k KeyRecord) Publication() (auth.KeyPublication, error) {
	kb, err := hex.DecodeString(k.K)
	if err != nil {
		return auth.KeyPublication{}, fmt.Errorf("registry: bad K: %w", err)
	}
	ob, err := hex.DecodeString(k.OPc)
	if err != nil {
		return auth.KeyPublication{}, fmt.Errorf("registry: bad OPc: %w", err)
	}
	return auth.KeyPublication{IMSI: auth.IMSI(k.IMSI), K: kb, OPc: ob}, nil
}

// NewKeyRecord encodes auth material for publication.
func NewKeyRecord(p auth.KeyPublication) KeyRecord {
	return KeyRecord{IMSI: string(p.IMSI), K: hex.EncodeToString(p.K), OPc: hex.EncodeToString(p.OPc)}
}

// Errors from store and protocol operations.
var (
	ErrBadRecord = errors.New("registry: invalid record")
	ErrNotFound  = errors.New("registry: not found")
	// ErrDeltaGap reports that the requested revision has aged out of
	// the server's bounded delta log; the caller must resync from a
	// full snapshot.
	ErrDeltaGap = errors.New("registry: delta gap (full resync required)")
)
