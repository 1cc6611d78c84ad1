package core

import (
	"dlte/internal/x2"
)

// This file implements the AP's coordination behaviour: the X2 message
// handler and the share-negotiation logic for fair-share and
// cooperative modes (§4.3). The handover choreography that used to be
// dispatched here (context push, request/ack, complete) now belongs to
// the AP's mobility plane (internal/mobility): handleX2 funnels every
// message through the plane first and only handles what it declines.

// handleX2 dispatches inbound peer messages.
func (ap *AccessPoint) handleX2(peerID string, msg x2.Message) {
	if ap.Mobility.HandleX2(peerID, msg) {
		return
	}
	switch m := msg.(type) {
	case *x2.LoadInformation:
		ap.mu.Lock()
		ap.loads[m.APID] = *m
		ap.mu.Unlock()

	case *x2.ShareUpdate:
		// Adopt the broadcast share pattern.
		ap.mu.Lock()
		for i, id := range m.APIDs {
			ap.shares[id] = float64(m.Fractions[i]) / 10000
		}
		ap.mu.Unlock()

	case *x2.ModeProposal:
		// Owners opt in: accept cooperation only if our owner also
		// configured cooperative mode; always accept fair-share (it is
		// the protocol's baseline obligation).
		accept := m.Mode == x2.ModeFairShare || ap.cfg.Mode == x2.ModeCooperative
		ap.Agent.Send(peerID, &x2.ModeResponse{APID: ap.cfg.ID, Mode: m.Mode, Accepted: accept})

	case *x2.RelayRequest:
		// Grant relay capacity within our backhaul budget (§7); the
		// experiment harness measures the effect at the phy layer.
		ap.Agent.Send(peerID, &x2.RelayResponse{APID: ap.cfg.ID, Granted: true, GrantedBps: m.NeededBps})

	case *x2.RelayResponse:
		ap.mu.Lock()
		ap.relayGrantBps = 0
		if m.Granted {
			ap.relayGrantBps = m.GrantedBps
		}
		ap.relayGrantFrom = m.APID
		ap.mu.Unlock()
	}
}

// RequestRelay asks a peer to carry traffic during a backhaul outage
// (§7). The grant arrives asynchronously; watch RelayGrant.
func (ap *AccessPoint) RequestRelay(peer string, neededBps uint64) error {
	return ap.Agent.Send(peer, &x2.RelayRequest{APID: ap.cfg.ID, NeededBps: neededBps})
}

// RelayGrant reports the most recent relay grant (0 if none).
func (ap *AccessPoint) RelayGrant() (bps uint64, from string) {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	return ap.relayGrantBps, ap.relayGrantFrom
}

// AdvertiseLoad broadcasts this AP's current load to all peers.
func (ap *AccessPoint) AdvertiseLoad() error {
	load := ap.currentLoad()
	ap.mu.Lock()
	ap.loads[ap.cfg.ID] = load
	ap.mu.Unlock()
	return ap.Agent.Broadcast(&load)
}

func (ap *AccessPoint) currentLoad() x2.LoadInformation {
	return x2.LoadInformation{
		APID:        ap.cfg.ID,
		AttachedUEs: uint16(ap.Core.Gateway().NumSessions()),
	}
}

// NegotiateShares computes the airtime split for this AP's contention
// domain per the configured mode and broadcasts it over X2:
//
//   - fair-share: equal split regardless of load — "the bare minimum
//     of fair time-frequency sharing";
//   - cooperative: load-proportional split (empty peers cede airtime),
//     using the latest LoadInformation from each peer.
//
// It returns this AP's resulting share.
func (ap *AccessPoint) NegotiateShares() (float64, error) {
	ap.mu.Lock()
	members := append([]string{ap.cfg.ID}, ap.peers...)
	mode := ap.cfg.Mode
	loads := make(map[string]x2.LoadInformation, len(ap.loads))
	for k, v := range ap.loads {
		loads[k] = v
	}
	ap.mu.Unlock()

	shares := make(map[string]float64, len(members))
	switch mode {
	case x2.ModeCooperative:
		total := 0.0
		weights := make(map[string]float64, len(members))
		for _, id := range members {
			w := float64(loads[id].AttachedUEs)
			if id == ap.cfg.ID {
				w = float64(ap.currentLoad().AttachedUEs)
			}
			weights[id] = w
			total += w
		}
		if total == 0 {
			for _, id := range members {
				shares[id] = 1 / float64(len(members))
			}
		} else {
			for _, id := range members {
				shares[id] = weights[id] / total
			}
		}
	default: // fair-share (and selfish APs still honor fairness when asked)
		for _, id := range members {
			shares[id] = 1 / float64(len(members))
		}
	}

	upd := &x2.ShareUpdate{}
	for _, id := range members {
		upd.APIDs = append(upd.APIDs, id)
		upd.Fractions = append(upd.Fractions, uint16(shares[id]*10000))
	}
	ap.mu.Lock()
	for id, s := range shares {
		ap.shares[id] = s
	}
	own := ap.shares[ap.cfg.ID]
	ap.mu.Unlock()

	if err := ap.Agent.Broadcast(upd); err != nil {
		return own, err
	}
	return own, nil
}

// Share reports this AP's current negotiated airtime share.
func (ap *AccessPoint) Share() float64 {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	return ap.shares[ap.cfg.ID]
}

// ShareOf reports the negotiated share of any domain member.
func (ap *AccessPoint) ShareOf(id string) float64 {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	return ap.shares[id]
}
