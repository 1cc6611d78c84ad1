// Package core implements the dLTE access point — the paper's primary
// contribution (§4). One AccessPoint bundles everything a standalone
// dLTE site needs:
//
//   - a local EPC stub (epc.Core with direct breakout and an open HSS)
//     virtualizing S-GW/P-GW/MME/HSS on the AP itself (§4.1);
//   - an eNodeB front-end standard clients attach to;
//   - a registry client for open join and peer discovery (§4.3);
//   - an X2 coordination agent implementing fair-share and cooperative
//     modes with its contention-domain neighbors (§4.3).
//
// The package also provides the Coordinator logic that turns registry
// state into contention domains and negotiated airtime shares.
package core

import (
	"fmt"
	"sync"
	"time"

	"dlte/internal/enb"
	"dlte/internal/epc"
	"dlte/internal/geo"
	"dlte/internal/mobility"
	"dlte/internal/radio"
	"dlte/internal/registry"
	"dlte/internal/simnet"
	"dlte/internal/spectrum"
	"dlte/internal/x2"
)

// X2Port is where APs listen for peer associations.
const X2Port = 36422

// APConfig shapes one dLTE access point.
type APConfig struct {
	// ID is the AP's registry identity (also its SNID).
	ID string
	// Position is the site location in scenario coordinates (meters).
	Position geo.Point
	// Band is the operating band.
	Band radio.Band
	// HeightM and EIRPdBm describe the transmitter for coordination.
	HeightM, EIRPdBm float64
	// Mode is the owner's chosen coordination mode.
	Mode x2.Mode
	// TAC is the AP's tracking area (each dLTE AP is its own TA).
	TAC uint16
	// RegistryAddr is the global registry ("host:port"); empty runs
	// the AP standalone (the paper's single-site deployment, §5).
	RegistryAddr string
	// ProcessingDelay models the stub core's per-signaling-message
	// service time (see epc.Config); experiments set it equal to the
	// centralized core's so scaling comparisons isolate sharing.
	ProcessingDelay time.Duration
	// Trigger is the AP's RSRP handover policy; the zero value means
	// mobility.DefaultTrigger.
	Trigger mobility.Trigger
	// Meter, when non-nil, is a shared mobility measurement seam (see
	// mobility.Config.Meter); nil gives the AP a private one.
	Meter *mobility.Meter
}

// AccessPoint is a running dLTE site.
type AccessPoint struct {
	cfg  APConfig
	host *simnet.Host

	Core     *epc.Core
	ENB      *enb.ENodeB
	Agent    *x2.Agent
	Mobility *mobility.Plane
	reg      *registry.Client
	mirror   *registry.Mirror
	keyRev   uint64 // registry revision key sync is current through

	s1Listener *simnet.Listener
	x2Listener *simnet.Listener

	mu             sync.Mutex
	shares         map[string]float64 // negotiated airtime by AP ID
	loads          map[string]x2.LoadInformation
	peers          []string // current contention-domain peers
	relayGrantBps  uint64
	relayGrantFrom string

	closed bool
}

// NewAccessPoint brings up the full AP stack on host: stub core, S1AP
// loopback, eNodeB, and X2 listener. Join the registry separately with
// JoinRegistry (so tests can run standalone APs).
func NewAccessPoint(host *simnet.Host, cfg APConfig) (*AccessPoint, error) {
	if cfg.ID == "" {
		cfg.ID = host.Name()
	}
	if cfg.Band.Name == "" {
		cfg.Band = radio.LTEBand5
	}
	ap := &AccessPoint{
		cfg:    cfg,
		host:   host,
		shares: map[string]float64{cfg.ID: 1},
		loads:  make(map[string]x2.LoadInformation),
	}

	core, err := epc.NewCore(host, epc.Config{
		Name:            cfg.ID,
		SNID:            cfg.ID,
		TAC:             cfg.TAC,
		DirectBreakout:  true,
		OpenHSS:         true,
		ProcessingDelay: cfg.ProcessingDelay,
	})
	if err != nil {
		return nil, fmt.Errorf("core: stub EPC: %w", err)
	}
	ap.Core = core

	s1l, err := host.Listen(epc.S1APPort)
	if err != nil {
		core.Close()
		return nil, fmt.Errorf("core: S1AP listen: %w", err)
	}
	ap.s1Listener = s1l
	core.ServeS1AP(s1l)

	e, err := enb.New(host, enb.Config{
		ID:      hashID(cfg.ID),
		Name:    cfg.ID,
		TAC:     cfg.TAC,
		MMEAddr: fmt.Sprintf("%s:%d", host.Name(), epc.S1APPort),
	})
	if err != nil {
		s1l.Close()
		core.Close()
		return nil, fmt.Errorf("core: eNodeB: %w", err)
	}
	ap.ENB = e

	ap.Agent = x2.NewAgent(cfg.ID, x2.PeerHello{
		X: cfg.Position.X, Y: cfg.Position.Y,
		BandName: cfg.Band.Name, Mode: cfg.Mode,
	}, ap.handleX2)
	ap.Mobility = mobility.NewPlane(mobility.Config{
		APID: cfg.ID, X2: ap.Agent, Core: core,
		Trigger: cfg.Trigger, Meter: cfg.Meter,
	})
	x2l, err := host.Listen(X2Port)
	if err != nil {
		e.Close()
		s1l.Close()
		core.Close()
		return nil, fmt.Errorf("core: X2 listen: %w", err)
	}
	ap.x2Listener = x2l
	ap.Agent.Serve(x2l)

	return ap, nil
}

// hashID derives a stable numeric eNB ID from the AP name.
func hashID(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// ID reports the AP identity.
func (ap *AccessPoint) ID() string { return ap.cfg.ID }

// AirAddr is where UEs attach.
func (ap *AccessPoint) AirAddr() string { return ap.ENB.AirAddr() }

// Position reports the site location.
func (ap *AccessPoint) Position() geo.Point { return ap.cfg.Position }

// Mode reports the configured coordination mode.
func (ap *AccessPoint) Mode() x2.Mode { return ap.cfg.Mode }

// Record builds the AP's registry record.
func (ap *AccessPoint) Record() registry.APRecord {
	return registry.APRecord{
		ID:      ap.cfg.ID,
		X2Addr:  fmt.Sprintf("%s:%d", ap.host.Name(), X2Port),
		X:       ap.cfg.Position.X,
		Y:       ap.cfg.Position.Y,
		Band:    ap.cfg.Band.Name,
		EIRPdBm: ap.cfg.EIRPdBm,
		HeightM: ap.cfg.HeightM,
		Mode:    ap.cfg.Mode.String(),
	}
}

// registrySyncTimeout bounds how long AP reads wait for the local
// mirror to catch up to the server revision they observed.
const registrySyncTimeout = 5 * time.Second

// JoinRegistry connects to the global registry, publishes this AP's
// record — the open-join step that telecom cores have no analogue for —
// and subscribes a local mirror to the revision-delta feed, so later
// discovery and key syncs read locally instead of re-pulling full
// lists.
func (ap *AccessPoint) JoinRegistry() error {
	if ap.cfg.RegistryAddr == "" {
		return fmt.Errorf("core: no registry configured")
	}
	c, err := registry.Dial(ap.host.Dial, ap.cfg.RegistryAddr)
	if err != nil {
		return err
	}
	m, err := registry.NewMirror(ap.host.Dial, ap.cfg.RegistryAddr, 0)
	if err != nil {
		c.Close()
		return err
	}
	ap.mu.Lock()
	ap.reg = c
	ap.mirror = m
	ap.mu.Unlock()
	return c.Join(ap.Record())
}

// syncMirror reads the server's revision (one tiny round trip) and
// waits for the mirror to apply at least that much, so reads below see
// everything that existed when the caller asked.
func (ap *AccessPoint) syncMirror() (*registry.Mirror, error) {
	ap.mu.Lock()
	c, m := ap.reg, ap.mirror
	ap.mu.Unlock()
	if c == nil || m == nil {
		return nil, fmt.Errorf("core: not joined to a registry")
	}
	rev, err := c.Revision()
	if err != nil {
		return nil, err
	}
	if err := m.WaitRev(rev, registrySyncTimeout); err != nil {
		return nil, err
	}
	return m, nil
}

// SyncSubscriberKeys imports published open-SIM keys from the registry
// into the stub's HSS, so any published subscriber can attach here
// (§4.2 key publication). Sync is incremental: only keys that arrived
// on the delta feed since the previous call are imported, instead of
// re-pulling every key each time.
func (ap *AccessPoint) SyncSubscriberKeys() (int, error) {
	m, err := ap.syncMirror()
	if err != nil {
		return 0, err
	}
	ap.mu.Lock()
	since := ap.keyRev
	ap.mu.Unlock()
	keys, upTo := m.KeysSince(since)
	n := 0
	for _, k := range keys {
		pub, err := k.Publication()
		if err != nil {
			continue
		}
		if err := ap.Core.ImportPublishedKey(pub); err == nil {
			n++
		}
	}
	ap.mu.Lock()
	if upTo > ap.keyRev {
		ap.keyRev = upTo
	}
	ap.mu.Unlock()
	return n, nil
}

// DiscoverPeers reads same-band APs from the local registry mirror
// (after catching it up to the server's current revision), computes the
// RF contention domain this AP belongs to, and opens X2 associations
// to every domain member. It returns the domain's member IDs
// (including this AP).
func (ap *AccessPoint) DiscoverPeers() ([]string, error) {
	m, err := ap.syncMirror()
	if err != nil {
		return nil, err
	}
	records := m.List(ap.cfg.Band.Name)
	grants := make([]spectrum.Grant, 0, len(records))
	byID := make(map[string]registry.APRecord, len(records))
	for _, r := range records {
		grants = append(grants, spectrum.Grant{
			APID: r.ID, Band: r.Band, Position: r.Position(),
			EIRPdBm: r.EIRPdBm, HeightM: r.HeightM,
		})
		byID[r.ID] = r
	}
	domains := spectrum.ContentionDomains(grants, radio.Auto{}, spectrum.InterferenceThresholdDBm)
	domain := spectrum.DomainOf(domains, ap.cfg.ID)

	connected := map[string]bool{}
	for _, id := range ap.Agent.Peers() {
		connected[id] = true
	}
	for _, member := range domain {
		if member == ap.cfg.ID || connected[member] {
			continue
		}
		rec := byID[member]
		if _, err := ap.Agent.Connect(ap.host.Dial, rec.X2Addr); err != nil {
			continue // unreachable peers are retried at next discovery
		}
	}
	peers := make([]string, 0, len(domain)-1)
	for _, m := range domain {
		if m != ap.cfg.ID {
			peers = append(peers, m)
		}
	}
	ap.mu.Lock()
	ap.peers = peers
	ap.mu.Unlock()
	return domain, nil
}

// Peers reports the last-discovered contention-domain peers.
func (ap *AccessPoint) Peers() []string {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	return append([]string{}, ap.peers...)
}

// Close tears down the AP stack.
func (ap *AccessPoint) Close() {
	ap.mu.Lock()
	if ap.closed {
		ap.mu.Unlock()
		return
	}
	ap.closed = true
	reg, mirror := ap.reg, ap.mirror
	ap.mu.Unlock()
	if reg != nil {
		reg.Leave(ap.cfg.ID)
		reg.Close()
	}
	if mirror != nil {
		mirror.Close()
	}
	ap.Agent.Close()
	ap.x2Listener.Close()
	ap.ENB.Close()
	ap.s1Listener.Close()
	ap.Core.Close()
}
