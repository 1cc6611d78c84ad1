package core

import (
	"fmt"
	"time"

	"dlte/internal/auth"
	"dlte/internal/geo"
	"dlte/internal/radio"
	"dlte/internal/registry"
	"dlte/internal/simnet"
	"dlte/internal/ue"
)

// RegistryPort is the global registry's listen port.
const RegistryPort = 8400

// Scenario wires a complete dLTE world on a simulated internetwork:
// one global registry, any number of APs, UEs, and service hosts. It
// is the builder the examples and experiments share.
type Scenario struct {
	Net      *simnet.Network
	Registry *registry.Store

	regListener *simnet.Listener
	aps         map[string]*AccessPoint
	ues         map[string]*ue.Device
	closed      bool
}

// RegistryAddr is the registry's dial address within a scenario.
const RegistryAddr = "registry:8400"

// NewScenario builds the simulated internetwork with the given default
// (WAN) link parameters and starts the registry. The scenario runs on
// a VirtualClock owned by its network: simulated latencies cost no
// wall time, and same-seed runs are deterministic. The calling
// goroutine is the clock's registered driver — helper goroutines it
// spawns must use Clock().Go, and out-of-band waits must be bracketed
// with Clock().Block/Unblock (see simnet.Clock).
func NewScenario(wan simnet.Link, seed int64) (*Scenario, error) {
	s := &Scenario{
		Net:      simnet.NewVirtualNetwork(wan, seed),
		Registry: registry.NewStore(),
		aps:      make(map[string]*AccessPoint),
		ues:      make(map[string]*ue.Device),
	}
	regHost, err := s.Net.AddHost("registry")
	if err != nil {
		s.Net.Close()
		return nil, err
	}
	l, err := regHost.Listen(RegistryPort)
	if err != nil {
		s.Net.Close()
		return nil, err
	}
	s.regListener = l
	registry.NewServer(s.Registry).Serve(l)
	return s, nil
}

// Clock returns the clock the scenario's world runs on.
func (s *Scenario) Clock() simnet.Clock { return s.Net.Clock() }

// AddAP creates a host named cfg.ID, brings up a dLTE AP on it, and
// joins it to the registry.
func (s *Scenario) AddAP(cfg APConfig) (*AccessPoint, error) {
	host, err := s.Net.AddHost(cfg.ID)
	if err != nil {
		return nil, err
	}
	cfg.RegistryAddr = RegistryAddr
	ap, err := NewAccessPoint(host, cfg)
	if err != nil {
		return nil, err
	}
	if err := ap.JoinRegistry(); err != nil {
		ap.Close()
		return nil, err
	}
	s.aps[cfg.ID] = ap
	return ap, nil
}

// AP returns a scenario AP by ID.
func (s *Scenario) AP(id string) *AccessPoint { return s.aps[id] }

// AddUE creates a UE host and device with a freshly provisioned SIM,
// and publishes its open-SIM key to the registry.
func (s *Scenario) AddUE(name string, imsi auth.IMSI) (*ue.Device, error) {
	sim, err := auth.NewSIM(imsi)
	if err != nil {
		return nil, err
	}
	host, err := s.Net.AddHost(name)
	if err != nil {
		return nil, err
	}
	d, err := ue.NewDevice(host, sim)
	if err != nil {
		return nil, err
	}
	if err := s.Registry.PublishKey(registry.NewKeyRecord(d.Publication())); err != nil {
		return nil, err
	}
	s.ues[name] = d
	return d, nil
}

// UE returns a scenario UE by name.
func (s *Scenario) UE(name string) *ue.Device { return s.ues[name] }

// AirLink derives simulated link parameters for a UE↔AP radio leg
// from the radio model: LTE scheduled-access latency plus the
// SNR-derived throughput at the given distance. A dead link (no
// throughput) is returned as a down link.
func AirLink(band radio.Band, dKm float64) simnet.Link {
	dl := radio.Link{Tx: radio.LTEBaseStation, Rx: radio.LTEHandset, Band: band}
	bps := radio.LTEThroughputBps(dl.SNRdB(dKm), band.BandwidthHz(), true)
	if bps <= 0 {
		return simnet.Link{Down: true}
	}
	return simnet.Link{
		// One scheduling round trip: SR + grant + HARQ timing ≈ 5 ms.
		Latency:      5 * time.Millisecond,
		BandwidthBps: bps,
	}
}

// ConnectUERadio configures the air link between a UE host and an AP
// using the AP's band and the geometric distance between uePos and the
// AP site.
func (s *Scenario) ConnectUERadio(ueName, apID string, uePos geo.Point) error {
	ap, ok := s.aps[apID]
	if !ok {
		return fmt.Errorf("core: no AP %q", apID)
	}
	dKm := uePos.DistanceTo(ap.Position()) / 1000
	s.Net.SetLink(ueName, apID, AirLink(ap.cfg.Band, dKm))
	return nil
}

// APSignal is one entry of a cell-selection scan.
type APSignal struct {
	// ID is the AP identity.
	ID string
	// RSRPdBm is the reference signal power a UE at the scan position
	// would receive.
	RSRPdBm float64
	// Usable reports whether the downlink closes at all.
	Usable bool
}

// RankAPs performs the UE-side cell-selection scan the paper's
// cooperative mode builds on ("assignment of the best AP to serve
// each client", §4.3): every scenario AP is ranked by RSRP at uePos,
// strongest first.
func (s *Scenario) RankAPs(uePos geo.Point) []APSignal {
	out := make([]APSignal, 0, len(s.aps))
	for id, ap := range s.aps {
		dKm := uePos.DistanceTo(ap.Position()) / 1000
		link := radio.Link{Tx: radio.LTEBaseStation, Rx: radio.LTEHandset, Band: ap.cfg.Band}
		rsrp := link.RxPowerDBm(dKm)
		eff, _ := radio.LTEEfficiency(link.SNRdB(dKm), true)
		out = append(out, APSignal{ID: id, RSRPdBm: rsrp, Usable: eff > 0})
	}
	// Insertion sort by RSRP descending (tiny n).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].RSRPdBm > out[j-1].RSRPdBm; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// BestAP returns the strongest usable AP at uePos, if any.
func (s *Scenario) BestAP(uePos geo.Point) (*AccessPoint, bool) {
	for _, sig := range s.RankAPs(uePos) {
		if sig.Usable {
			return s.aps[sig.ID], true
		}
	}
	return nil, false
}

// Close tears down every component.
func (s *Scenario) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, ap := range s.aps {
		ap.Close()
	}
	for _, d := range s.ues {
		d.Close()
	}
	s.regListener.Close()
	s.Net.Close()
}
