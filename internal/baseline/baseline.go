// Package baseline implements the comparison architectures from the
// paper's design-space table (Table 1): the centralized telecom LTE
// network (closed core, all traffic tunneled through a distant EPC),
// private/enterprise LTE (the same closed core on premises), and
// legacy WiFi (independent CSMA access points, no core, no
// coordination). Every dLTE experiment measures against one or more
// of these.
package baseline

import (
	"fmt"
	"time"

	"dlte/internal/enb"
	"dlte/internal/epc"
	"dlte/internal/phy"
	"dlte/internal/simnet"
)

// CentralizedConfig shapes a telecom-style deployment.
type CentralizedConfig struct {
	// Name labels the operator core.
	Name string
	// TAC is the (single) tracking area.
	TAC uint16
	// WANLink is the backhaul between each cell site and the EPC.
	WANLink simnet.Link
	// ProcessingDelay models the shared core's signaling capacity
	// (see epc.Config).
	ProcessingDelay time.Duration
	// SignalingProcessors models a sharded MME servicing this many
	// signaling messages in parallel (see epc.Config; 0 or 1 is the
	// classic single processor).
	SignalingProcessors int
	// OnPrem marks a private-LTE deployment: the core still admits
	// only authorized eNodeBs, but sits near the sites (the caller
	// sets a short WANLink accordingly).
	OnPrem bool
}

// Centralized is a running telecom/private LTE network: one closed
// core, N authorized cell sites.
type Centralized struct {
	cfg     CentralizedConfig
	net     *simnet.Network
	Core    *epc.Core
	epcHost *simnet.Host
	sites   map[string]*enb.ENodeB
	nextID  uint32
}

// NewCentralized brings up the operator core on a host named
// coreName.
func NewCentralized(n *simnet.Network, coreName string, cfg CentralizedConfig) (*Centralized, error) {
	if cfg.Name == "" {
		cfg.Name = coreName
	}
	host, err := n.AddHost(coreName)
	if err != nil {
		return nil, err
	}
	core, err := epc.NewCore(host, epc.Config{
		Name:                    cfg.Name,
		SNID:                    cfg.Name,
		TAC:                     cfg.TAC,
		DirectBreakout:          false, // everything tunnels through here
		OpenHSS:                 false, // closed subscriber store
		ProcessingDelay:         cfg.ProcessingDelay,
		SignalingProcessors:     cfg.SignalingProcessors,
		RequireENBAuthorization: true, // closed to organic expansion
	})
	if err != nil {
		return nil, err
	}
	l, err := host.Listen(epc.S1APPort)
	if err != nil {
		core.Close()
		return nil, err
	}
	core.ServeS1AP(l)
	return &Centralized{
		cfg: cfg, net: n, Core: core, epcHost: host,
		sites: make(map[string]*enb.ENodeB),
	}, nil
}

// CoreHost reports the EPC's host name.
func (c *Centralized) CoreHost() string { return c.epcHost.Name() }

// AddSite provisions and authorizes a new cell site: the operator's
// deliberate act that dLTE replaces with open registry join. It
// creates the site host, sets its WAN link to the core, authorizes
// the eNodeB, and brings it up.
func (c *Centralized) AddSite(name string) (*enb.ENodeB, error) {
	host, err := c.net.AddHost(name)
	if err != nil {
		return nil, err
	}
	c.net.SetLink(name, c.epcHost.Name(), c.cfg.WANLink)
	c.nextID++
	id := c.nextID
	c.Core.AuthorizeENB(id)
	e, err := enb.New(host, enb.Config{
		ID: id, Name: name, TAC: c.cfg.TAC,
		MMEAddr: fmt.Sprintf("%s:%d", c.epcHost.Name(), epc.S1APPort),
	})
	if err != nil {
		return nil, err
	}
	c.sites[name] = e
	return e, nil
}

// TryRogueSite attempts to attach an unauthorized eNodeB — the organic
// expansion a closed core forbids. It returns the (expected) error.
func (c *Centralized) TryRogueSite(name string) error {
	host, err := c.net.AddHost(name)
	if err != nil {
		return err
	}
	c.net.SetLink(name, c.epcHost.Name(), c.cfg.WANLink)
	e, err := enb.New(host, enb.Config{
		ID: 0xDEAD, Name: name, TAC: c.cfg.TAC,
		MMEAddr: fmt.Sprintf("%s:%d", c.epcHost.Name(), epc.S1APPort),
	})
	if err == nil {
		e.Close()
		return nil
	}
	return err
}

// Site returns a running site by name.
func (c *Centralized) Site(name string) *enb.ENodeB { return c.sites[name] }

// Close tears everything down.
func (c *Centralized) Close() {
	for _, e := range c.sites {
		e.Close()
	}
	c.Core.Close()
}

// --- Legacy WiFi ---------------------------------------------------------

// WiFiNetwork models a set of independent WiFi APs: no core, no
// coordination, CSMA contention within sensing range. It is evaluated
// purely at the MAC/PHY level (phy.SimulateDCF); association has no
// signaling plane to speak of.
type WiFiNetwork struct {
	// Stations are the contending transmitters (APs and/or clients).
	Stations []phy.DCFStation
	// Sense is the carrier-sense matrix (nil = all mutually audible).
	Sense [][]bool
	// Seed drives the contention process.
	Seed int64
}

// SaturationThroughput runs the DCF contention simulation for the
// given virtual duration.
func (w WiFiNetwork) SaturationThroughput(seconds float64) phy.DCFResult {
	return phy.SimulateDCF(phy.DCFConfig{Stations: w.Stations, Sense: w.Sense, Seed: w.Seed}, seconds)
}

// WiFiAssociationLatency is the nominal open-auth association plus
// DHCP exchange of a legacy WiFi join — the "attach" comparison point
// for E1/E3. (Four management frames plus a DHCP DORA over a ~2 ms
// air RTT.)
const WiFiAssociationLatency = 40 * time.Millisecond

// OpennessResult captures Table 1's qualitative axes as measured
// outcomes for one architecture.
type OpennessResult struct {
	Architecture string
	// NewAPJoins reports whether an unauthorized newcomer AP could
	// join and serve clients.
	NewAPJoins bool
	// LicensedRadio reports whether the architecture can use
	// coordinated licensed spectrum.
	LicensedRadio bool
	// CoordinatedSpectrum reports whether co-channel APs coordinate
	// (scheduling/TDM) rather than contend.
	CoordinatedSpectrum bool
}
