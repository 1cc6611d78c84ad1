package baseline

import (
	"strings"
	"testing"
	"time"

	"dlte/internal/auth"
	"dlte/internal/phy"
	"dlte/internal/simnet"
	"dlte/internal/ue"
)

func newCentral(t *testing.T, wan simnet.Link) (*simnet.Network, *Centralized) {
	t.Helper()
	n := simnet.NewVirtualNetwork(simnet.Link{Latency: 2 * time.Millisecond}, 1)
	t.Cleanup(n.Close)
	c, err := NewCentralized(n, "telco-epc", CentralizedConfig{TAC: 1, WANLink: wan})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return n, c
}

func TestCentralizedAttachThroughWAN(t *testing.T) {
	n, c := newCentral(t, simnet.Link{Latency: 15 * time.Millisecond})
	site, err := c.AddSite("cell-1")
	if err != nil {
		t.Fatal(err)
	}
	sim, _ := auth.NewSIM("001010000000501")
	if err := c.Core.Provision(sim); err != nil {
		t.Fatal(err)
	}
	ueHost := n.MustAddHost("ue1")
	n.SetLink("ue1", "cell-1", simnet.Link{Latency: 5 * time.Millisecond})
	d, _ := ue.NewDevice(ueHost, sim)
	t.Cleanup(d.Close)
	res, err := d.Attach(site.AirAddr(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.DirectBreakout {
		t.Error("telecom core advertised breakout")
	}
	if res.Duration < 60*time.Millisecond {
		t.Errorf("attach %v too fast for a 15 ms WAN", res.Duration)
	}
}

func TestClosedCoreRefusesRogueSite(t *testing.T) {
	_, c := newCentral(t, simnet.Link{Latency: time.Millisecond})
	if _, err := c.AddSite("authorized"); err != nil {
		t.Fatalf("authorized site refused: %v", err)
	}
	err := c.TryRogueSite("rogue")
	if err == nil {
		t.Fatal("rogue eNodeB joined the closed core — Table 1's closed-core property is broken")
	}
	if !strings.Contains(err.Error(), "S1") && !strings.Contains(err.Error(), "setup") {
		t.Logf("rogue refusal error (ok): %v", err)
	}
	if c.Site("authorized") == nil || c.Site("rogue") != nil {
		t.Error("site bookkeeping wrong")
	}
	if c.CoreHost() != "telco-epc" {
		t.Errorf("CoreHost = %s", c.CoreHost())
	}
}

func TestWiFiNetworkSaturation(t *testing.T) {
	w := WiFiNetwork{
		Stations: []phy.DCFStation{
			{ID: "ap1", RateBps: 54e6, Saturated: true},
			{ID: "ap2", RateBps: 54e6, Saturated: true},
			{ID: "ap3", RateBps: 54e6, Saturated: true},
		},
		Seed: 1,
	}
	res := w.SaturationThroughput(0.5)
	if res.TotalBps <= 0 {
		t.Fatal("no throughput")
	}
	if res.Collisions == 0 {
		t.Error("three saturated stations never collided")
	}
}

func TestWiFiAssociationLatencyOrder(t *testing.T) {
	// Sanity: the constant sits between "instant" and an LTE attach
	// over a WAN.
	if WiFiAssociationLatency < 10*time.Millisecond || WiFiAssociationLatency > time.Second {
		t.Errorf("WiFiAssociationLatency = %v", WiFiAssociationLatency)
	}
}

// runAttachStorm measures the simulated time nUE concurrent attaches
// take against a centralized core with the given processing delay.
func runAttachStorm(t *testing.T, delay time.Duration, nUE int) time.Duration {
	t.Helper()
	n := simnet.NewVirtualNetwork(simnet.Link{Latency: time.Millisecond}, 1)
	t.Cleanup(n.Close)
	c, err := NewCentralized(n, "epc", CentralizedConfig{
		TAC: 1, WANLink: simnet.Link{Latency: time.Millisecond},
		ProcessingDelay: delay,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	site, err := c.AddSite("cell-1")
	if err != nil {
		t.Fatal(err)
	}

	clk := n.Clock()
	done := simnet.NewMailbox[error](clk.(*simnet.VirtualClock), nUE)
	start := clk.Now()
	for i := 0; i < nUE; i++ {
		sim, _ := auth.NewSIM(auth.IMSI("0010100000006" + string(rune('0'+i)) + "0"))
		if err := c.Core.Provision(sim); err != nil {
			t.Fatal(err)
		}
		host := n.MustAddHost("ue" + string(rune('0'+i)))
		n.SetLink(host.Name(), "cell-1", simnet.Link{Latency: time.Millisecond})
		d, _ := ue.NewDevice(host, sim)
		t.Cleanup(d.Close)
		clk.Go(func() {
			_, err := d.Attach(site.AirAddr(), 20*time.Second)
			done.Put(err)
		})
	}
	for i := 0; i < nUE; i++ {
		if err, _ := done.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	return clk.Since(start)
}

func TestProcessingDelayCapsSignalingRate(t *testing.T) {
	fast := runAttachStorm(t, 0, 3)
	slow := runAttachStorm(t, 5*time.Millisecond, 3)
	// ~9+ core messages complete before the last UE finishes; they
	// serialize through the modeled processor.
	if slow < fast+30*time.Millisecond {
		t.Errorf("delayed storm %v vs undelayed %v — processor not serializing", slow, fast)
	}
}
