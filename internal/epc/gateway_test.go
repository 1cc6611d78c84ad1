package epc

import (
	"errors"
	"strings"
	"testing"

	"dlte/internal/simnet"
)

// TestIPPoolReusesReleasedAddresses guards the free-list allocator:
// the old bump-only counter never reused a released address and walked
// off the 10.45.0.0/16 block after ~64k sessions.
func TestIPPoolReusesReleasedAddresses(t *testing.T) {
	n := simnet.NewVirtualNetwork(simnet.Link{}, 1)
	defer n.Close()
	gw, err := NewGateway(n.MustAddHost("gw"))
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	ip1, _, err := gw.CreateSession("imsi-1")
	if err != nil {
		t.Fatal(err)
	}
	if ip1 != "10.45.0.2" {
		t.Fatalf("first address = %s, want 10.45.0.2", ip1)
	}
	if err := gw.DeleteSession("imsi-1"); err != nil {
		t.Fatal(err)
	}
	ip2, _, err := gw.CreateSession("imsi-2")
	if err != nil {
		t.Fatal(err)
	}
	if ip2 != ip1 {
		t.Fatalf("released address not reused: got %s, want %s", ip2, ip1)
	}

	// Superseding an attach must also recycle the old session's address.
	ip3, _, err := gw.CreateSession("imsi-2")
	if err != nil {
		t.Fatal(err)
	}
	if ip3 != ip2 {
		t.Fatalf("superseded address not reused: got %s, want %s", ip3, ip2)
	}
}

// TestIPPoolExhaustion checks the typed error at the pool bound and
// that releasing a session makes an address available again.
func TestIPPoolExhaustion(t *testing.T) {
	n := simnet.NewVirtualNetwork(simnet.Link{}, 1)
	defer n.Close()
	gw, err := NewGateway(n.MustAddHost("gw"))
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	// Pretend every never-used index is gone; only the free list can
	// satisfy allocations now.
	gw.mu.Lock()
	gw.ipNext = maxIPIndex
	gw.mu.Unlock()

	if _, _, err := gw.CreateSession("imsi-a"); !errors.Is(err, ErrAddressPoolExhausted) {
		t.Fatalf("err = %v, want ErrAddressPoolExhausted", err)
	}

	gw.mu.Lock()
	gw.releaseIP(42)
	gw.mu.Unlock()
	ip, _, err := gw.CreateSession("imsi-a")
	if err != nil {
		t.Fatal(err)
	}
	if want := ipForIndex(42); ip != want {
		t.Fatalf("ip = %s, want recycled %s", ip, want)
	}
	if _, _, err := gw.CreateSession("imsi-b"); !errors.Is(err, ErrAddressPoolExhausted) {
		t.Fatalf("second create err = %v, want ErrAddressPoolExhausted", err)
	}
}

// TestIPFormulaSpansSubnet pins the index→address formula at its
// bounds so pool-size arithmetic and formula stay in sync.
func TestIPFormulaSpansSubnet(t *testing.T) {
	if got := ipForIndex(1); got != "10.45.0.2" {
		t.Errorf("ipForIndex(1) = %s", got)
	}
	if got := ipForIndex(maxIPIndex); got != "10.45.255.250" {
		t.Errorf("ipForIndex(max) = %s", got)
	}
}

// TestOversizeDownlinkCounted: return traffic whose source endpoint
// name does not fit the user-packet framing (a one-byte length) cannot
// be tunneled; it is dropped and counted, through to Core.Stats.
func TestOversizeDownlinkCounted(t *testing.T) {
	c := newHotpathCore(t)
	if _, _, err := c.gw.CreateSession("imsi-1"); err != nil {
		t.Fatal(err)
	}
	c.gw.mu.Lock()
	s := c.gw.sessions["imsi-1"]
	c.gw.mu.Unlock()
	if err := c.gw.BindDownlink("imsi-1", simnet.Addr{Host: "enb", Port: GTPPort}, 7); err != nil {
		t.Fatal(err)
	}
	before := c.Stats().UserPlaneDrops

	c.gw.downlink(s, []byte("data"), simnet.Addr{Host: strings.Repeat("h", 300), Port: 9000})
	got := c.Stats().UserPlaneDrops
	if got.OversizeDownlink != before.OversizeDownlink+1 {
		t.Errorf("OversizeDownlink = %d, want %d", got.OversizeDownlink, before.OversizeDownlink+1)
	}
	if got.Total() != before.Total()+1 {
		t.Errorf("Total = %d, want %d: the drop is not in the total", got.Total(), before.Total()+1)
	}

	// A name that fits is forwarded, not counted.
	c.gw.downlink(s, []byte("data"), simnet.Addr{Host: strings.Repeat("h", 200), Port: 9000})
	if again := c.Stats().UserPlaneDrops; again != got {
		t.Errorf("forwardable packet moved the drop counters: %+v → %+v", got, again)
	}
}
