package ott

import (
	"errors"
	"testing"
	"time"

	"dlte/internal/simnet"
)

// newNet builds a virtual-time network: delivery waits and timeouts
// below advance the VirtualClock instead of spinning wall-clock poll
// loops, so the tests are deterministic and complete in microseconds
// of real time.
func newNet(t *testing.T) *simnet.Network {
	t.Helper()
	n := simnet.NewVirtualNetwork(simnet.Link{Latency: time.Millisecond}, 1)
	t.Cleanup(n.Close)
	return n
}

// recv reads one datagram from a test client socket, waiting up to
// timeout of virtual time.
func recv(pc *simnet.PacketConn, timeout time.Duration) ([]byte, error) {
	pc.SetReadDeadline(pc.Clock().Now().Add(timeout))
	data, _, err := pc.ReadFromOwned()
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), data...)
	simnet.PutPayload(data)
	return out, nil
}

func TestEchoServer(t *testing.T) {
	n := newNet(t)
	srv := n.MustAddHost("srv")
	cli := n.MustAddHost("cli")
	e, err := NewEchoServer(srv, 9000)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)

	pc, _ := cli.ListenPacket(0)
	for i := 0; i < 3; i++ {
		pc.WriteToHost([]byte{byte(i)}, "srv", 9000)
		got, err := recv(pc, 2*time.Second)
		if err != nil {
			t.Fatalf("echo %d: %v", i, err)
		}
		if len(got) != 1 || got[0] != byte(i) {
			t.Errorf("echo %d = %v", i, got)
		}
	}
	if e.Count() != 3 {
		t.Errorf("Count = %d", e.Count())
	}
}

func TestIdentityProvider(t *testing.T) {
	p := NewIdentityProvider([]byte("secret"))
	p.Register("esther", "hunter2")
	now := time.Date(2026, 7, 4, 10, 0, 0, 0, time.UTC)

	if _, err := p.Login("esther", "wrong", now, time.Hour); !errors.Is(err, ErrBadCredentials) {
		t.Errorf("wrong password: %v", err)
	}
	if _, err := p.Login("ghost", "x", now, time.Hour); !errors.Is(err, ErrBadCredentials) {
		t.Errorf("unknown user: %v", err)
	}
	tok, err := p.Login("esther", "hunter2", now, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	user, err := p.Verify(tok, now.Add(30*time.Minute))
	if err != nil || user != "esther" {
		t.Fatalf("verify: %q %v", user, err)
	}
	// The token survives any change of client address by construction
	// (it names the user, not the socket) — expiry is the only bound.
	if _, err := p.Verify(tok, now.Add(2*time.Hour)); !errors.Is(err, ErrTokenExpired) {
		t.Errorf("expired token: %v", err)
	}
	if _, err := p.Verify("garbage", now); !errors.Is(err, ErrBadToken) {
		t.Errorf("garbage token: %v", err)
	}
	if _, err := p.Verify(tok+"x", now); !errors.Is(err, ErrBadToken) {
		t.Errorf("tampered token: %v", err)
	}
}

func TestRelayDelivery(t *testing.T) {
	n := newNet(t)
	srv := n.MustAddHost("relay")
	alice := n.MustAddHost("alice")
	bob := n.MustAddHost("bob")
	r, err := NewRelay(srv, 9100)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)

	clk := n.Clock()
	pa, _ := alice.ListenPacket(0)
	pb, _ := bob.ListenPacket(0)
	pb.WriteToHost(RegisterFrame("bob"), "relay", 9100)

	// Wait for registration to land: one virtual sleep past the link
	// latency is enough, since virtual time only advances over a
	// quiescent network.
	deadline := clk.Now().Add(2 * time.Second)
	for {
		if _, ok := r.Registered("bob"); ok || clk.Now().After(deadline) {
			break
		}
		clk.Sleep(5 * time.Millisecond)
	}

	pa.WriteToHost(SendFrame("bob", []byte("hello bob")), "relay", 9100)
	got, err := recv(pb, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	box, payload, err := ParseDelivery(got)
	if err != nil || box != "bob" || string(payload) != "hello bob" {
		t.Fatalf("delivery = %q %q %v", box, payload, err)
	}
	if r.Delivered("bob") != 1 {
		t.Errorf("Delivered = %d", r.Delivered("bob"))
	}
}

func TestRelayAddressRefresh(t *testing.T) {
	// The dLTE mobility story: bob moves to a new address, re-registers,
	// and keeps receiving.
	n := newNet(t)
	srv := n.MustAddHost("relay")
	alice := n.MustAddHost("alice")
	bobOld := n.MustAddHost("bob-old")
	bobNew := n.MustAddHost("bob-new")
	r, _ := NewRelay(srv, 9100)
	t.Cleanup(r.Close)

	clk := n.Clock()
	pa, _ := alice.ListenPacket(0)
	po, _ := bobOld.ListenPacket(0)
	pn, _ := bobNew.ListenPacket(0)

	po.WriteToHost(RegisterFrame("bob"), "relay", 9100)
	waitReg := func(host string) {
		deadline := clk.Now().Add(2 * time.Second)
		for clk.Now().Before(deadline) {
			if a, ok := r.Registered("bob"); ok && a.(simnet.Addr).Host == host {
				return
			}
			clk.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("bob not registered at %s", host)
	}
	waitReg("bob-old")

	pn.WriteToHost(RegisterFrame("bob"), "relay", 9100)
	waitReg("bob-new")

	pa.WriteToHost(SendFrame("bob", []byte("after move")), "relay", 9100)
	if _, err := recv(pn, 2*time.Second); err != nil {
		t.Fatalf("new address starved: %v", err)
	}
	if _, err := recv(po, 100*time.Millisecond); err == nil {
		t.Error("old address still receiving")
	}
}

func TestRelayUnknownMailboxDropped(t *testing.T) {
	n := newNet(t)
	srv := n.MustAddHost("relay")
	cli := n.MustAddHost("cli")
	r, _ := NewRelay(srv, 9100)
	t.Cleanup(r.Close)
	pc, _ := cli.ListenPacket(0)
	pc.WriteToHost(SendFrame("nobody", []byte("x")), "relay", 9100)
	// One virtual tick past delivery: the drop (or not) has happened.
	n.Clock().Sleep(50 * time.Millisecond)
	if r.Delivered("nobody") != 0 {
		t.Error("message to unknown mailbox delivered")
	}
}

func TestParseDeliveryErrors(t *testing.T) {
	if _, _, err := ParseDelivery([]byte{'S', 1, 'x'}); err == nil {
		t.Error("wrong op parsed")
	}
	if _, _, err := ParseDelivery([]byte{'D', 9, 'x'}); err == nil {
		t.Error("truncated frame parsed")
	}
	if _, _, err := ParseDelivery(nil); err == nil {
		t.Error("nil parsed")
	}
}

func TestSeqPayload(t *testing.T) {
	for _, v := range []uint64{0, 1, 1 << 40} {
		got, err := ParseSeq(SeqPayload(v))
		if err != nil || got != v {
			t.Errorf("seq %d round trip = %d %v", v, got, err)
		}
	}
	if _, err := ParseSeq([]byte{1}); err == nil {
		t.Error("short seq parsed")
	}
}
