package gtp

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"testing/quick"
	"time"

	"dlte/internal/simnet"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	payload := []byte("ip-packet-bytes")
	pkt := Encode(0xDEADBEEF, payload)
	h, got, err := Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if h.TEID != 0xDEADBEEF {
		t.Errorf("TEID = %#x", h.TEID)
	}
	if h.MessageType != messageTypeGPDU {
		t.Errorf("type = %#x", h.MessageType)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload = %q", got)
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(teid uint32, payload []byte) bool {
		if len(payload) > 0xFFFF {
			return true
		}
		h, got, err := Decode(Encode(teid, payload))
		return err == nil && h.TEID == teid && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode([]byte{0x30, 0xFF, 0, 0}); !errors.Is(err, ErrTruncated) {
		t.Errorf("short header: %v", err)
	}
	// Wrong version.
	bad := Encode(1, []byte("x"))
	bad[0] = 0x50 // version 2
	if _, _, err := Decode(bad); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}
	// Length field promising more than present.
	short := Encode(1, []byte("hello"))
	if _, _, err := Decode(short[:10]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated payload: %v", err)
	}
}

func newPair(t *testing.T) (*Endpoint, *Endpoint, *simnet.Network) {
	t.Helper()
	n := simnet.NewVirtualNetwork(simnet.Link{Latency: time.Millisecond}, 1)
	t.Cleanup(n.Close)
	a := n.MustAddHost("enb")
	b := n.MustAddHost("gw")
	pa, err := a.ListenPacket(Port)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.ListenPacket(Port)
	if err != nil {
		t.Fatal(err)
	}
	ea := NewEndpoint(pa)
	eb := NewEndpoint(pb)
	t.Cleanup(func() { ea.Close(); eb.Close() })
	return ea, eb, n
}

// inbox returns a mailbox on n's clock and a tunnel handler that
// delivers a copy of every payload to it.
func inbox(n *simnet.Network) (*simnet.Mailbox[[]byte], Handler) {
	m := simnet.NewMailbox[[]byte](n.Clock().(*simnet.VirtualClock), 4)
	return m, func(p []byte, _ net.Addr) { m.Put(append([]byte(nil), p...)) }
}

func TestTunnelForwarding(t *testing.T) {
	enb, gw, n := newPair(t)

	got, h := inbox(n)
	gwTEID := gw.AllocateTEID(h)
	enbTEID := enb.AllocateTEID(nil)

	if err := enb.Bind(enbTEID, gwTEID, simnet.Addr{Host: "gw", Port: Port}); err != nil {
		t.Fatal(err)
	}
	if err := enb.Send(enbTEID, []byte("uplink-ip-packet")); err != nil {
		t.Fatal(err)
	}
	p, err := got.Recv(2 * time.Second)
	if err != nil {
		t.Fatal("packet not delivered")
	}
	if string(p) != "uplink-ip-packet" {
		t.Errorf("payload = %q", p)
	}
}

func TestBidirectionalTunnel(t *testing.T) {
	enb, gw, n := newPair(t)

	up, hUp := inbox(n)
	down, hDown := inbox(n)
	gwTEID := gw.AllocateTEID(hUp)
	enbTEID := enb.AllocateTEID(hDown)

	enb.Bind(enbTEID, gwTEID, simnet.Addr{Host: "gw", Port: Port})
	gw.Bind(gwTEID, enbTEID, simnet.Addr{Host: "enb", Port: Port})

	enb.Send(enbTEID, []byte("up"))
	gw.Send(gwTEID, []byte("down"))
	for _, dir := range []struct {
		name string
		m    *simnet.Mailbox[[]byte]
	}{{"up", up}, {"down", down}} {
		p, err := dir.m.Recv(2 * time.Second)
		if err != nil {
			t.Fatalf("%slink traffic lost", dir.name)
		}
		if string(p) != dir.name {
			t.Errorf("%slink = %q", dir.name, p)
		}
	}
}

func TestTEIDDemux(t *testing.T) {
	enb, gw, n := newPair(t)
	a, hA := inbox(n)
	b, hB := inbox(n)
	teidA := gw.AllocateTEID(hA)
	teidB := gw.AllocateTEID(hB)
	if teidA == teidB {
		t.Fatal("duplicate TEIDs allocated")
	}

	ta := enb.AllocateTEID(nil)
	tb := enb.AllocateTEID(nil)
	enb.Bind(ta, teidA, simnet.Addr{Host: "gw", Port: Port})
	enb.Bind(tb, teidB, simnet.Addr{Host: "gw", Port: Port})
	enb.Send(ta, []byte("for-a"))
	enb.Send(tb, []byte("for-b"))

	if p, err := a.Recv(2 * time.Second); err != nil {
		t.Fatal("a starved")
	} else if string(p) != "for-a" {
		t.Errorf("a got %q", p)
	}
	if p, err := b.Recv(2 * time.Second); err != nil {
		t.Fatal("b starved")
	} else if string(p) != "for-b" {
		t.Errorf("b got %q", p)
	}
}

func TestSendErrors(t *testing.T) {
	enb, _, _ := newPair(t)
	if err := enb.Send(999, []byte("x")); !errors.Is(err, ErrUnknownTEID) {
		t.Errorf("unknown TEID: %v", err)
	}
	// Allocated but unbound tunnel cannot send.
	teid := enb.AllocateTEID(nil)
	if err := enb.Send(teid, []byte("x")); !errors.Is(err, ErrUnknownTEID) {
		t.Errorf("unbound tunnel: %v", err)
	}
	if err := enb.Bind(999, 1, simnet.Addr{Host: "gw", Port: Port}); !errors.Is(err, ErrUnknownTEID) {
		t.Errorf("bind unknown: %v", err)
	}
}

func TestRelease(t *testing.T) {
	enb, gw, n := newPair(t)
	got, h := inbox(n)
	gwTEID := gw.AllocateTEID(h)
	enbTEID := enb.AllocateTEID(nil)
	enb.Bind(enbTEID, gwTEID, simnet.Addr{Host: "gw", Port: Port})

	if gw.NumTunnels() != 1 {
		t.Errorf("NumTunnels = %d", gw.NumTunnels())
	}
	gw.Release(gwTEID)
	if gw.NumTunnels() != 0 {
		t.Errorf("NumTunnels after release = %d", gw.NumTunnels())
	}
	enb.Send(enbTEID, []byte("late"))
	if _, err := got.Recv(100 * time.Millisecond); err == nil {
		t.Error("released tunnel delivered traffic")
	}
}

func TestCloseStopsEndpoint(t *testing.T) {
	enb, gw, _ := newPair(t)
	gwTEID := gw.AllocateTEID(nil)
	enbTEID := enb.AllocateTEID(nil)
	enb.Bind(enbTEID, gwTEID, simnet.Addr{Host: "gw", Port: Port})
	if err := enb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := enb.Send(enbTEID, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close: %v", err)
	}
	if err := enb.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestGarbageTrafficIgnored(t *testing.T) {
	// Non-GTP and unknown-TEID packets must not crash the loop.
	n := simnet.NewVirtualNetwork(simnet.Link{}, 1)
	t.Cleanup(n.Close)
	gwHost := n.MustAddHost("gw")
	srcHost := n.MustAddHost("src")
	pgw, _ := gwHost.ListenPacket(Port)
	gw := NewEndpoint(pgw)
	t.Cleanup(func() { gw.Close() })

	got, h := inbox(n)
	gw.AllocateTEID(h)

	src, _ := srcHost.ListenPacket(0)
	src.WriteToHost([]byte{1, 2, 3}, "gw", Port)                      // garbage
	src.WriteToHost(Encode(424242, []byte("wrong-teid")), "gw", Port) // unknown TEID
	if p, err := got.Recv(100 * time.Millisecond); err == nil {
		t.Errorf("unexpected delivery: %q", p)
	}
}

// TestTunnelTablePages drives the paged TEID table across page
// boundaries: allocation grows the directory a page at a time, a
// mutation is visible to lookups on every page, release frees exactly
// its slot, and a TEID past the directory is simply unknown. A
// mutation's cost must not depend on how many tunnels are live.
func TestTunnelTablePages(t *testing.T) {
	a, _, _ := newPair(t)
	peer := simnet.Addr{Host: "b", Port: Port}
	const n = 3*tunnelPageSize + 17
	teids := make([]uint32, n)
	for i := range teids {
		teids[i] = a.AllocateTEID(nil)
		if err := a.Bind(teids[i], uint32(1000+i), peer); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.NumTunnels(); got != n {
		t.Fatalf("NumTunnels = %d, want %d", got, n)
	}
	if pages := len(a.table.Load().pages); pages != 4 {
		t.Errorf("directory has %d pages for %d sequential TEIDs, want 4", pages, n)
	}
	for i, teid := range teids {
		ts := a.table.Load().get(teid)
		if ts == nil || ts.t.RemoteTEID != uint32(1000+i) {
			t.Fatalf("TEID %d: entry %+v", teid, ts)
		}
	}
	for i := 0; i < n; i += 2 {
		a.Release(teids[i])
		a.Release(teids[i]) // idempotent: the counter must not move twice
	}
	if got, want := a.NumTunnels(), n/2; got != want {
		t.Errorf("NumTunnels after releasing every other tunnel = %d, want %d", got, want)
	}
	for i, teid := range teids {
		if live := a.table.Load().get(teid) != nil; live != (i%2 == 1) {
			t.Fatalf("TEID %d live = %v", teid, live)
		}
	}
	if err := a.Bind(teids[0], 1, peer); !errors.Is(err, ErrUnknownTEID) {
		t.Errorf("bind of released TEID: %v", err)
	}
	if a.table.Load().get(1<<30) != nil {
		t.Error("TEID beyond the directory resolved")
	}
	// One tunnel's life is three slot stores and two entries (plus a
	// page every 256th TEID), however many neighbours it has.
	if got := testing.AllocsPerRun(100, func() {
		teid := a.AllocateTEID(nil)
		a.Bind(teid, 7, peer)
		a.Release(teid)
	}); got > 4 {
		t.Errorf("allocate+bind+release with %d live tunnels allocates %v, want ≤ 4", a.NumTunnels(), got)
	}
}
