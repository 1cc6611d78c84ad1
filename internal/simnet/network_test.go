package simnet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

func newTestNet(t *testing.T, link Link) *Network {
	t.Helper()
	n := NewVirtualNetwork(link, 1)
	t.Cleanup(n.Close)
	return n
}

func TestAddHostDuplicate(t *testing.T) {
	n := newTestNet(t, Link{})
	if _, err := n.AddHost("ap1"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddHost("ap1"); !errors.Is(err, ErrHostExists) {
		t.Fatalf("want ErrHostExists, got %v", err)
	}
	if _, ok := n.Host("ap1"); !ok {
		t.Error("Host lookup failed")
	}
	if _, ok := n.Host("nope"); ok {
		t.Error("Host lookup found ghost")
	}
}

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in   string
		want Addr
		ok   bool
	}{
		{"registry:8400", Addr{Host: "registry", Port: 8400}, true},
		{"ap1:0", Addr{Host: "ap1", Port: 0}, true},
		{"ap1:65535", Addr{Host: "ap1", Port: 65535}, true},
		{":80", Addr{Host: "", Port: 80}, true},
		{"a:b:8080", Addr{Host: "a:b", Port: 8080}, true}, // last colon splits
		{"noport", Addr{}, false},
		{"", Addr{}, false},
		{"host:", Addr{}, false},
		{"host:abc", Addr{}, false},
		{"host:80x", Addr{}, false},                   // trailing garbage
		{"host: 80", Addr{}, false},                   // embedded space
		{"host:+80", Addr{}, false},                   // sign rejected
		{"host:-1", Addr{}, false},                    // negative
		{"host:65536", Addr{}, false},                 // out of range
		{"host:999999999999999999999", Addr{}, false}, // overflow
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseAddr(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseAddr(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}

	a := Addr{Host: "registry", Port: 8400}
	if a.String() != "registry:8400" {
		t.Errorf("String = %q", a.String())
	}
	if a.Network() != "sim" {
		t.Errorf("Network = %q", a.Network())
	}
}

// TestAddrStringRoundTrip: String and ParseAddr are inverses over
// every address a socket can hold, and String agrees with the
// fmt-based rendering it replaced.
func TestAddrStringRoundTrip(t *testing.T) {
	long := strings.Repeat("h", 100) // beyond String's stack buffer
	for _, a := range []Addr{
		{"registry", 8400}, {"ap1", 0}, {"ap1", 7}, {"ap1", 65535}, {"", 80},
		{"a:b", 8080}, {"10.45.0.2", 49152}, {long, 2152},
	} {
		s := a.String()
		if want := fmt.Sprintf("%s:%d", a.Host, a.Port); s != want {
			t.Errorf("%+v.String() = %q, want %q", a, s, want)
		}
		if got, err := ParseAddr(s); err != nil || got != a {
			t.Errorf("ParseAddr(%q) = %+v, %v, want %+v", s, got, err, a)
		}
	}
}

// TestAddrStringOneAlloc: the returned string is the only allocation.
// String sits on every memo miss of the user plane (BearerConn.WriteTo,
// Gateway.downlink, coerceAddr's fallback) and on the registry.
func TestAddrStringOneAlloc(t *testing.T) {
	a := Addr{Host: "ott-echo-3", Port: 49152}
	var s string
	if got := testing.AllocsPerRun(1000, func() { s = a.String() }); got != 1 {
		t.Errorf("Addr.String allocates %v times, want 1", got)
	}
	if s != "ott-echo-3:49152" {
		t.Errorf("String = %q", s)
	}
}

// TestAddrCache: a hit returns the boxed address without allocating;
// bytes that change are parsed again; bytes that do not parse fail on
// every call and displace nothing; and the cache keeps no view of the
// caller's buffer, so scribbling over it moves nothing.
func TestAddrCache(t *testing.T) {
	var c AddrCache
	buf := []byte("core:2152")
	a1, err := c.Parse(buf)
	if err != nil || a1 != net.Addr(Addr{Host: "core", Port: 2152}) {
		t.Fatalf("Parse = %v, %v", a1, err)
	}
	for i := range buf {
		buf[i] = 'x'
	}
	got, err := c.Parse([]byte("core:2152"))
	if err != nil || got != net.Addr(Addr{Host: "core", Port: 2152}) {
		t.Fatalf("after scribbling the parsed bytes: Parse = %v, %v", got, err)
	}
	again := []byte("core:2152")
	if n := testing.AllocsPerRun(100, func() { got, _ = c.Parse(again) }); n != 0 {
		t.Errorf("a hit allocates %v times, want 0", n)
	}

	// Another address is parsed, and becomes the cached one.
	if got, err := c.Parse([]byte("core2:2153")); err != nil || got != net.Addr(Addr{Host: "core2", Port: 2153}) {
		t.Fatalf("changed bytes: Parse = %v, %v", got, err)
	}
	if got, err := c.Parse([]byte("core:2152")); err != nil || got != net.Addr(Addr{Host: "core", Port: 2152}) {
		t.Fatalf("changed back: Parse = %v, %v", got, err)
	}

	// Malformed bytes fail every time and leave the cached entry alone.
	for i := 0; i < 3; i++ {
		for _, bad := range []string{"core", "core:", "core:21x2", "", "core:70000"} {
			if got, err := c.Parse([]byte(bad)); err == nil || got != nil {
				t.Fatalf("Parse(%q) = %v, %v; want an error", bad, got, err)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { got, _ = c.Parse(again) }); n != 0 || got != net.Addr(Addr{Host: "core", Port: 2152}) {
		t.Errorf("after malformed input: Parse = %v with %v allocs, want the cached address and 0", got, n)
	}
	var empty AddrCache
	if got, err := empty.Parse(nil); err == nil || got != nil {
		t.Errorf("empty cache, nil bytes: Parse = %v, %v; want an error", got, err)
	}
}

func TestStreamEcho(t *testing.T) {
	n := newTestNet(t, Link{Latency: time.Millisecond})
	a := n.MustAddHost("a")
	b := n.MustAddHost("b")
	l, err := b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	done := NewMailbox[struct{}](n.clock, 1)
	n.clock.Go(func() {
		defer done.Put(struct{}{})
		c, err := l.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		defer c.Close()
		io.Copy(c, c)
	})

	c, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello dlte")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("echo = %q", got)
	}
	c.Close()
	done.Wait()
}

func TestStreamLatency(t *testing.T) {
	const lat = 20 * time.Millisecond
	n := newTestNet(t, Link{Latency: lat})
	a := n.MustAddHost("a")
	b := n.MustAddHost("b")
	l, _ := b.Listen(80)
	clk := n.Clock()
	clk.Go(func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c)
	})
	c, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := clk.Now()
	c.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if rtt := clk.Since(start); rtt != 2*lat {
		t.Errorf("RTT %v, want 2×latency %v", rtt, 2*lat)
	}
}

func TestDialErrors(t *testing.T) {
	n := newTestNet(t, Link{})
	a := n.MustAddHost("a")
	n.MustAddHost("b")
	if _, err := a.Dial("ghost:80"); !errors.Is(err, ErrNoHost) {
		t.Errorf("want ErrNoHost, got %v", err)
	}
	if _, err := a.Dial("b:80"); !errors.Is(err, ErrConnRefused) {
		t.Errorf("want ErrConnRefused, got %v", err)
	}
	if _, err := a.Dial("bad-addr"); err == nil {
		t.Error("want parse error")
	}
}

func TestListenPortInUse(t *testing.T) {
	n := newTestNet(t, Link{})
	a := n.MustAddHost("a")
	if _, err := a.Listen(80); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Listen(80); !errors.Is(err, ErrPortInUse) {
		t.Errorf("want ErrPortInUse, got %v", err)
	}
	// Ephemeral allocation avoids used ports.
	l2, err := a.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Addr().(Addr).Port == 80 {
		t.Error("ephemeral allocated bound port")
	}
}

func TestCloseUnblocksReader(t *testing.T) {
	n := newTestNet(t, Link{})
	a := n.MustAddHost("a")
	b := n.MustAddHost("b")
	l, _ := b.Listen(80)
	c, srv := acceptOne(t, n, l, a, "b:80")

	clk := n.Clock()
	done := NewMailbox[error](n.clock, 1)
	clk.Go(func() {
		buf := make([]byte, 16)
		_, err := srv.Read(buf)
		done.Put(err)
	})
	clk.Sleep(10 * time.Millisecond)
	c.Close()
	err, timeout := done.Recv(2 * time.Second)
	if timeout != nil {
		t.Fatal("reader not unblocked by close")
	}
	if err != io.EOF {
		t.Errorf("read after close = %v, want EOF", err)
	}
}

func TestReadDeadline(t *testing.T) {
	n := newTestNet(t, Link{})
	a := n.MustAddHost("a")
	b := n.MustAddHost("b")
	l, _ := b.Listen(80)
	c, _ := acceptOne(t, n, l, a, "b:80")
	defer c.Close()
	clk := n.Clock()
	c.SetReadDeadline(clk.Now().Add(30 * time.Millisecond))
	buf := make([]byte, 1)
	start := clk.Now()
	_, err := c.Read(buf)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	if elapsed := clk.Since(start); elapsed != 30*time.Millisecond {
		t.Errorf("deadline took %v, want 30ms", elapsed)
	}
	// Expired deadline fails immediately.
	c.SetDeadline(clk.Now().Add(-time.Second))
	if _, err := c.Read(buf); !errors.Is(err, ErrDeadline) {
		t.Errorf("want immediate ErrDeadline, got %v", err)
	}
}

func TestLinkDownStream(t *testing.T) {
	n := newTestNet(t, Link{})
	a := n.MustAddHost("a")
	b := n.MustAddHost("b")
	l, _ := b.Listen(80)
	n.Clock().Go(func() {
		for {
			if _, err := l.Accept(); err != nil {
				return
			}
		}
	})
	c, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	n.SetLinkDown("a", "b", true)
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrLinkDown) {
		t.Errorf("want ErrLinkDown on write, got %v", err)
	}
	if _, err := a.Dial("b:80"); !errors.Is(err, ErrLinkDown) {
		t.Errorf("want ErrLinkDown on dial, got %v", err)
	}
	// Restore and verify recovery.
	n.SetLinkDown("a", "b", false)
	if _, err := a.Dial("b:80"); err != nil {
		t.Errorf("dial after restore: %v", err)
	}
}

func TestPacketRoundTrip(t *testing.T) {
	n := newTestNet(t, Link{Latency: time.Millisecond})
	a := n.MustAddHost("a")
	b := n.MustAddHost("b")
	pa, err := a.ListenPacket(2152)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.ListenPacket(2152)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pa.WriteToHost([]byte("gtp"), "b", 2152); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	pb.SetReadDeadline(n.Clock().Now().Add(time.Second))
	nr, from, err := pb.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:nr]) != "gtp" {
		t.Errorf("payload = %q", buf[:nr])
	}
	if from.(Addr).Host != "a" {
		t.Errorf("from = %v", from)
	}
}

func TestPacketLossTotal(t *testing.T) {
	n := newTestNet(t, Link{Loss: 1.0})
	a := n.MustAddHost("a")
	b := n.MustAddHost("b")
	pa, _ := a.ListenPacket(1000)
	pb, _ := b.ListenPacket(1000)
	for i := 0; i < 20; i++ {
		pa.WriteToHost([]byte("x"), "b", 1000)
	}
	pb.SetReadDeadline(n.Clock().Now().Add(50 * time.Millisecond))
	if _, _, err := pb.ReadFrom(make([]byte, 8)); !errors.Is(err, ErrDeadline) {
		t.Fatalf("expected all packets lost, got %v", err)
	}
}

func TestPacketLossPartial(t *testing.T) {
	n := newTestNet(t, Link{Loss: 0.5})
	a := n.MustAddHost("a")
	b := n.MustAddHost("b")
	pa, _ := a.ListenPacket(1000)
	pb, _ := b.ListenPacket(1000)
	const sent = 400
	for i := 0; i < sent; i++ {
		pa.WriteToHost([]byte("x"), "b", 1000)
	}
	received := 0
	buf := make([]byte, 8)
	for {
		pb.SetReadDeadline(n.Clock().Now().Add(50 * time.Millisecond))
		if _, _, err := pb.ReadFrom(buf); err != nil {
			break
		}
		received++
	}
	// With p=0.5 and n=400, expect ~200; 120–280 is ±8σ.
	if received < 120 || received > 280 {
		t.Errorf("received %d of %d at 50%% loss", received, sent)
	}
}

func TestPacketMTU(t *testing.T) {
	n := newTestNet(t, Link{})
	a := n.MustAddHost("a")
	pa, _ := a.ListenPacket(1000)
	if _, err := pa.WriteToHost(make([]byte, MTU+1), "a", 1000); !errors.Is(err, ErrPacketTooBig) {
		t.Errorf("want ErrPacketTooBig, got %v", err)
	}
}

func TestPacketToUnknownDropsSilently(t *testing.T) {
	n := newTestNet(t, Link{})
	a := n.MustAddHost("a")
	pa, _ := a.ListenPacket(1000)
	if _, err := pa.WriteToHost([]byte("x"), "ghost", 1); err != nil {
		t.Errorf("write to unknown host should drop silently: %v", err)
	}
	if _, err := pa.WriteToHost([]byte("x"), "a", 9); err != nil {
		t.Errorf("write to unbound port should drop silently: %v", err)
	}
}

func TestPacketLinkDownDropsSilently(t *testing.T) {
	n := newTestNet(t, Link{})
	a := n.MustAddHost("a")
	b := n.MustAddHost("b")
	pa, _ := a.ListenPacket(1000)
	pb, _ := b.ListenPacket(1000)
	n.SetLinkDown("a", "b", true)
	if _, err := pa.WriteToHost([]byte("x"), "b", 1000); err != nil {
		t.Fatalf("packet on down link should drop, not error: %v", err)
	}
	pb.SetReadDeadline(n.Clock().Now().Add(30 * time.Millisecond))
	if _, _, err := pb.ReadFrom(make([]byte, 8)); !errors.Is(err, ErrDeadline) {
		t.Error("packet delivered across down link")
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// 80 kbit/s link: a 1000-byte message takes 100 ms to serialize.
	n := newTestNet(t, Link{BandwidthBps: 80_000})
	a := n.MustAddHost("a")
	b := n.MustAddHost("b")
	l, _ := b.Listen(80)
	clk := n.Clock()
	done := NewMailbox[time.Time](n.clock, 1)
	clk.Go(func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		io.ReadFull(c, make([]byte, 1000))
		done.Put(clk.Now())
	})
	c, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := clk.Now()
	c.Write(make([]byte, 1000))
	end, _ := done.Wait()
	if d := end.Sub(start); d < 90*time.Millisecond {
		t.Errorf("1000B over 80kbps arrived in %v, want ≥ ~100ms", d)
	}
}

func TestClosedPacketConnWrite(t *testing.T) {
	n := newTestNet(t, Link{})
	a := n.MustAddHost("a")
	pa, _ := a.ListenPacket(1000)
	pa.Close()
	if _, err := pa.WriteToHost([]byte("x"), "a", 1000); !errors.Is(err, ErrClosed) {
		t.Errorf("want ErrClosed, got %v", err)
	}
	if _, _, err := pa.ReadFrom(make([]byte, 8)); !errors.Is(err, ErrClosed) {
		t.Errorf("want ErrClosed on read, got %v", err)
	}
	// Port is reusable after close.
	if _, err := a.ListenPacket(1000); err != nil {
		t.Errorf("rebind after close: %v", err)
	}
}

func TestNetworkClose(t *testing.T) {
	n := NewVirtualNetwork(Link{}, 1)
	a := n.MustAddHost("a")
	l, _ := a.Listen(80)
	n.Close()
	if _, err := l.Accept(); !errors.Is(err, ErrClosed) {
		t.Errorf("accept after network close = %v", err)
	}
	if _, err := n.AddHost("b"); !errors.Is(err, ErrClosed) {
		t.Errorf("AddHost after close = %v", err)
	}
	n.Close() // idempotent
}

func TestConnAddrs(t *testing.T) {
	n := newTestNet(t, Link{})
	a := n.MustAddHost("a")
	b := n.MustAddHost("b")
	l, _ := b.Listen(80)
	c, _ := acceptOne(t, n, l, a, "b:80")
	defer c.Close()
	if c.LocalAddr().(Addr).Host != "a" {
		t.Errorf("LocalAddr = %v", c.LocalAddr())
	}
	ra := c.RemoteAddr().(Addr)
	if ra.Host != "b" || ra.Port != 80 {
		t.Errorf("RemoteAddr = %v", ra)
	}
}

// TestLinkMemoSeesReconfiguration: sockets and conns memoize the link
// they send through, so SetLink and SetLinkDown must rewrite that link
// in place — a sender that already resolved it sees the new parameters
// on its very next write.
func TestLinkMemoSeesReconfiguration(t *testing.T) {
	n := NewVirtualNetwork(Link{Latency: time.Millisecond}, 1)
	defer n.Close()
	clk := n.Clock()
	a, b := n.MustAddHost("a"), n.MustAddHost("b")
	src, _ := a.ListenPacket(0)
	dst, _ := b.ListenPacket(9)
	arrivals := NewMailbox[time.Time](n.clock, 8)
	dst.SetHandler(func([]byte, net.Addr) { arrivals.Put(clk.Now()) })

	l, _ := b.Listen(10)
	l.OnAccept(func(c *Conn) { c.OnDeliver(func([]byte) {}, nil) })
	cc, err := a.Dial("b:10")
	if err != nil {
		t.Fatal(err)
	}

	flight := func() time.Duration {
		t.Helper()
		sent := clk.Now()
		src.WriteToHost([]byte("x"), "b", 9)
		at, err := arrivals.Recv(time.Second)
		if err != nil {
			t.Fatalf("packet lost: %v", err)
		}
		return at.Sub(sent)
	}
	if d := flight(); d != time.Millisecond {
		t.Fatalf("default link flight = %v", d)
	}
	if _, err := cc.Write([]byte("warm")); err != nil { // memoizes the conn's link
		t.Fatal(err)
	}

	n.SetLink("a", "b", Link{Latency: 7 * time.Millisecond})
	if d := flight(); d != 7*time.Millisecond {
		t.Errorf("flight after SetLink = %v, want 7ms", d)
	}
	n.SetLinkDown("a", "b", true)
	src.WriteToHost([]byte("x"), "b", 9)
	if _, err := arrivals.Recv(50 * time.Millisecond); !errors.Is(err, ErrDeadline) {
		t.Errorf("packet crossed a down link (err %v)", err)
	}
	if _, err := cc.Write([]byte("x")); !errors.Is(err, ErrLinkDown) {
		t.Errorf("stream write on a down link = %v, want ErrLinkDown", err)
	}
	n.SetLinkDown("a", "b", false)
	if d := flight(); d != 7*time.Millisecond {
		t.Errorf("flight after link up = %v, want 7ms", d)
	}
}
