package transport

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dlte/internal/simnet"
)

// echoHandler bounces every payload back.
func echoHandler(ss *ServerSession, b []byte) { ss.Send(b) }

type rig struct {
	net    *simnet.Network
	server *Server
	addr   simnet.Addr
}

// newRig builds an echo server world.
func newRig(t *testing.T, mode Mode, latency time.Duration) *rig {
	t.Helper()
	r := &rig{}
	r.net = simnet.NewVirtualNetwork(simnet.Link{Latency: latency}, 1)
	t.Cleanup(r.net.Close)
	srvHost := r.net.MustAddHost("server")
	pc, err := srvHost.ListenPacket(7000)
	if err != nil {
		t.Fatal(err)
	}
	r.server = NewServer(pc, ServerConfig{Mode: mode, Handler: echoHandler})
	t.Cleanup(r.server.Close)
	r.addr = simnet.Addr{Host: "server", Port: 7000}
	return r
}

func (r *rig) clientPC(t *testing.T, hostName string) *simnet.PacketConn {
	t.Helper()
	host, ok := r.net.Host(hostName)
	if !ok {
		host = r.net.MustAddHost(hostName)
	}
	pc, err := host.ListenPacket(0)
	if err != nil {
		t.Fatal(err)
	}
	return pc
}

func TestPacketCodecRoundTrip(t *testing.T) {
	p := Packet{Type: PktData, CID: 77, Seq: 9, Ack: 5, Token: []byte{1, 2}, Payload: []byte("pay")}
	b, err := EncodePacket(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePacket(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.CID != 77 || got.Seq != 9 || got.Ack != 5 || string(got.Payload) != "pay" {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := DecodePacket([]byte{1, 2}); !errors.Is(err, ErrBadPacket) {
		t.Errorf("short packet: %v", err)
	}
}

func TestModeAndTypeStrings(t *testing.T) {
	if Migratory.String() != "migratory" || Legacy.String() != "legacy" {
		t.Error("mode names")
	}
	for p := PktHello; p <= PktClose; p++ {
		if len(p.String()) == 0 {
			t.Errorf("no name for %d", p)
		}
	}
}

func TestEchoMigratory(t *testing.T) {
	r := newRig(t, Migratory, 2*time.Millisecond)
	c, err := Dial(r.clientPC(t, "ue1"), r.addr, DialConfig{Mode: Migratory})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		msg := []byte(fmt.Sprintf("msg-%d", i))
		if err := c.Send(msg); err != nil {
			t.Fatal(err)
		}
		got, err := c.Recv(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(msg) {
			t.Fatalf("echo %d = %q", i, got)
		}
	}
	if tok := c.Token(); len(tok) == 0 {
		t.Error("no resume token after handshake")
	}
	st := r.server.Stats()
	if st.FreshHandshakes != 1 || st.Resumes != 0 {
		t.Errorf("server stats = %+v", st)
	}
}

func TestEchoLegacy(t *testing.T) {
	r := newRig(t, Legacy, 2*time.Millisecond)
	c, err := Dial(r.clientPC(t, "ue1"), r.addr, DialConfig{Mode: Legacy})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Recv(2 * time.Second); err != nil || string(got) != "hello" {
		t.Fatalf("echo = %q err=%v", got, err)
	}
}

func TestLegacyHandshakeSlower(t *testing.T) {
	// Legacy costs 2 RTTs, migratory 1: with 20 ms one-way latency
	// the difference is measurable.
	const lat = 20 * time.Millisecond
	rl := newRig(t, Legacy, lat)
	rm := newRig(t, Migratory, lat)

	start := rm.net.Clock().Now()
	cm, err := Dial(rm.clientPC(t, "ue1"), rm.addr, DialConfig{Mode: Migratory})
	if err != nil {
		t.Fatal(err)
	}
	defer cm.Close()
	dm := rm.net.Clock().Since(start)

	start = rl.net.Clock().Now()
	cl, err := Dial(rl.clientPC(t, "ue1"), rl.addr, DialConfig{Mode: Legacy})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	dl := rl.net.Clock().Since(start)

	if dl <= dm {
		t.Errorf("legacy handshake %v not slower than migratory %v", dl, dm)
	}
	if dl < 4*lat { // 2 RTT = 4×lat
		t.Errorf("legacy handshake %v implausibly fast for 2 RTT", dl)
	}
}

func TestZeroRTTResume(t *testing.T) {
	r := newRig(t, Migratory, 10*time.Millisecond)
	clk := r.net.Clock()
	c1, err := Dial(r.clientPC(t, "ue1"), r.addr, DialConfig{Mode: Migratory})
	if err != nil {
		t.Fatal(err)
	}
	tok := c1.Token()
	c1.Close()

	// Resume: Dial returns without a round trip and data flows in the
	// first flight.
	start := clk.Now()
	c2, err := Dial(r.clientPC(t, "ue1b"), r.addr, DialConfig{Mode: Migratory, ResumeToken: tok})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	dialTime := clk.Since(start)
	if dialTime > 5*time.Millisecond {
		t.Errorf("0-RTT dial took %v", dialTime)
	}
	if err := c2.Send([]byte("early-data")); err != nil {
		t.Fatal(err)
	}
	if got, err := c2.Recv(2 * time.Second); err != nil || string(got) != "early-data" {
		t.Fatalf("0-RTT echo = %q err=%v", got, err)
	}
	// Wait for the async ACCEPT to land before checking stats.
	clk.(*simnet.VirtualClock).WaitUntil(2*time.Second, func() bool { return r.server.Stats().Resumes != 0 })
	if st := r.server.Stats(); st.Resumes != 1 {
		t.Errorf("resumes = %d", st.Resumes)
	}
}

func TestMigrationContinuesSession(t *testing.T) {
	r := newRig(t, Migratory, 2*time.Millisecond)
	c, err := Dial(r.clientPC(t, "ue-old"), r.addr, DialConfig{Mode: Migratory})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send([]byte("before")); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Recv(2 * time.Second); err != nil || string(got) != "before" {
		t.Fatalf("pre-migration echo: %q %v", got, err)
	}

	// Move to a new host (new IP address), same session.
	c.Migrate(r.clientPC(t, "ue-new"))
	if err := c.Send([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Recv(2 * time.Second); err != nil || string(got) != "after" {
		t.Fatalf("post-migration echo: %q %v", got, err)
	}
	// Still the same server session: one fresh handshake, no resets.
	st := r.server.Stats()
	if st.FreshHandshakes != 1 || st.Resets != 0 || st.ActiveSessions != 1 {
		t.Errorf("server stats after migration = %+v", st)
	}
}

func TestMigrateConcurrentWithTraffic(t *testing.T) {
	// Handover happens while the application is mid-stream: Send,
	// Recv, and the retransmit loop must all see a consistent socket
	// while Migrate re-binds the path. Run under -race this also
	// checks the control-plane (curPC) and data-plane (session.pc)
	// swaps are synchronized.
	r := newRig(t, Migratory, time.Millisecond)
	clk := r.net.Clock()
	c, err := Dial(r.clientPC(t, "ue-h0"), r.addr, DialConfig{Mode: Migratory})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	stop := make(chan struct{})
	exited := simnet.NewMailbox[struct{}](clk.(*simnet.VirtualClock), 2)
	clk.Go(func() {
		defer exited.Put(struct{}{})
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Send([]byte(fmt.Sprintf("m%d", i)))
			clk.Sleep(time.Millisecond)
		}
	})
	var echoes atomic.Int64
	clk.Go(func() {
		defer exited.Put(struct{}{})
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Recv(500 * time.Millisecond); err == nil {
				echoes.Add(1)
			}
		}
	})

	// Migrate across five successive hosts under load.
	for i := 1; i <= 5; i++ {
		clk.Sleep(20 * time.Millisecond)
		c.Migrate(r.clientPC(t, fmt.Sprintf("ue-h%d", i)))
	}
	// Traffic must still flow on the final path.
	before := echoes.Load()
	clk.(*simnet.VirtualClock).WaitUntil(3*time.Second, func() bool { return echoes.Load() != before })
	close(stop)
	for i := 0; i < 2; i++ {
		exited.Wait()
	}
	if echoes.Load() == before {
		t.Fatal("no echoes after final migration: session lost its path")
	}
	if st := r.server.Stats(); st.FreshHandshakes != 1 || st.Resets != 0 {
		t.Errorf("server stats after migrations = %+v", st)
	}
}

func TestMigrateAfterCloseIsNoop(t *testing.T) {
	r := newRig(t, Migratory, time.Millisecond)
	clk := r.net.Clock()
	c, err := Dial(r.clientPC(t, "ue-old"), r.addr, DialConfig{Mode: Migratory})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	pc := r.clientPC(t, "ue-late")
	c.Migrate(pc) // must not spawn a reader or resurrect the session
	// The socket handed to a dead client is closed so it can't leak.
	buf := make([]byte, 16)
	pc.SetReadDeadline(clk.Now().Add(100 * time.Millisecond))
	if _, _, err := pc.ReadFrom(buf); err == nil {
		t.Fatal("socket still open after Migrate on closed client")
	}
}

func TestLegacyMigrationResets(t *testing.T) {
	r := newRig(t, Legacy, 2*time.Millisecond)
	clk := r.net.Clock()
	c, err := Dial(r.clientPC(t, "ue-old"), r.addr, DialConfig{Mode: Legacy})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	c.Recv(time.Second)

	c.Migrate(r.clientPC(t, "ue-new"))
	// The next send from the new address draws a RESET; subsequent
	// operations fail with ErrReset.
	c.Send([]byte("y"))
	deadline := clk.Now().Add(3 * time.Second)
	var lastErr error
	for clk.Now().Before(deadline) {
		if lastErr = c.Send([]byte("z")); errors.Is(lastErr, ErrReset) {
			break
		}
		clk.Sleep(20 * time.Millisecond)
	}
	if !errors.Is(lastErr, ErrReset) {
		t.Fatalf("legacy migration: want ErrReset, got %v", lastErr)
	}
	if st := r.server.Stats(); st.Resets == 0 {
		t.Error("server sent no RESETs")
	}
}

func TestLegacyHighLatencyHandshake(t *testing.T) {
	// Regression: at RTTs well above the retransmission timeout, the
	// client's duplicate HELLOs/CONFIRMs must not reset the session
	// (cookies must be stable and post-establishment CONFIRMs re-ACK).
	r := newRig(t, Legacy, 100*time.Millisecond)
	clk := r.net.Clock()
	c, err := Dial(r.clientPC(t, "ue1"), r.addr, DialConfig{Mode: Legacy, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send([]byte("slow-path")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv(5 * time.Second)
	if err != nil || string(got) != "slow-path" {
		t.Fatalf("echo over 200ms RTT: %q %v", got, err)
	}
	// Late handshake duplicates may add RESET-free re-ACKs only.
	clk.Sleep(300 * time.Millisecond)
	if err := c.Send([]byte("still-alive")); err != nil {
		t.Fatalf("session died after handshake dups: %v", err)
	}
	if _, err := c.Recv(5 * time.Second); err != nil {
		t.Fatalf("post-dup echo: %v", err)
	}
}

func TestReliabilityUnderLoss(t *testing.T) {
	r := newRig(t, Migratory, time.Millisecond)
	clk := r.net.Clock()
	// 20% loss both ways between client and server.
	r.net.MustAddHost("lossy")
	r.net.SetLink("lossy", "server", simnet.Link{Latency: time.Millisecond, Loss: 0.2})
	host, _ := r.net.Host("lossy")
	pc, _ := host.ListenPacket(0)
	c, err := Dial(pc, r.addr, DialConfig{Mode: Migratory, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 50
	clk.Go(func() {
		for i := 0; i < n; i++ {
			c.Send([]byte{byte(i)})
		}
	})
	seen := make(map[byte]bool)
	deadline := clk.Now().Add(20 * time.Second)
	for len(seen) < n && clk.Now().Before(deadline) {
		b, err := c.Recv(2 * time.Second)
		if err != nil {
			continue
		}
		seen[b[0]] = true
	}
	if len(seen) != n {
		t.Fatalf("delivered %d/%d under 20%% loss", len(seen), n)
	}
	if st := c.Stats(); st.Retransmits == 0 {
		t.Error("no retransmissions under loss — reliability untested")
	}
}

func TestInOrderDelivery(t *testing.T) {
	r := newRig(t, Migratory, time.Millisecond)
	clk := r.net.Clock()
	// Jitter reorders packets.
	r.net.MustAddHost("jittery")
	r.net.SetLink("jittery", "server", simnet.Link{Latency: time.Millisecond, Jitter: 4 * time.Millisecond})
	host, _ := r.net.Host("jittery")
	pc, _ := host.ListenPacket(0)
	c, err := Dial(pc, r.addr, DialConfig{Mode: Migratory})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 30
	clk.Go(func() {
		for i := 0; i < n; i++ {
			c.Send([]byte{byte(i)})
		}
	})
	prev := -1
	for i := 0; i < n; i++ {
		b, err := c.Recv(5 * time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if int(b[0]) != prev+1 {
			t.Fatalf("out of order: got %d after %d", b[0], prev)
		}
		prev = int(b[0])
	}
}

func TestDialTimeout(t *testing.T) {
	n := simnet.NewVirtualNetwork(simnet.Link{}, 1)
	t.Cleanup(n.Close)
	h := n.MustAddHost("client")
	pc, _ := h.ListenPacket(0)
	// No server at all.
	_, err := Dial(pc, simnet.Addr{Host: "ghost", Port: 1}, DialConfig{Mode: Migratory, Timeout: 300 * time.Millisecond})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
}

func TestCloseSemantics(t *testing.T) {
	r := newRig(t, Migratory, time.Millisecond)
	c, err := Dial(r.clientPC(t, "ue1"), r.addr, DialConfig{Mode: Migratory})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close: %v", err)
	}
	if _, err := c.Recv(50 * time.Millisecond); !errors.Is(err, ErrClosed) {
		t.Errorf("recv after close: %v", err)
	}
	c.Close() // idempotent
}

func TestTokenSingleUse(t *testing.T) {
	r := newRig(t, Migratory, time.Millisecond)
	clk := r.net.Clock()
	c1, err := Dial(r.clientPC(t, "ue1"), r.addr, DialConfig{Mode: Migratory})
	if err != nil {
		t.Fatal(err)
	}
	tok := c1.Token()
	c1.Close()

	c2, err := Dial(r.clientPC(t, "ue2"), r.addr, DialConfig{Mode: Migratory, ResumeToken: tok})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	waitStats := func(f func(ServerStats) bool) ServerStats {
		clk.(*simnet.VirtualClock).WaitUntil(2*time.Second, func() bool { return f(r.server.Stats()) })
		return r.server.Stats()
	}
	waitStats(func(st ServerStats) bool { return st.Resumes == 1 })

	// Replaying the same token falls back to a fresh handshake, not a
	// second resume.
	c3, err := Dial(r.clientPC(t, "ue3"), r.addr, DialConfig{Mode: Migratory, ResumeToken: tok})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	st := waitStats(func(st ServerStats) bool { return st.FreshHandshakes >= 2 })
	if st.Resumes != 1 {
		t.Errorf("token reuse produced a resume: %+v", st)
	}
}

// TestRecvReturnsWhenWorldCloses: a client Recv parked when its network
// closes returns ErrTimeout at once, because the closing clock releases
// a parked mailbox receive like any other timed wait.
func TestRecvReturnsWhenWorldCloses(t *testing.T) {
	n := simnet.NewVirtualNetwork(simnet.Link{Latency: time.Millisecond}, 1)
	vc := n.Clock().(*simnet.VirtualClock)
	pc, err := n.MustAddHost("server").ListenPacket(7000)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(pc, ServerConfig{Mode: Migratory})
	cpc, err := n.MustAddHost("ue1").ListenPacket(0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(cpc, simnet.Addr{Host: "server", Port: 7000}, DialConfig{Mode: Migratory})
	if err != nil {
		t.Fatal(err)
	}
	parked := simnet.NewMailbox[struct{}](vc, 1)
	returned := make(chan error, 1)
	vc.Go(func() {
		parked.Put(struct{}{})
		_, err := c.Recv(time.Hour)
		returned <- err
	})
	if _, err := parked.Recv(time.Second); err != nil {
		t.Fatalf("reader never started: %v", err)
	}
	vc.Sleep(time.Millisecond) // time moves only once the reader is parked in Recv
	n.Close()
	select {
	case err := <-returned:
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("Recv at world close = %v, want ErrTimeout", err)
		}
	case <-time.After(2 * time.Second):
		t.Error("a Recv parked when its network closed never returned")
	}
	c.Close()
	srv.Close()
}

// TestEchoAfterIdleGap: a server handler is called per payload, not
// parked in a timed read, so a session that sat idle past any read
// timeout still echoes the next payload.
func TestEchoAfterIdleGap(t *testing.T) {
	r := newRig(t, Migratory, 2*time.Millisecond)
	clk := r.net.Clock()
	c, err := Dial(r.clientPC(t, "ue1"), r.addr, DialConfig{Mode: Migratory})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	clk.Sleep(12 * time.Second) // past the 5 s and 10 s read timeouts echo loops once had
	if err := c.Send([]byte("after-idle")); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Recv(2 * time.Second); err != nil || string(got) != "after-idle" {
		t.Fatalf("echo after idle gap = %q, %v", got, err)
	}
	if st := r.server.Stats(); st.ActiveSessions != 1 {
		t.Errorf("server stats after idle gap = %+v", st)
	}
}

// TestServerSendPastWindowQueues: a handler that sends far past the
// window does not park (it runs on the delivery thread); the sends
// queue, and the acks that free window space transmit them in order.
func TestServerSendPastWindowQueues(t *testing.T) {
	n := simnet.NewVirtualNetwork(simnet.Link{Latency: 2 * time.Millisecond}, 1)
	t.Cleanup(n.Close)
	pc, err := n.MustAddHost("server").ListenPacket(7000)
	if err != nil {
		t.Fatal(err)
	}
	const burst = 3 * maxWindow
	var sess *ServerSession
	srv := NewServer(pc, ServerConfig{Mode: Migratory, Handler: func(ss *ServerSession, _ []byte) {
		sess = ss
		for i := 0; i < burst; i++ {
			ss.Send([]byte{byte(i)})
		}
	}})
	t.Cleanup(srv.Close)
	cpc, err := n.MustAddHost("ue1").ListenPacket(0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(cpc, simnet.Addr{Host: "server", Port: 7000}, DialConfig{Mode: Migratory})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send([]byte("go")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < burst; i++ {
		b, err := c.Recv(2 * time.Second)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if b[0] != byte(i) {
			t.Fatalf("reply %d carries %d: out of order", i, b[0])
		}
	}
	if st := sess.Stats(); st.Sent != burst || st.Retransmits != 0 {
		t.Errorf("server session stats = %+v, want %d sent and no retransmits on a lossless path", st, burst)
	}
}

// TestSessionGoroutineFootprint: MST sessions run in handlers and
// continuations, so clients with traffic in flight, and the server
// sessions they opened, cost no standing goroutine beyond the test's own.
func TestSessionGoroutineFootprint(t *testing.T) {
	r := newRig(t, Migratory, 5*time.Millisecond)
	clk := r.net.Clock()
	clk.Sleep(time.Millisecond) // the world's own goroutines are up
	runtime.GC()
	before := runtime.NumGoroutine()
	const n = 16
	clients := make([]*Client, n)
	for i := range clients {
		c, err := Dial(r.clientPC(t, fmt.Sprintf("ue%d", i)), r.addr, DialConfig{Mode: Migratory})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	for i, c := range clients {
		for k := 0; k < 4; k++ {
			if err := c.Send([]byte{byte(i), byte(k)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Every payload is on the wire and no echo has come back yet.
	if added := runtime.NumGoroutine() - before; added != 0 {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("%d clients with traffic in flight cost %d goroutines, want 0:\n\n%s", n, added, buf)
	}
	if st := r.server.Stats(); st.ActiveSessions != n {
		t.Fatalf("server has %d sessions, want %d", st.ActiveSessions, n)
	}
	for _, c := range clients {
		for k := 0; k < 4; k++ {
			if _, err := c.Recv(2 * time.Second); err != nil {
				t.Fatalf("echo %d: %v", k, err)
			}
		}
	}
}

// wallUDP is a real UDP socket with the handler surface PacketConn asks
// for; it runs on the wall clock.
type wallUDP struct{ *net.UDPConn }

func (wallUDP) SetHandler(func([]byte, net.Addr)) {}

// TestRequiresVirtualClock: a socket on any clock but a VirtualClock is
// refused by name.
func TestRequiresVirtualClock(t *testing.T) {
	udp := wallUDP{}
	if _, err := Dial(udp, simnet.Addr{Host: "server", Port: 7000}, DialConfig{}); err == nil ||
		!strings.Contains(err.Error(), "transport.wallUDP") {
		t.Errorf("Dial over real UDP = %v, want an error naming transport.wallUDP", err)
	}
	defer func() {
		if r := fmt.Sprint(recover()); !strings.Contains(r, "transport.wallUDP") {
			t.Errorf("NewServer over real UDP recovered %q, want a panic naming transport.wallUDP", r)
		}
	}()
	NewServer(udp, ServerConfig{})
}
