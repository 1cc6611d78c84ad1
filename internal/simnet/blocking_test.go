package simnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"dlte/internal/leaktest"
)

// The blocking receive shims — Conn.Read, PacketConn.ReadFrom,
// Listener.Accept — wait on a Mailbox: a tracked clock wait. The
// dispatcher fills a reader's mailbox at each delivery instant.

// allocBytes reports the heap bytes allocated while f runs.
func allocBytes(f func()) int64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return int64(m1.TotalAlloc - m0.TotalAlloc)
}

// acceptOne dials b:port from a and returns both ends, the server's
// through a blocking Accept on a clock-registered goroutine.
func acceptOne(t testing.TB, n *Network, l *Listener, a *Host, addr string) (*Conn, *Conn) {
	t.Helper()
	got := NewMailbox[*Conn](n.clock, 1)
	n.Clock().Go(func() {
		if c, err := l.Accept(); err == nil {
			got.Put(c.(*Conn))
		}
	})
	cc, err := a.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := got.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return cc.(*Conn), sc
}

// TestBlockingReaderFootprint: the first blocking receive on a conn,
// socket or listener costs its mailbox — not the 229 KB stream channel
// (4096 × chunk) or 73 KB packet inbox (1024 × datagram) the shims used
// to allocate. Each footprint is a first parked receive's bytes minus a
// steady one's; what feeds it (a handler write, a dial's arrival) is
// booked before the measurement.
func TestBlockingReaderFootprint(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	const budget = 1 << 10
	n := NewVirtualNetwork(Link{}, 1)
	defer n.Close()
	a, b := n.MustAddHost("a"), n.MustAddHost("b")
	var send func()
	feeder := n.NewContinuation(func(uint64) { send() })
	fed := func(s func()) func() {
		return func() { send = s; feeder.After(time.Millisecond, 0) }
	}
	buf := make([]byte, 64)
	// Each kind runs twice: the first receiver warms the payload pool
	// and the dispatcher's slab, the second is measured.
	footprint := func(kind string, measured bool, arm, recv func()) {
		arm()
		first := allocBytes(recv)
		arm()
		steady := allocBytes(recv)
		if got := first - steady; measured {
			t.Logf("%s: engaging the blocking receiver cost %d B", kind, got)
			if got >= budget {
				t.Errorf("%s: engaging the blocking receiver cost %d B, want < %d", kind, got, budget)
			}
		}
	}

	l, _ := b.Listen(80)
	for i := 0; i < 2; i++ {
		cc, sc := acceptOne(t, n, l, a, "b:80")
		footprint("Conn.Read", i == 1, fed(func() { cc.Write([]byte("x")) }), func() {
			if _, err := sc.Read(buf); err != nil {
				t.Fatal(err)
			}
		})
	}

	src, _ := a.ListenPacket(0)
	for port := 90; port < 92; port++ {
		dst, _ := b.ListenPacket(port)
		footprint("PacketConn.ReadFrom", port == 91, fed(func() { src.WriteToHost([]byte("x"), "b", port) }), func() {
			if _, _, err := dst.ReadFrom(buf); err != nil {
				t.Fatal(err)
			}
		})
	}

	for port := 100; port < 102; port++ {
		l, _ := b.Listen(port)
		addr := Addr{Host: "b", Port: port}.String()
		footprint("Listener.Accept", port == 101, func() { a.Dial(addr) }, func() {
			if _, err := l.Accept(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBlockingReadWakeIsTracked pins the blocking reader's wake
// contract on a virtual clock, as TestMailboxHandlerWakeIsTracked does
// for the mailbox itself: the dispatcher's delivery to a reader parked
// in Read counts it busy at the delivery instant, before it runs — no
// generation bump, so nothing for a settle round to catch — and the
// steady-state round trip allocates nothing.
func TestBlockingReadWakeIsTracked(t *testing.T) {
	n, cc, sc := diffWorld(t, Link{})
	vc := n.Clock().(*VirtualClock)
	cont := n.NewContinuation(func(uint64) { cc.Write([]byte("x")) })
	buf := make([]byte, 8)
	roundTrip := func() {
		cont.After(time.Millisecond, 0)
		if nr, err := sc.Read(buf); err != nil || nr != 1 {
			t.Fatalf("Read = %d, %v", nr, err)
		}
	}
	roundTrip()
	vc.mu.Lock()
	gen := vc.gen
	vc.mu.Unlock()
	parks := vc.parks.Load()
	for i := 0; i < 10; i++ {
		roundTrip()
	}
	vc.mu.Lock()
	if vc.gen != gen {
		t.Errorf("handler writes bumped the clock generation %d times: untracked wakes", vc.gen-gen)
	}
	vc.mu.Unlock()
	if got := vc.parks.Load() - parks; got != 10 {
		t.Errorf("10 reads parked %d times", got)
	}

	// A probe registered after the reader's endpoint runs right after
	// the delivery at the same instant, while the woken reader waits for
	// it outside the clock: it must find the reader counted busy.
	busyAtDelivery := -1
	probed := make(chan struct{})
	probe := n.NewContinuation(func(uint64) {
		vc.mu.Lock()
		busyAtDelivery = vc.busy
		vc.mu.Unlock()
		close(probed)
	})
	writeAndProbe := n.NewContinuation(func(uint64) {
		cc.Write([]byte("x"))
		probe.After(0, 0)
	})
	writeAndProbe.After(time.Millisecond, 0)
	sent := vc.nowDur() + time.Millisecond
	if nr, err := sc.Read(buf); err != nil || nr != 1 {
		t.Fatalf("Read = %d, %v", nr, err)
	}
	if at := vc.nowDur(); at != sent {
		t.Errorf("reader woke at %v, want the delivery instant %v", at, sent)
	}
	<-probed
	if busyAtDelivery != 1 {
		t.Errorf("busy = %d at the delivery instant, want 1 (the woken reader)", busyAtDelivery)
	}

	if leaktest.RaceEnabled {
		return
	}
	if got := testing.AllocsPerRun(200, roundTrip); got != 0 {
		t.Errorf("parked Read + handler write allocate %v per round trip, want 0", got)
	}
}

// TestLegacyStreamWriteNeverBlocks: a reliable stream's legacy queue is
// unbounded, so 5 000 writes to a conn nobody reads yet all land at one
// instant without blocking — then read back in order, each at its own
// delivery instant (write i rides a link of (i+1) µs).
func TestLegacyStreamWriteNeverBlocks(t *testing.T) {
	const writes = 5000
	n, cc, sc := diffWorld(t, Link{})
	vc := n.Clock().(*VirtualClock)
	start := vc.nowDur()
	var msg [4]byte
	for i := 0; i < writes; i++ {
		n.SetLink("a", "b", Link{Latency: time.Duration(i+1) * time.Microsecond})
		binary.BigEndian.PutUint32(msg[:], uint32(i))
		if _, err := cc.Write(msg[:]); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if vc.nowDur() != start {
		t.Fatal("writes moved virtual time")
	}
	for i := 0; i < writes; i++ {
		if nr, err := sc.Read(msg[:]); err != nil || nr != 4 {
			t.Fatalf("read %d = %d, %v", i, nr, err)
		}
		if got := binary.BigEndian.Uint32(msg[:]); got != uint32(i) {
			t.Fatalf("read %d carried write %d", i, got)
		}
		if at, want := vc.nowDur()-start, time.Duration(i+1)*time.Microsecond; at != want {
			t.Fatalf("read %d delivered at +%v, want +%v", i, at, want)
		}
	}
}

// TestReadDeadlineInsideLinkDelay: a read deadline that falls before a
// delivery's instant ends the read at the deadline with ErrDeadline and
// leaves the data queued; a later read returns it at its own delivery
// instant — on both receive shims.
func TestReadDeadlineInsideLinkDelay(t *testing.T) {
	const latency, wait = 200 * time.Millisecond, 20 * time.Millisecond
	onVirtual(t, Link{Latency: latency}, func(t *testing.T, n *Network) {
		clk := n.Clock()
		a, b := n.MustAddHost("a"), n.MustAddHost("b")
		buf := make([]byte, 8)
		check := func(kind string, send func(), setDeadline func(time.Time) error, read func() (int, error)) {
			t.Helper()
			start := clk.Now()
			send()
			setDeadline(start.Add(wait))
			if nr, err := read(); !errors.Is(err, ErrDeadline) {
				t.Errorf("%s before the delivery = %d, %v; want ErrDeadline", kind, nr, err)
			}
			if waited := clk.Since(start); waited != wait {
				t.Errorf("%s returned after %v, want exactly the %v deadline", kind, waited, wait)
			}
			setDeadline(time.Time{})
			if nr, err := read(); err != nil || nr != 1 {
				t.Fatalf("%s after the deadline = %d, %v; want the byte", kind, nr, err)
			}
			if waited := clk.Since(start); waited != latency {
				t.Errorf("%s returned the byte after %v, want its %v delivery instant", kind, waited, latency)
			}
		}

		l, _ := b.Listen(80)
		cc, sc := acceptOne(t, n, l, a, "b:80")
		check("Read", func() { cc.Write([]byte("x")) }, sc.SetReadDeadline,
			func() (int, error) { return sc.Read(buf) })

		src, _ := a.ListenPacket(0)
		dst, _ := b.ListenPacket(9)
		check("ReadFrom", func() { src.WriteToHost([]byte("x"), "b", 9) }, dst.SetReadDeadline,
			func() (int, error) { nr, _, err := dst.ReadFrom(buf); return nr, err })
	})
}

// observed is one handler delivery: its offset from the test's start
// and what it carried.
type observed struct {
	at   time.Duration
	data string
}

// stagger sends three payloads, the i-th over a link of (i+1) ms, so
// they are in flight together and land 1, 2 and 3 ms out.
func stagger(n *Network, send func(msg string)) {
	for i := 0; i < 3; i++ {
		n.SetLink("a", "b", Link{Latency: time.Duration(i+1) * time.Millisecond})
		send(fmt.Sprintf("msg%d", i))
	}
}

// checkObserved compares a handler's deliveries with want.
func checkObserved(t *testing.T, kind string, got, want []observed) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s: handler saw %v, want %v", kind, got, want)
	}
}

// TestOnDeliverAdoptsReader installs a stream handler on a conn a
// blocking Read has been using: the handler sees the unread remainder
// of the chunk Read took part of first, at the install instant, then
// the chunks still in flight at their own instants, in order.
func TestOnDeliverAdoptsReader(t *testing.T) {
	n, cc, sc := diffWorld(t, Link{})
	vc := n.Clock().(*VirtualClock)
	start := vc.nowDur()
	stagger(n, func(msg string) { cc.Write([]byte(msg)) })
	buf := make([]byte, 2)
	if nr, err := sc.Read(buf); err != nil || string(buf[:nr]) != "ms" {
		t.Fatalf("Read = %q, %v", buf[:nr], err)
	}
	var got []observed
	done := NewMailbox[struct{}](vc, 1)
	sc.OnDeliver(func(data []byte) {
		got = append(got, observed{vc.nowDur() - start, string(data)})
		if len(got) == 3 {
			done.Put(struct{}{})
		}
	}, nil)
	if _, err := done.Recv(time.Second); err != nil {
		t.Fatalf("handler saw %v, then nothing", got)
	}
	checkObserved(t, "stream", got, []observed{
		{time.Millisecond, "g0"}, {2 * time.Millisecond, "msg1"}, {3 * time.Millisecond, "msg2"},
	})
}

// TestSetHandlerAdoptsReader does the same for a packet socket: after a
// ReadFrom, a datagram delivered but not yet read reaches the handler
// first, at the install instant, then the one still in flight at its
// own instant, with the sender's address.
func TestSetHandlerAdoptsReader(t *testing.T) {
	n := newTestNet(t, Link{})
	vc := n.Clock().(*VirtualClock)
	a, b := n.MustAddHost("a"), n.MustAddHost("b")
	src, _ := a.ListenPacket(0)
	dst, _ := b.ListenPacket(9)
	start := vc.nowDur()
	stagger(n, func(msg string) { src.WriteToHost([]byte(msg), "b", 9) })
	buf := make([]byte, 8)
	if nr, _, err := dst.ReadFrom(buf); err != nil || string(buf[:nr]) != "msg0" {
		t.Fatalf("ReadFrom = %q, %v", buf[:nr], err)
	}
	vc.Sleep(1500 * time.Microsecond) // msg1 is delivered, unread
	var got []observed
	done := NewMailbox[struct{}](vc, 1)
	dst.SetHandler(func(data []byte, from net.Addr) {
		if from != src.LocalAddr() {
			t.Errorf("datagram from %v, want %v", from, src.LocalAddr())
		}
		got = append(got, observed{vc.nowDur() - start, string(data)})
		if len(got) == 2 {
			done.Put(struct{}{})
		}
	})
	if _, err := done.Recv(time.Second); err != nil {
		t.Fatalf("handler saw %v, then nothing", got)
	}
	checkObserved(t, "packet", got, []observed{
		{2500 * time.Microsecond, "msg1"}, {3 * time.Millisecond, "msg2"},
	})
}

// TestExecStatsAttribution: a write a blocking reader consumes counts
// as one legacy delivery, and one a handler consumes as one handler
// dispatch — on streams and datagrams alike.
func TestExecStatsAttribution(t *testing.T) {
	n, cc, sc := diffWorld(t, Link{Latency: time.Millisecond})
	a, _ := n.Host("a")
	b, _ := n.Host("b")
	pa, _ := a.ListenPacket(7)
	pb, _ := b.ListenPacket(7)
	vc := n.Clock().(*VirtualClock)
	buf := make([]byte, 8)
	handled := NewMailbox[struct{}](vc, 1)
	sc.OnDeliver(func([]byte) { handled.Put(struct{}{}) }, nil)
	pb.SetHandler(func([]byte, net.Addr) { handled.Put(struct{}{}) })

	for _, tc := range []struct {
		name                   string
		consume                func() error
		dispatches, deliveries uint64
	}{
		{"stream read", func() error { sc.Write([]byte("x")); _, err := cc.Read(buf); return err }, 0, 1},
		{"stream handler", func() error { cc.Write([]byte("x")); _, err := handled.Recv(time.Second); return err }, 1, 0},
		{"packet read", func() error { pb.WriteToHost([]byte("x"), "a", 7); _, _, err := pa.ReadFrom(buf); return err }, 0, 1},
		{"packet handler", func() error { pa.WriteToHost([]byte("x"), "b", 7); _, err := handled.Recv(time.Second); return err }, 1, 0},
	} {
		before := n.ExecStats()
		if err := tc.consume(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		after := n.ExecStats()
		if got := after.HandlerDispatches - before.HandlerDispatches; got != tc.dispatches {
			t.Errorf("%s: %d handler dispatches, want %d", tc.name, got, tc.dispatches)
		}
		if got := after.LegacyDeliveries - before.LegacyDeliveries; got != tc.deliveries {
			t.Errorf("%s: %d legacy deliveries, want %d", tc.name, got, tc.deliveries)
		}
	}
}

// TestUntimedReadersReleasedOnClose: readers parked with no deadline
// hold no timer — an idle world has nothing on the clock's heap — and
// are released both by Network.Close (their conns, sockets and
// listeners close) and by the clock's own Close.
func TestUntimedReadersReleasedOnClose(t *testing.T) {
	for _, closeClock := range []bool{false, true} {
		vc := NewVirtual()
		n := NewWithClock(Link{Latency: time.Millisecond}, 1, vc)
		a, b := n.MustAddHost("a"), n.MustAddHost("b")
		l, _ := b.Listen(80)
		_, sc := acceptOne(t, n, l, a, "b:80")
		pc, _ := b.ListenPacket(9)

		errs := make(chan error, 3)
		vc.Go(func() { _, err := sc.Read(make([]byte, 8)); errs <- err })
		vc.Go(func() { _, _, err := pc.ReadFrom(make([]byte, 8)); errs <- err })
		vc.Go(func() { _, err := l.Accept(); errs <- err })
		vc.Sleep(time.Millisecond) // time moves only once all three park
		if p := vc.Pending(); p != 0 {
			t.Errorf("untimed readers left %d waiters on the clock", p)
		}
		if closeClock {
			vc.Close()
		} else {
			n.Close()
		}
		for i := 0; i < 3; i++ {
			if err := <-errs; err != io.EOF && !errors.Is(err, ErrClosed) {
				t.Errorf("closeClock=%v: released reader returned %v, want EOF/ErrClosed", closeClock, err)
			}
		}
		n.Close()
		vc.Close()
	}
}
