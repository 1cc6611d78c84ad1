package simnet

import (
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"dlte/internal/leaktest"
)

// The blocking receive shims — Conn.Read, PacketConn.ReadFrom,
// Listener.Accept — wait on a Mailbox: a tracked clock wait, with the
// delivery hold parked on the mailbox's own waiter.

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

// TestBlockingReadWakeIsTracked pins the legacy path's wake contract on
// a virtual clock, as TestMailboxHandlerWakeIsTracked does for the
// mailbox itself: a dispatch handler writing to a conn whose reader is
// parked in Read counts the reader busy before it runs — no generation
// bump, so nothing for a settle round to catch — and the steady-state
// round trip allocates nothing.
func TestBlockingReadWakeIsTracked(t *testing.T) {
	n, cc, sc := diffWorld(t, Link{})
	vc := n.Clock().(*VirtualClock)
	busyAfterWrite := -1
	cont := n.NewContinuation(func(uint64) {
		cc.Write([]byte("x"))
		vc.mu.Lock()
		busyAfterWrite = vc.busy
		vc.mu.Unlock()
	})
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
	if busyAfterWrite != 1 {
		t.Errorf("busy = %d after the handler's write, want 1 (the woken reader)", busyAfterWrite)
	}
	if got := vc.parks.Load() - parks; got != 10 {
		t.Errorf("10 reads parked %d times", got)
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
// delivery's instant ends the read at the deadline, data consumed — on
// both receive shims.
func TestReadDeadlineInsideLinkDelay(t *testing.T) {
	const latency, wait = 200 * time.Millisecond, 20 * time.Millisecond
	onVirtual(t, Link{Latency: latency}, func(t *testing.T, n *Network) {
		clk := n.Clock()
		a, b := n.MustAddHost("a"), n.MustAddHost("b")
		check := func(kind string, start time.Time, nr int, err error) {
			t.Helper()
			if err != nil || nr != 1 {
				t.Fatalf("%s = %d, %v; want the byte", kind, nr, err)
			}
			if waited := clk.Since(start); waited != wait {
				t.Errorf("%s returned after %v, want exactly the %v deadline, before the %v delivery", kind, waited, wait, latency)
			}
		}
		buf := make([]byte, 8)

		l, _ := b.Listen(80)
		cc, sc := acceptOne(t, n, l, a, "b:80")
		start := clk.Now()
		cc.Write([]byte("x"))
		sc.SetReadDeadline(start.Add(wait))
		nr, err := sc.Read(buf)
		check("Read", start, nr, err)
		sc.SetReadDeadline(clk.Now().Add(latency))
		if _, err := sc.Read(buf); !errors.Is(err, ErrDeadline) {
			t.Errorf("Read after the early return = %v, want ErrDeadline (data consumed)", err)
		}

		src, _ := a.ListenPacket(0)
		dst, _ := b.ListenPacket(9)
		start = clk.Now()
		src.WriteToHost([]byte("x"), "b", 9)
		dst.SetReadDeadline(start.Add(wait))
		nr, _, err = dst.ReadFrom(buf)
		check("ReadFrom", start, nr, err)
		dst.SetReadDeadline(clk.Now().Add(latency))
		if _, _, err := dst.ReadFrom(buf); !errors.Is(err, ErrDeadline) {
			t.Errorf("ReadFrom after the early return = %v, want ErrDeadline (datagram consumed)", err)
		}
	})
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
