package simnet

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"
)

// onVirtual runs fn as the "virtual" subtest on a fresh virtual-clock
// network with the given default link.
func onVirtual(t *testing.T, link Link, fn func(t *testing.T, n *Network)) {
	t.Run("virtual", func(t *testing.T) {
		n := NewVirtualNetwork(link, 1)
		defer n.Close()
		fn(t, n)
	})
}

// TestContinuationOrdering pins the continuation event's ordering
// rules: each event fires at its own instant (no per-endpoint FIFO
// clamp — a short wait booked after a long one fires first), and
// same-instant events run by endpoint ID, then booking order.
func TestContinuationOrdering(t *testing.T) {
	n := NewVirtualNetwork(Link{}, 1)
	defer n.Close()
	clk := n.Clock()
	start := clk.Now()

	type firing struct {
		who string
		arg uint64
		at  time.Duration
	}
	var got []firing
	rec := func(who string) func(uint64) {
		return func(arg uint64) { got = append(got, firing{who, arg, clk.Since(start)}) }
	}
	a := n.NewContinuation(rec("a"))
	b := n.NewContinuation(rec("b"))

	b.After(5*time.Nanosecond, 1)
	a.After(9*time.Nanosecond, 2) // long wait first...
	a.After(time.Nanosecond, 3)   // ...must not hold the short one back
	a.After(5*time.Nanosecond, 4) // same instant as b's: a registered first
	a.After(5*time.Nanosecond, 5) // same endpoint, same instant: booking order
	clk.Sleep(20 * time.Nanosecond)

	want := []firing{
		{"a", 3, 1}, {"a", 4, 5}, {"a", 5, 5}, {"b", 1, 5}, {"a", 2, 9},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("firings = %v, want %v", got, want)
	}
	if s := n.ExecStats(); s.HandlerDispatches != 0 {
		t.Errorf("continuation events counted as %d handler dispatches", s.HandlerDispatches)
	}
}

// TestContinuationBothEngines: short-after-long ordering holds at
// millisecond waits, and Stop drops the events still booked and
// refuses new ones. The name predates the single delivery engine; the
// "virtual" subtest is the one engine left.
func TestContinuationBothEngines(t *testing.T) {
	onVirtual(t, Link{}, func(t *testing.T, n *Network) {
		clk := n.Clock()
		var fired []uint64
		c := n.NewContinuation(func(arg uint64) { fired = append(fired, arg) })
		c.After(30*time.Millisecond, 1)
		c.After(2*time.Millisecond, 2)
		clk.Sleep(40 * time.Millisecond)
		if !reflect.DeepEqual(fired, []uint64{2, 1}) {
			t.Fatalf("fired %v, want [2 1]", fired)
		}
		fired = nil
		c.After(2*time.Millisecond, 3)
		c.Stop()
		c.After(time.Millisecond, 4)
		clk.Sleep(10 * time.Millisecond)
		if len(fired) != 0 {
			t.Fatalf("events %v fired after Stop", fired)
		}
	})
}

// TestContinuationSteadyStateAllocs: booking and firing continuation
// events allocates nothing once the dispatcher's record slab is warm.
func TestContinuationSteadyStateAllocs(t *testing.T) {
	n := NewVirtualNetwork(Link{}, 1)
	defer n.Close()
	clk := n.Clock()
	fired := 0
	c := n.NewContinuation(func(uint64) { fired++ })
	const perRun = 64
	run := func() {
		for i := 0; i < perRun; i++ {
			c.After(time.Duration(i%7+1), uint64(i))
		}
		clk.Sleep(10 * time.Nanosecond)
	}
	run()
	// The run's own Sleep costs a waiter and a wake channel; 64 events
	// must add nothing to that.
	if got := testing.AllocsPerRun(50, run); got > 2 {
		t.Errorf("%d continuation events + one Sleep allocate %v per run, want ≤ 2", perRun, got)
	}
	if fired < 51*perRun {
		t.Errorf("fired %d events, want ≥ %d", fired, 51*perRun)
	}
}

// TestOnAcceptOrdering: N dials made at one instant are accepted in
// dial order, one link latency later, on the delivery thread — and a
// nearer dialer's later dial still arrives first.
func TestOnAcceptOrdering(t *testing.T) {
	const lat = 3 * time.Millisecond
	onVirtual(t, Link{Latency: lat}, func(t *testing.T, n *Network) {
		clk := n.Clock()
		srv := n.MustAddHost("srv")
		l, err := srv.Listen(7000)
		if err != nil {
			t.Fatal(err)
		}
		const dialers = 8
		type arrival struct {
			from string
			at   time.Duration
		}
		start := clk.Now()
		arrived := NewMailbox[arrival](clk.(*VirtualClock), dialers+1)
		l.OnAccept(func(c *Conn) {
			arrived.Put(arrival{c.RemoteAddr().(Addr).Host, clk.Since(start)})
		})
		near := n.MustAddHost("near")
		n.SetLink("near", "srv", Link{Latency: lat / 3})
		var want []string
		for i := 0; i < dialers; i++ {
			h := n.MustAddHost(fmt.Sprintf("c%d", i))
			if _, err := h.Dial("srv:7000"); err != nil {
				t.Fatal(err)
			}
			want = append(want, h.Name())
		}
		if _, err := near.Dial("srv:7000"); err != nil {
			t.Fatal(err)
		}
		want = append([]string{"near"}, want...)

		for i, w := range want {
			got, err := arrived.Recv(time.Second)
			if err != nil {
				t.Fatalf("arrival %d: %v", i, err)
			}
			if got.from != w {
				t.Fatalf("arrival %d from %s, want %s", i, got.from, w)
			}
			wantAt := lat
			if w == "near" {
				wantAt = lat / 3
			}
			if got.at != wantAt {
				t.Errorf("%s arrived at +%v, want +%v", w, got.at, wantAt)
			}
		}
	})
}

// TestOnAcceptAdoptsBacklog: connections that arrived before the
// handler was installed are handed to it by OnAccept itself.
func TestOnAcceptAdoptsBacklog(t *testing.T) {
	onVirtual(t, Link{}, func(t *testing.T, n *Network) {
		clk := n.Clock()
		srv, cli := n.MustAddHost("srv"), n.MustAddHost("cli")
		l, err := srv.Listen(7000)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Dial("srv:7000"); err != nil {
			t.Fatal(err)
		}
		clk.Sleep(time.Millisecond) // the arrival lands in the backlog
		n2 := 0
		l.OnAccept(func(*Conn) { n2++ })
		if n2 != 1 {
			t.Fatalf("OnAccept adopted %d backlog conns, want 1", n2)
		}
	})
}

// TestListenerClosedBeforeArrival: a listener that closes while a
// connection is still in flight refuses it on arrival, and the dialer
// sees its end close.
func TestListenerClosedBeforeArrival(t *testing.T) {
	onVirtual(t, Link{Latency: 5 * time.Millisecond}, func(t *testing.T, n *Network) {
		clk := n.Clock()
		srv, cli := n.MustAddHost("srv"), n.MustAddHost("cli")
		l, err := srv.Listen(7000)
		if err != nil {
			t.Fatal(err)
		}
		accepted := 0
		l.OnAccept(func(*Conn) { accepted++ })
		c, err := cli.Dial("srv:7000")
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		clk.Sleep(20 * time.Millisecond)
		if accepted != 0 {
			t.Fatalf("closed listener accepted %d conns", accepted)
		}
		if _, err := c.Write([]byte("x")); !errors.Is(err, ErrClosed) {
			t.Errorf("write on refused conn: %v, want ErrClosed", err)
		}
		if _, err := c.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("read on refused conn: %v, want EOF", err)
		}
	})
}
