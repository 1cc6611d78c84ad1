package simnet

import (
	"fmt"
	"net"
	"testing"
	"time"
)

// The differential harness: the same scripted traffic runs through two
// identically-seeded virtual worlds, once received by a run-to-
// completion handler and once by the legacy blocking-read shim. The
// observable contract of the dispatch conversion is that the execution
// model is invisible: every delivery must surface the same bytes at
// the same virtual instant in the same order in both worlds.

// delivery is one observed receive event: what arrived and the virtual
// instant the receiver saw it.
type delivery struct {
	at   time.Duration
	data string
	eof  bool
}

func (d delivery) String() string {
	if d.eof {
		return fmt.Sprintf("[%v EOF]", d.at)
	}
	return fmt.Sprintf("[%v %q]", d.at, d.data)
}

// diffWorld builds a fresh virtual two-host world and returns the
// network plus a connected stream pair (client conn on "a", accepted
// conn on "b").
func diffWorld(t *testing.T, link Link) (*Network, *Conn, *Conn) {
	t.Helper()
	n := NewVirtualNetwork(link, 7)
	t.Cleanup(n.Close)
	a := n.MustAddHost("a")
	b := n.MustAddHost("b")
	l, err := b.Listen(9000)
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan *Conn, 1)
	clk := n.Clock()
	clk.Go(func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		accepted <- c.(*Conn)
	})
	cc, err := a.Dial("b:9000")
	if err != nil {
		t.Fatal(err)
	}
	// The test goroutine holds the clock's creator slot, so any plain
	// channel wait must release it or virtual time stalls.
	clk.Block()
	sc := <-accepted
	clk.Unblock()
	return n, cc.(*Conn), sc
}

// runStreamScript plays a fixed write schedule from the sender side:
// bursts of varied sizes, same-instant back-to-back writes, virtual
// gaps between bursts, then a close. The schedule exercises delivery
// ordering within one instant and across instants.
func runStreamScript(clk Clock, c *Conn) {
	for round := 0; round < 5; round++ {
		for j := 0; j < 3; j++ {
			msg := fmt.Sprintf("r%d-m%d:%s", round, j, "xxxxxxxxxx"[:round*2+j%3])
			c.Write([]byte(msg))
		}
		clk.Sleep(time.Duration(round+1) * 3 * time.Millisecond)
	}
	c.Close()
}

// TestDispatchDifferentialStream runs the stream script into a handler
// receiver and into a blocking-read receiver in separate same-seed
// worlds and requires byte- and timestamp-identical delivery traces.
func TestDispatchDifferentialStream(t *testing.T) {
	link := Link{Latency: 2 * time.Millisecond, Jitter: time.Millisecond}

	// Handler world.
	var handlerTrace []delivery
	{
		n, cc, sc := diffWorld(t, link)
		clk := n.Clock().(*VirtualClock)
		done := make(chan struct{})
		sc.OnDeliver(func(data []byte) {
			handlerTrace = append(handlerTrace, delivery{at: clk.nowDur(), data: string(data)})
		}, func() {
			handlerTrace = append(handlerTrace, delivery{at: clk.nowDur(), eof: true})
			close(done)
		})
		clk.Go(func() { runStreamScript(clk, cc) })
		clk.Block()
		<-done
		clk.Unblock()
	}

	// Legacy world: a clock-registered goroutine blocks in Read.
	var legacyTrace []delivery
	{
		n, cc, sc := diffWorld(t, link)
		clk := n.Clock().(*VirtualClock)
		done := make(chan struct{})
		clk.Go(func() {
			buf := make([]byte, 4096)
			for {
				nr, err := sc.Read(buf)
				if nr > 0 {
					legacyTrace = append(legacyTrace, delivery{at: clk.nowDur(), data: string(buf[:nr])})
				}
				if err != nil {
					legacyTrace = append(legacyTrace, delivery{at: clk.nowDur(), eof: true})
					close(done)
					return
				}
			}
		})
		clk.Go(func() { runStreamScript(clk, cc) })
		clk.Block()
		<-done
		clk.Unblock()
	}

	compareTraces(t, "stream", handlerTrace, legacyTrace)
}

// TestDispatchDifferentialPacket does the same for datagram sockets:
// SetHandler against a blocking ReadFrom loop, including a lossy,
// jittered link (same seed, so both worlds drop the same packets).
func TestDispatchDifferentialPacket(t *testing.T) {
	link := Link{Latency: 2 * time.Millisecond, Jitter: time.Millisecond, Loss: 0.2}
	const packets = 40

	script := func(clk Clock, pc *PacketConn) {
		for i := 0; i < packets; i++ {
			pc.WriteToHost([]byte(fmt.Sprintf("pkt-%02d", i)), "b", 9001)
			if i%5 == 4 {
				clk.Sleep(2 * time.Millisecond)
			}
		}
		// The trailing fence is past every possible jittered delivery.
		clk.Sleep(50 * time.Millisecond)
	}

	build := func(t *testing.T) (*Network, *VirtualClock, *PacketConn, *PacketConn) {
		n := NewVirtualNetwork(link, 7)
		t.Cleanup(n.Close)
		a := n.MustAddHost("a")
		b := n.MustAddHost("b")
		tx, err := a.ListenPacket(9001)
		if err != nil {
			t.Fatal(err)
		}
		rx, err := b.ListenPacket(9001)
		if err != nil {
			t.Fatal(err)
		}
		return n, n.Clock().(*VirtualClock), tx, rx
	}

	var handlerTrace []delivery
	{
		_, clk, tx, rx := build(t)
		rx.SetHandler(func(data []byte, from net.Addr) {
			handlerTrace = append(handlerTrace, delivery{at: clk.nowDur(), data: string(data)})
		})
		done := make(chan struct{})
		clk.Go(func() { script(clk, tx); close(done) })
		clk.Block()
		<-done
		clk.Unblock()
	}

	var legacyTrace []delivery
	{
		_, clk, tx, rx := build(t)
		stop := make(chan struct{})
		drained := make(chan struct{})
		clk.Go(func() {
			defer close(drained)
			buf := make([]byte, 4096)
			for {
				rx.SetReadDeadline(clk.Now().Add(5 * time.Millisecond))
				nr, _, err := rx.ReadFrom(buf)
				if nr > 0 {
					legacyTrace = append(legacyTrace, delivery{at: clk.nowDur(), data: string(buf[:nr])})
				}
				if err != nil {
					select {
					case <-stop:
						return
					default:
					}
				}
			}
		})
		done := make(chan struct{})
		clk.Go(func() { script(clk, tx); close(done) })
		clk.Block()
		<-done
		clk.Unblock()
		close(stop)
		clk.Block()
		<-drained
		clk.Unblock()
	}

	compareTraces(t, "packet", handlerTrace, legacyTrace)
}

func compareTraces(t *testing.T, kind string, handler, legacy []delivery) {
	t.Helper()
	if len(handler) == 0 {
		t.Fatalf("%s: handler trace empty", kind)
	}
	n := len(handler)
	if len(legacy) != n {
		t.Errorf("%s: handler saw %d deliveries, legacy saw %d", kind, n, len(legacy))
		if len(legacy) < n {
			n = len(legacy)
		}
	}
	for i := 0; i < n; i++ {
		if handler[i] != legacy[i] {
			t.Fatalf("%s: delivery %d diverges:\n  handler %v\n  legacy  %v", kind, i, handler[i], legacy[i])
		}
	}
	if t.Failed() {
		t.Fatalf("%s traces:\nhandler %v\nlegacy  %v", kind, handler, legacy)
	}
}

// TestDispatchLoneDeliveryTwoBatches pins the advancer's cost of one
// handler-to-handler hop: from an idle wheel, a delivery one link delay
// out is reached in two steps — the wheel slot's span start, where the
// slot flattens into the run, then the exact instant — however many
// wheel levels the delay spans (one step per level before: 4 for 10 ms,
// 5 for 100 ms). The loop is the advancer's: ask next, move time there,
// run the batch.
func TestDispatchLoneDeliveryTwoBatches(t *testing.T) {
	for _, delay := range []time.Duration{10 * time.Millisecond, 100 * time.Millisecond} {
		d := &dispatcher{sched: NewScheduler()}
		dc := d.register(new(dconn))
		delivered := 0
		dc.onData = func([]byte) { delivered++ }
		d.enqueueV(dc, nil, nil, 0, delay, evData)
		batches := 0
		for delivered == 0 {
			at, ok := d.next()
			if !ok {
				t.Fatalf("delay %v: nothing queued after %d batches", delay, batches)
			}
			d.runAt(at)
			if batches++; batches > 2 {
				t.Fatalf("delay %v: not delivered within 2 batches", delay)
			}
		}
		if now := d.sched.Now(); now != delay {
			t.Fatalf("delay %v: delivered at %v", delay, now)
		}
	}
}
