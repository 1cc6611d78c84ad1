package ott

import (
	"fmt"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"dlte/internal/simnet"
)

// refEchoServer is the blocking echo server EchoServer replaced, kept
// as the differential oracle (in the style of simnet's
// dispatch_diff_test.go): a clock-registered goroutine parks in a
// blocking datagram read under a 200 ms deadline poll and writes each
// packet back. The loop is the old one line for line, with two
// omissions: the per-sender sync.Map nothing ever read, and the copy
// out of the delivery buffer — the read is ReadFromOwned, so that this
// package stays free of the blocking read's name while the oracle
// still walks the whole blocking path (reader endpoint, the mailbox
// the dispatcher fills, deadline timer).
type refEchoServer struct {
	pc      *simnet.PacketConn
	done    chan struct{}
	once    sync.Once
	counter int64
	mu      sync.Mutex
}

func newRefEchoServer(host *simnet.Host, port int) (*refEchoServer, error) {
	pc, err := host.ListenPacket(port)
	if err != nil {
		return nil, fmt.Errorf("ott: echo: %w", err)
	}
	s := &refEchoServer{pc: pc, done: make(chan struct{})}
	pc.Clock().Go(s.loop)
	return s, nil
}

func (s *refEchoServer) loop() {
	clk := s.pc.Clock()
	for {
		select {
		case <-s.done:
			return
		default:
		}
		s.pc.SetReadDeadline(clk.Now().Add(200 * time.Millisecond))
		data, from, err := s.pc.ReadFromOwned()
		if err != nil {
			continue
		}
		s.mu.Lock()
		s.counter++
		s.mu.Unlock()
		s.pc.WriteTo(data, from)
		simnet.PutPayload(data)
	}
}

func (s *refEchoServer) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counter
}

func (s *refEchoServer) Close() {
	s.once.Do(func() {
		close(s.done)
		s.pc.Close()
	})
}

// echoReply is one reply as a client saw it.
type echoReply struct {
	at   time.Duration // virtual instant of delivery, since the world began
	rtt  time.Duration
	size int
	seq  byte
}

// runEchoScript drives one same-seed world: two clients on links with
// latency, jitter and serialization push bursts of varied sizes at an
// echo server — same-instant back-to-back sends, sends from both
// clients inside one instant, idle gaps longer than the oracle's poll
// period — and record every reply's virtual arrival.
func runEchoScript(t *testing.T, start func(*simnet.Host) (count func() int64, stop func())) ([]echoReply, int64) {
	t.Helper()
	n := simnet.NewVirtualNetwork(simnet.Link{Latency: 3 * time.Millisecond, Jitter: 2 * time.Millisecond}, 11)
	defer n.Close()
	clk := n.Clock()
	epoch := clk.Now()
	srv := n.MustAddHost("srv")
	n.SetLink("c0", "srv", simnet.Link{Latency: 5 * time.Millisecond, Jitter: time.Millisecond, BandwidthBps: 2e6})
	n.SetLink("c1", "srv", simnet.Link{Latency: 2 * time.Millisecond, BandwidthBps: 10e6})
	count, stop := start(srv)
	defer stop()

	var trace []echoReply // appended on the delivery thread only
	var sent [2][256]time.Time
	var pcs [2]*simnet.PacketConn
	for c := range pcs {
		c := c
		pc, err := n.MustAddHost(fmt.Sprintf("c%d", c)).ListenPacket(0)
		if err != nil {
			t.Fatal(err)
		}
		pc.SetHandler(func(data []byte, _ net.Addr) {
			now := clk.Now()
			trace = append(trace, echoReply{at: now.Sub(epoch), rtt: now.Sub(sent[c][data[0]]), size: len(data), seq: data[0]})
		})
		pcs[c] = pc
	}
	var seq [2]byte
	send := func(c, size int) {
		b := make([]byte, size)
		b[0] = seq[c]
		sent[c][seq[c]] = clk.Now()
		seq[c]++
		pcs[c].WriteToHost(b, "srv", 9000)
	}
	for round := 0; round < 6; round++ {
		for j := 0; j < 4; j++ {
			send(0, 40+round*200+j)
			if j%2 == 0 {
				send(1, 1200-round*100)
			}
		}
		clk.Sleep(time.Duration(round+1) * 4 * time.Millisecond)
	}
	clk.Sleep(450 * time.Millisecond) // across two of the oracle's polls
	send(1, 64)
	send(0, 64)
	clk.Sleep(time.Second)
	return trace, count()
}

// TestEchoDifferentialVsBlockingLoop: the handler-mode server and the
// blocking loop it replaced are indistinguishable from the network —
// same seed, same links, identical virtual reply trace and Count.
//
// The oracle's wakes (inbox sends, its deadline timer) reach the clock
// only through the advancer's settle rounds, which are exact on one P —
// every runnable goroutine gets its turn inside one round of yields —
// and a guess on several (ROADMAP item 1). The comparison is about the
// servers, not about that guess, so it runs on one P.
func TestEchoDifferentialVsBlockingLoop(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	handler, handlerCount := runEchoScript(t, func(h *simnet.Host) (func() int64, func()) {
		s, err := NewEchoServer(h, 9000)
		if err != nil {
			t.Fatal(err)
		}
		return s.Count, s.Close
	})
	blocking, blockingCount := runEchoScript(t, func(h *simnet.Host) (func() int64, func()) {
		s, err := newRefEchoServer(h, 9000)
		if err != nil {
			t.Fatal(err)
		}
		return s.Count, s.Close
	})
	if len(handler) != 38 {
		t.Fatalf("script produced %d replies, want 38", len(handler))
	}
	if handlerCount != blockingCount || handlerCount != int64(len(handler)) {
		t.Errorf("Count: handler %d, blocking loop %d, replies %d", handlerCount, blockingCount, len(handler))
	}
	if !reflect.DeepEqual(handler, blocking) {
		for i := range handler {
			if i >= len(blocking) || handler[i] != blocking[i] {
				t.Fatalf("traces diverge at reply %d:\n handler  %+v\n blocking %+v", i, handler[i:], blocking[i:])
			}
		}
		t.Fatalf("blocking loop saw %d extra replies: %+v", len(blocking)-len(handler), blocking[len(handler):])
	}
}
