package simnet

import (
	"io"
	"net"
	"testing"
	"time"
)

// benchPair builds a zero-latency network with a connected stream
// pair: writes are deliverable immediately, so a synchronous
// write-then-read ping exercises the full hot path without parking.
func benchPair(b *testing.B) (*Conn, *Conn) {
	b.Helper()
	n := NewVirtualNetwork(Link{}, 1)
	b.Cleanup(n.Close)
	a := n.MustAddHost("a")
	l, err := n.MustAddHost("z").Listen(80)
	if err != nil {
		b.Fatal(err)
	}
	return acceptOne(b, n, l, a, "z:80")
}

// BenchmarkSimnetStreamThroughput measures the stream delivery hot path
// (Conn.Write → queue → Conn.Read) with MTU-sized payloads. The
// payload pool should hold steady-state allocations near zero.
func BenchmarkSimnetStreamThroughput(b *testing.B) {
	c, peer := benchPair(b)
	defer c.Close()
	defer peer.Close()
	buf := make([]byte, 1200)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Write(buf); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(peer, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimnetPacketConn measures the datagram hot path
// (PacketConn.WriteTo → inbox → PacketConn.ReadFrom).
func BenchmarkSimnetPacketConn(b *testing.B) {
	n := NewVirtualNetwork(Link{}, 1)
	defer n.Close()
	a := n.MustAddHost("a")
	z := n.MustAddHost("z")
	src, err := a.ListenPacket(9000)
	if err != nil {
		b.Fatal(err)
	}
	dst, err := z.ListenPacket(9001)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1200)
	var to net.Addr = Addr{Host: "z", Port: 9001} // boxed once, like a kept net.Addr
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := src.WriteTo(payload, to); err != nil {
			b.Fatal(err)
		}
		if _, _, err := dst.ReadFrom(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// schedTimerSizes are the populations BenchmarkSchedulerTimers and its
// reference-heap twin sweep: one op schedules n timers over a fixed
// per-timer density, cancels a third, and drains the rest — the
// schedule+fire+cancel mix of an attach-and-idle world.
var schedTimerSizes = []struct {
	name string
	n    int
}{
	{"1k", 1_000},
	{"100k", 100_000},
	{"1M", 1_000_000},
}

// timerOffset spreads timer j pseudo-randomly over a span of 100ns per
// population member, so the wheel sees realistic slot occupancy rather
// than one timer per instant.
func timerOffset(j, n int) time.Duration {
	return time.Duration(uint64(j)*2654435761%(uint64(n)*100)) + 1
}

// BenchmarkSchedulerTimers prices the hierarchical timing wheel; its
// RefHeap twin below runs the identical workload on the old
// container/heap scheduler. The wheel must win on both ns/op and
// allocs/op (see TestSchedulerWheelAllocsBeatHeap); benchgate pins the
// wheel numbers against BENCH_BASELINE.json.
func BenchmarkSchedulerTimers(b *testing.B) {
	for _, bc := range schedTimerSizes {
		b.Run(bc.name, func(b *testing.B) {
			s := NewScheduler()
			fn := func() {}
			handles := make([]Event, bc.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := s.Now()
				for j := 0; j < bc.n; j++ {
					handles[j] = s.At(base+timerOffset(j, bc.n), fn)
				}
				for j := 0; j < bc.n; j += 3 {
					handles[j].Cancel()
				}
				s.RunUntil(base + time.Duration(bc.n)*100)
			}
		})
	}
}

// BenchmarkSchedulerTimersRefHeap is the comparison baseline; it is
// deliberately not gated (the old implementation only exists for the
// differential test and this price tag).
func BenchmarkSchedulerTimersRefHeap(b *testing.B) {
	for _, bc := range schedTimerSizes {
		b.Run(bc.name, func(b *testing.B) {
			s := newRefScheduler()
			fn := func() {}
			handles := make([]*refEvent, bc.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := s.Now()
				for j := 0; j < bc.n; j++ {
					handles[j] = s.At(base+timerOffset(j, bc.n), fn)
				}
				for j := 0; j < bc.n; j += 3 {
					handles[j].Cancel()
				}
				s.RunUntil(base + time.Duration(bc.n)*100)
			}
		})
	}
}

// TestSchedulerWheelAllocsBeatHeap pins the allocation half of the
// wheel-vs-heap acceptance bar: at steady state the slab-recycling
// wheel schedules+cancels+drains an entire population with ~zero
// allocations, where the heap pays one Event per timer.
func TestSchedulerWheelAllocsBeatHeap(t *testing.T) {
	const n = 10_000
	ws := NewScheduler()
	fn := func() {}
	wh := make([]Event, n)
	wheelAvg := testing.AllocsPerRun(5, func() {
		base := ws.Now()
		for j := 0; j < n; j++ {
			wh[j] = ws.At(base+timerOffset(j, n), fn)
		}
		for j := 0; j < n; j += 3 {
			wh[j].Cancel()
		}
		ws.RunUntil(base + time.Duration(n)*100)
	})
	hs := newRefScheduler()
	hh := make([]*refEvent, n)
	heapAvg := testing.AllocsPerRun(5, func() {
		base := hs.Now()
		for j := 0; j < n; j++ {
			hh[j] = hs.At(base+timerOffset(j, n), fn)
		}
		for j := 0; j < n; j += 3 {
			hh[j].Cancel()
		}
		hs.RunUntil(base + time.Duration(n)*100)
	})
	if wheelAvg > float64(n)/100 {
		t.Errorf("wheel workload allocates %.0f objects for %d timers, want ~0", wheelAvg, n)
	}
	if wheelAvg*10 >= heapAvg {
		t.Errorf("wheel allocs %.0f not clearly below heap allocs %.0f", wheelAvg, heapAvg)
	}
}

// TestPacketRoundTripNoAllocSteadyState pins the payload pool on the
// datagram path: after warm-up, a WriteTo/ReadFrom pair recycles its
// buffer instead of allocating.
func TestPacketRoundTripNoAllocSteadyState(t *testing.T) {
	n := NewVirtualNetwork(Link{}, 1)
	defer n.Close()
	a := n.MustAddHost("a")
	z := n.MustAddHost("z")
	src, err := a.ListenPacket(9000)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := z.ListenPacket(9001)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1200)
	var to net.Addr = Addr{Host: "z", Port: 9001}
	roundTrip := func() {
		if _, werr := src.WriteTo(payload, to); werr != nil {
			t.Fatal(werr)
		}
		if _, _, rerr := dst.ReadFrom(payload); rerr != nil {
			t.Fatal(rerr)
		}
	}
	for i := 0; i < 64; i++ {
		roundTrip() // warm the pool
	}
	// The per-packet payload copy must not allocate. Allow a small
	// epsilon for runtime noise.
	if avg := testing.AllocsPerRun(500, roundTrip); avg > 0.5 {
		t.Errorf("datagram round trip allocates %.2f objects/op, want ~0", avg)
	}
}

// TestPayloadPool exercises the pool helpers directly: class-sized
// buffers recycle, oversized ones fall back to the GC, and subslices
// are never recycled by accident.
func TestPayloadPool(t *testing.T) {
	b := payloadGet(100)
	if len(b) != 100 || cap(b) != payloadClassBytes {
		t.Fatalf("payloadGet(100): len %d cap %d", len(b), cap(b))
	}
	payloadPut(b)

	big := payloadGet(payloadClassBytes + 1)
	if len(big) != payloadClassBytes+1 {
		t.Fatalf("oversize get: len %d", len(big))
	}
	payloadPut(big) // must not panic, silently GC'd

	payloadPut(nil)     // no-op
	payloadPut(b[10:])  // subslice: wrong cap, not recycled
	payloadPut(b[:0:0]) // re-sliced to nothing: not recycled
}
