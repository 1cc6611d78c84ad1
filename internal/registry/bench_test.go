package registry

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"dlte/internal/geo"
	"dlte/internal/leaktest"
	"dlte/internal/simnet"
	"dlte/internal/wire"
)

// benchStore is a 2048-AP deployment on a 64-column 1 km grid — the
// E10 full-scale population.
func benchStore(tb testing.TB) *Store {
	tb.Helper()
	s := NewStore()
	seedGrid(tb, s, 2048)
	s.List("") // build the snapshot outside the timed region
	return s
}

// benchRect covers 8 of the 2048 APs.
var benchRect = geo.NewRect(geo.Pt(-500, -500), geo.Pt(3500, 1500))

// BenchmarkRegistryLookup measures the discovery-plane read path at
// 2048 registered APs. Both sub-benchmarks are allocation-gated in CI
// (cmd/benchgate): List returns the shared copy-on-write snapshot and
// InRegion walks the spatial grid index, so neither copies or sorts
// the full table per call the way the pre-snapshot store did
// (~1.17 ms/op and 600 KB/op for List at this size).
func BenchmarkRegistryLookup(b *testing.B) {
	s := benchStore(b)
	b.Run("List", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := s.List(""); len(got) != 2048 {
				b.Fatalf("List = %d records", len(got))
			}
		}
	})
	b.Run("InRegion", func(b *testing.B) {
		buf := make([]APRecord, 0, 64)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = s.InRegionAppend("", benchRect, buf[:0])
			if len(buf) != 8 {
				b.Fatalf("InRegion = %d records", len(buf))
			}
		}
	})
	b.Run("Get", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := s.Get("ap-1024"); !ok {
				b.Fatal("missing record")
			}
		}
	})
}

// BenchmarkStoreJoin measures the mutation path (map insert, delta
// log push, watch wakeup) including the amortized snapshot
// invalidation cost it forces on the next read.
func BenchmarkStoreJoin(b *testing.B) {
	s := NewStore()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Join(rec(fmt.Sprintf("ap-%07d", i%100_000), float64(i%317)*100, float64(i%211)*100)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegistryRevisionRTT measures the lightweight revision probe
// end to end over a zero-latency simnet connection — the whole
// request/response cycle behind Client.Revision.
func BenchmarkRegistryRevisionRTT(b *testing.B) {
	n := simnet.NewVirtualNetwork(simnet.Link{}, 1)
	defer n.Close()
	srvHost := n.MustAddHost("registry")
	cliHost := n.MustAddHost("client")
	store := NewStore()
	seedGrid(b, store, 64)
	l, err := srvHost.Listen(8400)
	if err != nil {
		b.Fatal(err)
	}
	n.Clock().Go(func() { NewServer(store).Serve(l) })
	c, err := Dial(cliHost.Dial, "registry:8400")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Revision(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Revision(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRegistryLookupZeroAlloc is the hard gate behind the benchmark
// numbers: snapshot reads and grid-served region queries allocate
// nothing per op, independent of table size — a region query must not
// fall back to copying the full 2048-record table.
func TestRegistryLookupZeroAlloc(t *testing.T) {
	s := benchStore(t)
	buf := make([]APRecord, 0, 64)
	if allocs := testing.AllocsPerRun(500, func() { _ = s.List("") }); allocs != 0 {
		t.Errorf("List: %.1f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(500, func() { buf = s.InRegionAppend("", benchRect, buf[:0]) }); allocs != 0 {
		t.Errorf("InRegionAppend: %.1f allocs/op, want 0", allocs)
	}
}

// TestInRegionAllocsScaleWithResult: the allocating convenience
// wrapper may allocate the result slice, but proportionally to the
// hits it returns — not to the 2048-record table.
func TestInRegionAllocsScaleWithResult(t *testing.T) {
	s := benchStore(t)
	allocs := testing.AllocsPerRun(100, func() {
		if got := s.InRegion("", benchRect); len(got) != 8 {
			t.Fatalf("InRegion = %d records", len(got))
		}
	})
	// Growing an 8-element result needs a handful of appends; copying
	// the full table (the old implementation) needed dozens of grow
	// steps plus a 600 KB backing array.
	if allocs > 6 {
		t.Errorf("InRegion allocates %.1f objects per 8-hit query; scaling with table size, not result size", allocs)
	}
}

// revLoopConn is a synchronous in-process registry endpoint: Write
// accepts one framed request and stages the respRev reply that the
// following Reads serve, all on the caller's goroutine. It removes the
// server conn goroutine from the measured window so the allocation
// gate sees only the client fast path (cross-goroutine sync.Pool
// traffic otherwise strands pooled frames in per-P private slots and
// reads as allocs that have nothing to do with the codec).
type revLoopConn struct {
	store *Store
	resp  [13]byte
	off   int
	pend  int
}

func (l *revLoopConn) Write(p []byte) (int, error) {
	if len(p) != 5 || p[4] != opRev {
		return 0, fmt.Errorf("revLoopConn: unexpected frame %x", p)
	}
	binary.BigEndian.PutUint32(l.resp[0:4], 9)
	l.resp[4] = respRev
	binary.BigEndian.PutUint64(l.resp[5:13], l.store.Revision())
	l.off, l.pend = 0, len(l.resp)
	return len(p), nil
}

func (l *revLoopConn) Read(p []byte) (int, error) {
	if l.off == l.pend {
		return 0, io.EOF
	}
	n := copy(p, l.resp[l.off:l.pend])
	l.off += n
	return n, nil
}

func (l *revLoopConn) Close() error                     { return nil }
func (l *revLoopConn) LocalAddr() net.Addr              { return nil }
func (l *revLoopConn) RemoteAddr() net.Addr             { return nil }
func (l *revLoopConn) SetDeadline(time.Time) error      { return nil }
func (l *revLoopConn) SetReadDeadline(time.Time) error  { return nil }
func (l *revLoopConn) SetWriteDeadline(time.Time) error { return nil }

// TestRevisionProbeZeroAlloc gates Client.Revision's fast path: one
// pooled frame out, one pooled frame back, in-place decode — nothing
// allocated per probe.
func TestRevisionProbeZeroAlloc(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector; pooled paths allocate by design")
	}
	store := NewStore()
	seedGrid(t, store, 8)
	loop := &revLoopConn{store: store}
	c := &Client{fc: wire.NewFrameConn(loop), c: loop}
	if _, err := c.Revision(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.Revision(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Revision round trip: %.2f allocs/op, want 0", allocs)
	}
}
