package registry

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"
	"unsafe"

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
// invalidation cost it forces on the next read. The records (at most
// 100 000 IDs, reused in turn) are built before the timer starts, so
// allocs/op counts the store's work only.
func BenchmarkStoreJoin(b *testing.B) {
	s := NewStore()
	recs := make([]APRecord, min(b.N, 100_000))
	for i := range recs {
		recs[i] = rec(fmt.Sprintf("ap-%07d", i), float64(i%317)*100, float64(i%211)*100)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Join(recs[i%len(recs)]); err != nil {
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
	NewServer(store).Serve(l)
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

// keysLoopConn is revLoopConn for a Keys pull: Write accepts the opKeys
// request and rewinds the pre-encoded reply the following Reads serve,
// so the allocation gate sees only the client's decode path.
type keysLoopConn struct {
	revLoopConn
	reply []byte
}

func (l *keysLoopConn) Write(p []byte) (int, error) {
	if len(p) != 5 || p[4] != opKeys {
		return 0, fmt.Errorf("keysLoopConn: unexpected frame %x", p)
	}
	l.off = 0
	return len(p), nil
}

func (l *keysLoopConn) Read(p []byte) (int, error) {
	if l.off == len(l.reply) {
		return 0, io.EOF
	}
	n := copy(p, l.reply[l.off:])
	l.off += n
	return n, nil
}

// TestKeysPullAllocs pulls a multi-frame Keys reply and requires
// exactly Store.Keys() back at a cost per frame, not per key: per frame
// its receive buffer and the one string copy all of its keys' IMSI, K
// and OPc share; one array for the result (the reply's frames are held
// until the last, so the result is sized once and every chunk decodes
// straight into it); and one request frame. Decoding each string on
// its own costs three allocations per key; decoding every chunk into a
// fresh slice and appending it onto the result costs a slice per frame
// plus the result's regrowth.
func TestKeysPullAllocs(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector; pooled paths allocate by design")
	}
	const n = 7*maxKeysPerFrame + 17
	want, reply := keysReply(t, n, 1)
	frames := 0
	for b := reply; len(b) > 0; frames++ {
		b = b[4+binary.BigEndian.Uint32(b):]
	}
	if frames < 8 {
		t.Fatalf("%d keys travel in %d frames, want at least 8", n, frames)
	}
	loop := &keysLoopConn{reply: reply}
	c := &Client{fc: wire.NewFrameConn(loop), c: loop}
	got, err := c.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Keys pulled %d keys, store holds %d (or they differ)", len(got), len(want))
	}
	// A collection mid-pull would empty the frame pool and count its
	// refills; the pulls here allocate a few MB, so the gate runs
	// without one.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(5, func() {
		if got, err := c.Keys(); err != nil || len(got) != n {
			t.Fatalf("Keys = %d keys, %v", len(got), err)
		}
	})
	result := 1                    // sized once, to the reply's total
	limit := 2*frames + result + 1 // receive buffers and string copies, result, the request
	t.Logf("Keys pull of %d keys in %d frames: %.0f allocs, bound %d", n, frames, allocs, limit)
	if allocs > float64(limit) {
		t.Errorf("Keys pull of %d keys in %d frames: %.0f allocs, want at most %d (2 per frame, %d for the result, 1 for the request)",
			n, frames, allocs, limit, result)
	}
}

// keysReply publishes n keys derived from salt and returns the store's
// Keys and the framed reply a server sends for them.
func keysReply(tb testing.TB, n int, salt uint64) ([]KeyRecord, []byte) {
	store := NewStore()
	for i := 0; i < n; i++ {
		k := testKey(i)
		k.K = fmt.Sprintf("%032x", uint64(i)+salt)
		if err := store.PublishKey(k); err != nil {
			tb.Fatal(err)
		}
	}
	var reply bytes.Buffer
	if err := sendKeys(wire.NewFrameConn(&reply), store.Revision(), store.Keys()); err != nil {
		tb.Fatal(err)
	}
	return store.Keys(), reply.Bytes()
}

// TestKeysOutliveReceiveFrames: the strings of a pulled reply share a
// copy of each frame, never the pooled receive buffer, so recycling
// those buffers — scribbled over, then refilled by a different reply —
// leaves the first result as it was.
func TestKeysOutliveReceiveFrames(t *testing.T) {
	const n = 30 // one frame well inside the pooled frame size
	want, first := keysReply(t, n, 1)
	_, second := keysReply(t, n, 1000)
	if len(first) > 4096 {
		t.Fatalf("a %d-key reply is %d bytes, past the pooled frame size", n, len(first))
	}
	loop := &keysLoopConn{reply: first}
	c := &Client{fc: wire.NewFrameConn(loop), c: loop}
	got, err := c.Keys()
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("first pull: %d keys, %v", len(got), err)
	}
	for i := 0; i < 4; i++ {
		f := wire.GetFrame()
		f = f[:cap(f)]
		for j := range f {
			f[j] = 0xFF
		}
		wire.PutFrame(f)
	}
	loop.reply = second
	again, err := c.Keys()
	if err != nil || len(again) != n || again[0].K == want[0].K {
		t.Fatalf("second pull: %d keys, %v", len(again), err)
	}
	if !slices.Equal(got, want) {
		t.Errorf("the first pull's keys changed when its receive frames were reused:\n got %+v\nwant %+v", got[0], want[0])
	}
}

// BenchmarkKeysPull prices the client side of a bulk key pull: a
// 28 689-key reply in 8 frames, served by an in-process loop so only
// the client's receive and decode path is measured.
func BenchmarkKeysPull(b *testing.B) {
	const n = 7*maxKeysPerFrame + 17
	want, reply := keysReply(b, n, 1)
	loop := &keysLoopConn{reply: reply}
	c := &Client{fc: wire.NewFrameConn(loop), c: loop}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got, err := c.Keys(); err != nil || len(got) != len(want) {
			b.Fatalf("Keys = %d keys, %v", len(got), err)
		}
	}
}

// BenchmarkKeysAfterPublish prices E10's polling pattern on a 10k-key
// store: every op republishes one key and reads Keys, so each read
// finds the key snapshot stale and rebuilds it.
func BenchmarkKeysAfterPublish(b *testing.B) {
	const n = 10_000
	s := NewStore()
	recs := make([]KeyRecord, n)
	for i := range recs {
		if err := s.PublishKey(testKey(i)); err != nil {
			b.Fatal(err)
		}
		recs[i] = testKey(i)
		recs[i].K = fmt.Sprintf("%032x", uint64(i)+3)
	}
	s.Keys()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.PublishKey(recs[i%n]); err != nil {
			b.Fatal(err)
		}
		if got := s.Keys(); len(got) != n {
			b.Fatalf("Keys = %d records", len(got))
		}
	}
}

// simPullKeys is the key count of the simnet-backed pulls: two full
// 4 096-key chunks and a partial third, E10's 10k-key scale.
const simPullKeys = 2*maxKeysPerFrame + 1825

// simPull serves a store of simPullKeys keys on a virtual network and
// dials a client to it, the way E10's observers pull.
func simPull(tb testing.TB) (*Client, []KeyRecord) {
	tb.Helper()
	n := simnet.NewVirtualNetwork(simnet.Link{Latency: time.Millisecond}, 1)
	tb.Cleanup(n.Close)
	store := NewStore()
	for i := 0; i < simPullKeys; i++ {
		if err := store.PublishKey(testKey(i)); err != nil {
			tb.Fatal(err)
		}
	}
	l, err := n.MustAddHost("registry").Listen(8400)
	if err != nil {
		tb.Fatal(err)
	}
	NewServer(store).Serve(l)
	c, err := Dial(n.MustAddHost("client").Dial, "registry:8400")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c, store.Keys()
}

// pullBytes runs pull once and reports the bytes the process allocated
// during it and the reply's wire bytes (frames and prefixes).
func pullBytes(tb testing.TB, c *Client, pull func() ([]KeyRecord, error)) (alloc, wire uint64, got []KeyRecord) {
	tb.Helper()
	var before, after runtime.MemStats
	_, rx0 := c.Traffic()
	runtime.ReadMemStats(&before)
	got, err := pull()
	runtime.ReadMemStats(&after)
	if err != nil {
		tb.Fatal(err)
	}
	_, rx1 := c.Traffic()
	return after.TotalAlloc - before.TotalAlloc, rx1 - rx0, got
}

// TestKeysPullSimnetBytes prices a whole key pull — server encode,
// stream, client decode — over a simnet stream. Each oversize chunk is
// allocated once, by the stream's copy of the server's write, and the
// client adopts it as its frame and its keys' string storage; the
// result is sized once. So a fresh Keys pull allocates little more
// than the reply's wire bytes plus the result array, and a KeysAppend
// re-pull into the previous result little more than the wire bytes.
func TestKeysPullSimnetBytes(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector; pooled paths allocate by design")
	}
	// One P and no collection: every pool lookup (the server's encoder,
	// the frame pools) finds what the warm-up pull left on that P's
	// cache, so the count does not depend on the host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c, want := simPull(t)
	if got, err := c.Keys(); err != nil || !slices.Equal(got, want) {
		t.Fatalf("warm-up pull: %d keys, %v", len(got), err)
	}

	alloc, wireBytes, got := pullBytes(t, c, c.Keys)
	if !slices.Equal(got, want) {
		t.Fatalf("Keys pulled %d keys, store holds %d (or they differ)", len(got), len(want))
	}
	bound := 1.1 * float64(wireBytes+simPullKeys*uint64(unsafe.Sizeof(KeyRecord{})))
	t.Logf("fresh Keys pull: %d B allocated, %d wire bytes, bound %.0f", alloc, wireBytes, bound)
	if float64(alloc) > bound {
		t.Errorf("fresh Keys pull allocated %d B, want at most %.0f (1.1 × (%d wire bytes + the %d-key result))",
			alloc, bound, wireBytes, simPullKeys)
	}

	prev := got
	alloc, wireBytes, got = pullBytes(t, c, func() ([]KeyRecord, error) { return c.KeysAppend(prev[:0]) })
	if !slices.Equal(got, want) || &got[0] != &prev[0] {
		t.Fatalf("KeysAppend re-pull: %d keys, in place %v", len(got), &got[0] == &prev[0])
	}
	bound = 1.1 * float64(wireBytes)
	t.Logf("KeysAppend re-pull: %d B allocated, %d wire bytes, bound %.0f", alloc, wireBytes, bound)
	if float64(alloc) > bound {
		t.Errorf("KeysAppend re-pull allocated %d B, want at most %.0f (1.1 × %d wire bytes)", alloc, bound, wireBytes)
	}
}

// BenchmarkKeysPullSimnet is BenchmarkKeysPull end to end: a Server
// over a 10k-key Store answers each Keys pull through Dial on a
// virtual network, so its B/op counts the server's encode, the
// stream's one copy of every chunk and the client's decode.
func BenchmarkKeysPullSimnet(b *testing.B) {
	c, want := simPull(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got, err := c.Keys(); err != nil || len(got) != len(want) {
			b.Fatalf("Keys = %d keys, %v", len(got), err)
		}
	}
}

// TestForgedCountsSizeNothing: a reply of many tiny frames, each
// claiming a full chunk of keys it does not carry, fails as a bad
// response at about its wire bytes' cost. The client caps each frame's
// count at the frame's length before adding it to the total (without
// the cap it would size the result for 200 × 4 096 keys, ~39 MB), and
// holds a pooled non-terminal frame as a copy of its bytes, not as a
// 4 KiB pool buffer (~0.8 MB here).
func TestForgedCountsSizeNothing(t *testing.T) {
	const frames = 200
	var reply bytes.Buffer
	fc := wire.NewFrameConn(&reply)
	for i := 0; i < frames; i++ {
		e := wire.Encoder(nil)
		h := chunk{kind: respKeys, rev: 1, more: i < frames-1}
		e.U8(&h.kind)
		h.listHead(&e, maxKeysPerFrame, 4, maxKeysPerFrame)
		if err := fc.Send(e.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	loop := &keysLoopConn{reply: reply.Bytes()}
	c := &Client{fc: wire.NewFrameConn(loop), c: loop}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := c.Keys()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("forged reply: %v, want ErrTruncated", err)
	}
	// Sized by the claims, the result would take frames × 4096 keys
	// (~39 MB); one frame's make in wire.Fit is ~200 KB.
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("forged reply of %d frames allocated %d B, want under 1 MiB", frames, got)
	}
}
