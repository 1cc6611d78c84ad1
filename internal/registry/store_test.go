package registry

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dlte/internal/geo"
	"dlte/internal/leaktest"
	"dlte/internal/simnet"
	"dlte/internal/wire"
)

func testKey(i int) KeyRecord {
	return KeyRecord{
		IMSI: fmt.Sprintf("00101%010d", i),
		K:    fmt.Sprintf("%032x", uint64(i)+1),
		OPc:  fmt.Sprintf("%032x", uint64(i)+2),
	}
}

// seedGrid fills a store with n APs on a 1 km grid (the E10 layout).
func seedGrid(tb testing.TB, s *Store, n int) {
	tb.Helper()
	cols := 64
	for i := 0; i < n; i++ {
		r := rec(fmt.Sprintf("ap-%04d", i), float64(i%cols)*1000, float64(i/cols)*1000)
		if err := s.Join(r); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestInRegionGridMatchesLinear cross-checks the spatial-grid query
// path against a brute-force scan over random rectangles, including
// degenerate and out-of-bounds ones.
func TestInRegionGridMatchesLinear(t *testing.T) {
	s := NewStore()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		r := rec(fmt.Sprintf("ap-%04d", i), rng.Float64()*50_000, rng.Float64()*30_000)
		if i%3 == 0 {
			r.Band = "LTE band 13 (700 MHz)"
		}
		if err := s.Join(r); err != nil {
			t.Fatal(err)
		}
	}
	all := s.List("")
	rects := []geo.Rect{
		geo.NewRect(geo.Pt(-100, -100), geo.Pt(100, 100)),   // corner sliver
		geo.NewRect(geo.Pt(0, 0), geo.Pt(50_000, 30_000)),   // everything
		geo.NewRect(geo.Pt(60_000, 0), geo.Pt(70_000, 100)), // fully outside
		geo.NewRect(geo.Pt(5, 5), geo.Pt(5, 5)),             // degenerate point
	}
	for i := 0; i < 50; i++ {
		a := geo.Pt(rng.Float64()*60_000-5000, rng.Float64()*40_000-5000)
		b := geo.Pt(a.X+rng.Float64()*20_000, a.Y+rng.Float64()*20_000)
		rects = append(rects, geo.NewRect(a, b))
	}
	for _, band := range []string{"", "LTE band 5 (850 MHz)", "LTE band 13 (700 MHz)", "nope"} {
		for _, rect := range rects {
			got := s.InRegion(band, rect)
			var want []APRecord
			for _, r := range all {
				if (band == "" || r.Band == band) && rect.Contains(r.Position()) {
					want = append(want, r)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("band %q rect %+v: grid found %d, linear %d", band, rect, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("band %q rect %+v: [%d] = %+v, want %+v", band, rect, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStoreReadsZeroAlloc pins the copy-on-write promise: at steady
// state (no interleaved mutations) List, Keys, Get, FetchKey,
// Revision, and grid-served InRegionAppend perform zero allocations —
// in particular, region queries must NOT allocate a full-table copy
// the way the pre-grid implementation did.
func TestStoreReadsZeroAlloc(t *testing.T) {
	s := NewStore()
	seedGrid(t, s, 2048)
	for i := 0; i < 64; i++ {
		if err := s.PublishKey(testKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	rect := geo.NewRect(geo.Pt(-500, -500), geo.Pt(3500, 1500)) // 8 of 2048 APs
	buf := make([]APRecord, 0, 64)
	warm := s.InRegionAppend("", rect, buf[:0])
	if len(warm) != 8 {
		t.Fatalf("region query found %d APs, want 8", len(warm))
	}
	imsi := testKey(0).IMSI
	checks := map[string]func(){
		"List":           func() { _ = s.List("") },
		"ListBand":       func() { _ = s.List("LTE band 5 (850 MHz)") },
		"Keys":           func() { _ = s.Keys() },
		"Get":            func() { _, _ = s.Get("ap-0000") },
		"FetchKey":       func() { _, _ = s.FetchKey(imsi) },
		"Revision":       func() { _ = s.Revision() },
		"InRegionAppend": func() { _ = s.InRegionAppend("", rect, buf[:0]) },
	}
	for name, fn := range checks {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f objects/op at steady state, want 0", name, allocs)
		}
	}
}

// TestListSharedSnapshotStable: a snapshot handed out before a
// mutation must not change under the reader's feet.
func TestListSharedSnapshotStable(t *testing.T) {
	s := NewStore()
	seedGrid(t, s, 8)
	before := s.List("")
	if err := s.Leave("ap-0003"); err != nil {
		t.Fatal(err)
	}
	if len(before) != 8 || before[3].ID != "ap-0003" {
		t.Fatalf("pre-mutation snapshot changed: %+v", before)
	}
	after := s.List("")
	if len(after) != 7 {
		t.Fatalf("post-mutation List = %d records, want 7", len(after))
	}
}

// TestDeltasSince covers the revision log: contiguity, incremental
// reads, and the aged-out gap signal.
func TestDeltasSince(t *testing.T) {
	s := NewStore()
	seedGrid(t, s, 4)
	if err := s.PublishKey(testKey(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Leave("ap-0002"); err != nil {
		t.Fatal(err)
	}
	ds, ok := s.DeltasSince(0, nil)
	if !ok || len(ds) != 6 {
		t.Fatalf("DeltasSince(0) = %d deltas, ok=%v; want 6, true", len(ds), ok)
	}
	for i, d := range ds {
		if d.Rev != uint64(i+1) {
			t.Fatalf("delta %d has rev %d; log not contiguous", i, d.Rev)
		}
	}
	if ds[4].Kind != DeltaKey || ds[5].Kind != DeltaLeave || ds[5].ID != "ap-0002" {
		t.Fatalf("unexpected tail deltas: %+v", ds[4:])
	}
	ds, ok = s.DeltasSince(4, nil)
	if !ok || len(ds) != 2 {
		t.Fatalf("DeltasSince(4) = %d deltas, ok=%v", len(ds), ok)
	}
	if ds, ok = s.DeltasSince(s.Revision(), nil); !ok || len(ds) != 0 {
		t.Fatalf("DeltasSince(current) = %d deltas, ok=%v", len(ds), ok)
	}
}

// TestDeltaLogAgesOut pushes past the ring capacity and checks both
// the gap signal and that the retained window still replays exactly.
func TestDeltaLogAgesOut(t *testing.T) {
	s := NewStore()
	total := defaultLogCap + 100
	for i := 0; i < total; i++ {
		if err := s.PublishKey(testKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.DeltasSince(0, nil); ok {
		t.Fatal("rev 0 should have aged out of the log")
	}
	if _, ok := s.DeltasSince(99, nil); ok {
		t.Fatal("rev 99 should have aged out of the log")
	}
	ds, ok := s.DeltasSince(100, nil)
	if !ok {
		t.Fatal("oldest retained revision reported as a gap")
	}
	if len(ds) != defaultLogCap {
		t.Fatalf("retained window = %d deltas, want %d", len(ds), defaultLogCap)
	}
	if ds[0].Rev != 101 || ds[len(ds)-1].Rev != uint64(total) {
		t.Fatalf("window spans revs [%d, %d], want [101, %d]", ds[0].Rev, ds[len(ds)-1].Rev, total)
	}
}

// newMirrorWorld runs a server plus helpers on a virtual-clock simnet.
// Every wait in it is clock-owned — mirror and server reads park on
// Mailboxes, and the store pushes subscription frames from inside the
// mutation — so the world is exact at any GOMAXPROCS.
func newMirrorWorld(t *testing.T) (*simnet.Network, *Store) {
	t.Helper()
	n := simnet.NewVirtualNetwork(simnet.Link{Latency: time.Millisecond}, 1)
	t.Cleanup(n.Close)
	srvHost := n.MustAddHost("registry")
	store := NewStore()
	l, err := srvHost.Listen(8400)
	if err != nil {
		t.Fatal(err)
	}
	NewServer(store).Serve(l)
	return n, store
}

// subscribers reports how many feeds the store is pushing to.
func (s *Store) subscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// TestMirrorLiveFeed: a mirror subscribed at the current revision sees
// joins, leaves, and key publications as they happen, and WaitRev
// tracks the server's revision.
func TestMirrorLiveFeed(t *testing.T) {
	n, store := newMirrorWorld(t)
	host := n.MustAddHost("obs")
	m, err := NewMirror(host.Dial, "registry:8400", store.Revision())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if err := store.Join(rec("ap1", 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := store.PublishKey(testKey(7)); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitRev(store.Revision(), time.Second); err != nil {
		t.Fatal(err)
	}
	if got := m.List(""); len(got) != 1 || got[0].ID != "ap1" {
		t.Fatalf("mirror List = %+v", got)
	}
	if _, ok := m.FetchKey(testKey(7).IMSI); !ok {
		t.Fatal("published key not mirrored")
	}
	if err := store.Leave("ap1"); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitRev(store.Revision(), time.Second); err != nil {
		t.Fatal(err)
	}
	if got := m.List(""); len(got) != 0 {
		t.Fatalf("mirror still lists %+v after leave", got)
	}
	if got := m.InRegion("", geo.NewRect(geo.Pt(-1, -1), geo.Pt(1, 1))); len(got) != 0 {
		t.Fatalf("mirror InRegion after leave = %+v", got)
	}
}

// TestMirrorSnapshotFallback: subscribing from a revision that has
// aged out of the delta log must deliver a full snapshot and then
// resume the live feed seamlessly.
func TestMirrorSnapshotFallback(t *testing.T) {
	n, store := newMirrorWorld(t)
	// Age out revision 1: churn one key well past the log capacity,
	// with two real records and one key in the final state.
	if err := store.Join(rec("ap1", 0, 0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < defaultLogCap+50; i++ {
		if err := store.PublishKey(testKey(i % 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Join(rec("ap2", 5000, 0)); err != nil {
		t.Fatal(err)
	}

	host := n.MustAddHost("late")
	m, err := NewMirror(host.Dial, "registry:8400", 1) // far behind: gap
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.WaitRev(store.Revision(), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := m.List(""); len(got) != 2 {
		t.Fatalf("after snapshot fallback, mirror List = %+v", got)
	}
	if _, ok := m.FetchKey(testKey(0).IMSI); !ok {
		t.Fatal("snapshot did not carry keys")
	}
	// The feed must be live after the fallback.
	if err := store.Join(rec("ap3", 9000, 0)); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitRev(store.Revision(), time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get("ap3"); !ok {
		t.Fatal("live join after snapshot fallback not mirrored")
	}
}

// TestMirrorKeysSince checks incremental key sync: each call hands
// back only keys that arrived after the fed-back revision.
func TestMirrorKeysSince(t *testing.T) {
	n, store := newMirrorWorld(t)
	host := n.MustAddHost("obs")
	m, err := NewMirror(host.Dial, "registry:8400", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if err := store.PublishKey(testKey(1)); err != nil {
		t.Fatal(err)
	}
	if err := store.PublishKey(testKey(2)); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitRev(store.Revision(), time.Second); err != nil {
		t.Fatal(err)
	}
	keys, upTo := m.KeysSince(0)
	if len(keys) != 2 {
		t.Fatalf("KeysSince(0) = %d keys, want 2", len(keys))
	}
	if more, _ := m.KeysSince(upTo); len(more) != 0 {
		t.Fatalf("KeysSince(%d) = %d keys, want 0", upTo, len(more))
	}
	if err := store.PublishKey(testKey(3)); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitRev(store.Revision(), time.Second); err != nil {
		t.Fatal(err)
	}
	more, upTo2 := m.KeysSince(upTo)
	if len(more) != 1 || more[0].IMSI != testKey(3).IMSI {
		t.Fatalf("KeysSince(%d) = %+v, want just key 3", upTo, more)
	}
	if upTo2 < upTo {
		t.Fatalf("through-revision went backwards: %d < %d", upTo2, upTo)
	}
}

// TestClientDeltaGap: pulling deltas from an aged-out revision must
// surface the typed sentinel so callers know to resync.
func TestClientDeltaGap(t *testing.T) {
	c, store := newClientServer(t)
	for i := 0; i < defaultLogCap+10; i++ {
		if err := store.PublishKey(testKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.DeltasSince(0); !errors.Is(err, ErrDeltaGap) {
		t.Fatalf("DeltasSince(0) err = %v, want ErrDeltaGap", err)
	}
	ds, rev, err := c.DeltasSince(store.Revision() - 3)
	if err != nil || len(ds) != 3 || rev != store.Revision() {
		t.Fatalf("DeltasSince(tail) = %d deltas, rev %d, err %v", len(ds), rev, err)
	}
}

// TestClientRevisionAndDeltas exercises the lightweight rev probe and
// a delta pull over the wire end to end.
func TestClientRevisionAndDeltas(t *testing.T) {
	c, store := newClientServer(t)
	rev0, err := c.Revision()
	if err != nil || rev0 != 0 {
		t.Fatalf("Revision = %d, %v", rev0, err)
	}
	if err := c.Join(rec("ap1", 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := c.PublishKey(testKey(5)); err != nil {
		t.Fatal(err)
	}
	rev, err := c.Revision()
	if err != nil || rev != store.Revision() || rev != 2 {
		t.Fatalf("Revision = %d, %v; store at %d", rev, err, store.Revision())
	}
	ds, drev, err := c.DeltasSince(0)
	if err != nil || len(ds) != 2 || drev != rev {
		t.Fatalf("DeltasSince(0) = %+v, rev %d, err %v", ds, drev, err)
	}
	if ds[0].Kind != DeltaJoin || ds[0].AP.ID != "ap1" || ds[1].Kind != DeltaKey {
		t.Fatalf("deltas = %+v", ds)
	}
}

// TestStoreFirstPublishAllocatesLittle is the regression for the
// up-front delta log: NewStore used to allocate (and zero) all
// defaultLogCap entries, megabytes per world, before the first delta.
func TestStoreFirstPublishAllocatesLittle(t *testing.T) {
	k := testKey(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := NewStore()
	err := s.PublishKey(k)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("NewStore + first PublishKey allocated %d bytes, want < 64 KB", got)
	}
}

// TestSubscriberGoroutineFootprint: a subscription costs no goroutine
// on either end — the server's push runs inside each mutation and its
// hang-up watch is the conn's delivery handler, and the mirror applies
// the feed in its own — and neither does a polling Client's connection,
// whose requests the server answers inline. A closed subscription
// leaves the store's push list.
func TestSubscriberGoroutineFootprint(t *testing.T) {
	n, store := newMirrorWorld(t)
	clk := n.Clock()
	host := n.MustAddHost("obs")
	clk.Sleep(time.Millisecond) // the world's own goroutines are up
	runtime.GC()
	before := runtime.NumGoroutine()
	const subs = 8
	feeds := make([]*Mirror, subs)
	for i := range feeds {
		m, err := NewMirror(host.Dial, "registry:8400", store.Revision())
		if err != nil {
			t.Fatal(err)
		}
		feeds[i] = m
	}
	c, err := Dial(host.Dial, "registry:8400")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Join(rec("ap1", 0, 0)); err != nil {
		t.Fatal(err)
	}
	for _, m := range feeds {
		if err := m.WaitRev(store.Revision(), time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if got := store.subscribers(); got != subs {
		t.Fatalf("store has %d subscribers, want %d", got, subs)
	}
	if added := runtime.NumGoroutine() - before; added != 0 {
		t.Errorf("%d subscribers and a client cost %d goroutines, want 0", subs, added)
	}
	c.Close()
	for _, m := range feeds {
		m.Close()
	}
	clk.Sleep(10 * time.Millisecond)
	if got := store.subscribers(); got != 0 {
		t.Errorf("%d subscribers left after every feed closed", got)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("goroutines %d → %d across subscribe and close", before, after)
	}
}

// TestJoinDeltaLatencyExact: the store pushes a join's delta from inside
// the join, so a mirror applies it at exactly the join instant plus the
// link latency, whatever the Go scheduler does.
func TestJoinDeltaLatencyExact(t *testing.T) {
	n, store := newMirrorWorld(t)
	clk := n.Clock()
	host := n.MustAddHost("obs")
	m, err := NewMirror(host.Dial, "registry:8400", store.Revision())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var mu sync.Mutex
	seen := make(map[string]time.Time)
	m.SetOnDelta(func(d Delta) {
		mu.Lock()
		seen[d.AP.ID] = clk.Now()
		mu.Unlock()
	})
	clk.Sleep(10 * time.Millisecond) // subscribed
	joined := make(map[string]time.Time)
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("ap%02d", i)
		joined[id] = clk.Now()
		if err := store.Join(rec(id, float64(i)*1000, 0)); err != nil {
			t.Fatal(err)
		}
		clk.Sleep(time.Duration(i%3) * time.Millisecond) // some joins share an instant
	}
	if err := m.WaitRev(store.Revision(), time.Second); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for id, at := range joined {
		if got := seen[id].Sub(at); got != time.Millisecond {
			t.Errorf("%s reached the mirror %v after its join, want exactly the 1ms link latency", id, got)
		}
	}
}

// TestSubscribeRacingMutations: a subscribe that lands in the middle of
// a burst of concurrent mutations sees every revision after its
// starting point exactly once, in order — the catch-up and the live
// pushes meet under the store's lock.
func TestSubscribeRacingMutations(t *testing.T) {
	s := NewStore()
	const burst = 2000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < burst; i++ {
			if err := s.PublishKey(testKey(i % 50)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for s.Revision() < burst/4 {
		runtime.Gosched()
	}
	from := s.Revision()
	var got []uint64
	cancel, err := s.Subscribe(from, func(f Feed) error {
		if f.Snapshot {
			t.Error("recent revision answered with a snapshot")
		}
		for _, d := range f.Deltas {
			got = append(got, d.Rev)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	cancel()
	if want := burst - int(from); len(got) != want {
		t.Fatalf("subscribed at rev %d: pushed %d deltas, want %d", from, len(got), want)
	}
	for i, rev := range got {
		if rev != from+uint64(i)+1 {
			t.Fatalf("delta %d has rev %d, want %d: lost or duplicated", i, rev, from+uint64(i)+1)
		}
	}
}

// TestClosedSubscriberRemoved: a subscriber leaves the store's push list
// both ways it can end — its connection hangs up (the server's read
// sees EOF), or a push to it fails — and later mutations go on. A
// server-side push failure also closes the feed, so the mirror sees it
// end instead of silently missing deltas.
func TestClosedSubscriberRemoved(t *testing.T) {
	n, store := newMirrorWorld(t)
	clk := n.Clock()
	m, err := NewMirror(n.MustAddHost("obs").Dial, "registry:8400", 0)
	if err != nil {
		t.Fatal(err)
	}
	clk.Sleep(10 * time.Millisecond)
	if got := store.subscribers(); got != 1 {
		t.Fatalf("store has %d subscribers, want 1", got)
	}
	m.Close()
	clk.Sleep(10 * time.Millisecond)
	if got := store.subscribers(); got != 0 {
		t.Fatalf("hung-up subscriber still registered (%d)", got)
	}

	m, err = NewMirror(n.MustAddHost("cut").Dial, "registry:8400", store.Revision())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	clk.Sleep(10 * time.Millisecond)
	n.SetLinkDown("registry", "cut", true)
	if err := store.Join(rec("apx", 0, 0)); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(10 * time.Millisecond)
	if got := store.subscribers(); got != 0 {
		t.Fatalf("subscriber whose push failed still registered (%d)", got)
	}
	if m.Err() == nil {
		t.Fatal("server dropped the subscriber but the mirror's feed is still open")
	}

	failing := errors.New("broken feed")
	calls := 0
	if _, err := store.Subscribe(store.Revision(), func(Feed) error {
		calls++
		return failing
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := store.Join(rec(fmt.Sprintf("ap%d", i), 0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 1 || store.subscribers() != 0 {
		t.Errorf("failing subscriber pushed %d times, %d left registered; want 1 push, then removed", calls, store.subscribers())
	}
	if _, err := store.Subscribe(0, func(Feed) error { return failing }); !errors.Is(err, failing) {
		t.Errorf("failed catch-up returned %v, want the push error", err)
	}
	if got := store.subscribers(); got != 0 {
		t.Errorf("a failed catch-up registered a subscriber (%d)", got)
	}
}

// TestStalledSubscriberDropped: over a real (blocking) connection, a
// subscriber that stops reading cannot hold the store lock past the
// push timeout — the mutation returns, the subscriber is dropped, and
// its feed ends.
func TestStalledSubscriberDropped(t *testing.T) {
	store := NewStore()
	srv := NewServer(store)
	srv.pushTimeout = 20 * time.Millisecond
	sc, cc := net.Pipe() // unbuffered: a write waits for the reader
	go srv.ServeConn(sc)
	fc := wire.NewFrameConn(cc)
	defer cc.Close()
	if err := fc.Send(encodeRequest(request{op: opSubscribe})); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); store.subscribers() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("subscription never registered")
		}
		time.Sleep(time.Millisecond)
	}
	joined := make(chan error, 1)
	go func() { joined <- store.Join(rec("ap0", 0, 0)) }()
	select {
	case err := <-joined:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Join still blocked behind a subscriber that stopped reading")
	}
	if got := store.subscribers(); got != 0 {
		t.Errorf("stalled subscriber still registered (%d)", got)
	}
	cc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := fc.RecvOwned(); !errors.Is(err, io.EOF) {
		t.Errorf("stalled subscriber's feed read %v after its push failed, want EOF", err)
	}
}

// TestKeySnapshotMatchesRebuild interleaves key publications (new and
// republished IMSIs; short bursts, bursts as large as the table, and
// republication runs long enough to compact the pending list) with
// every reader of the key snapshot — Keys, FetchKey and a Subscribe
// catch-up — and checks each against a reference table kept beside the
// store and sorted from scratch.
func TestKeySnapshotMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewStore()
	var imsis []string              // every IMSI ever published
	table := map[string]KeyRecord{} // the latest record per IMSI
	compactions := 0
	publishAs := func(republish bool) {
		var k KeyRecord
		if len(imsis) == 0 || !republish {
			k = testKey(rng.Intn(1 << 30))
		} else {
			k = KeyRecord{IMSI: imsis[rng.Intn(len(imsis))],
				K: fmt.Sprintf("%032x", rng.Uint64()), OPc: fmt.Sprintf("%032x", rng.Uint64())}
		}
		if _, ok := table[k.IMSI]; !ok {
			imsis = append(imsis, k.IMSI)
		}
		table[k.IMSI] = k
		sorted := s.keySorted
		if err := s.PublishKey(k); err != nil {
			t.Fatal(err)
		}
		if s.keySorted > sorted {
			compactions++
		}
	}
	publish := func() { publishAs(rng.Intn(2) == 0) }
	want := func() []KeyRecord {
		ref := make([]KeyRecord, 0, len(table))
		for _, k := range table {
			ref = append(ref, k)
		}
		slices.SortFunc(ref, func(a, b KeyRecord) int { return strings.Compare(a.IMSI, b.IMSI) })
		return ref
	}
	snapshots := 0
	for op := 0; op < 400; op++ {
		if op == 150 {
			// Age the delta log out so catch-ups become full snapshots.
			for i := 0; i < defaultLogCap; i++ {
				publish()
			}
		}
		switch r := rng.Intn(10); {
		case r < 4:
			switch rng.Intn(10) {
			case 0:
				for n := 1 + rng.Intn(min(len(imsis), 512)+1); n > 0; n-- {
					publish()
				}
			case 1:
				for n := 1 + rng.Intn(3*min(len(imsis), 512)+1); n > 0; n-- {
					publishAs(true)
				}
			default:
				for n := 1 + rng.Intn(8); n > 0; n-- {
					publish()
				}
			}
		case r < 6:
			if got, ref := s.Keys(), want(); !slices.Equal(got, ref) && len(got)+len(ref) > 0 {
				t.Fatalf("op %d: Keys() differs from the sorted table (%d vs %d records)", op, len(got), len(ref))
			}
		case r < 8:
			if len(imsis) > 0 {
				imsi := imsis[rng.Intn(len(imsis))]
				got, ok := s.FetchKey(imsi)
				if ref := table[imsi]; !ok || got != ref {
					t.Fatalf("op %d: FetchKey(%s) = %+v, %v; want %+v", op, imsi, got, ok, ref)
				}
			}
			missing := testKey(1<<30 + rng.Intn(1000)).IMSI
			if _, ok := s.FetchKey(missing); ok {
				t.Fatalf("op %d: FetchKey(%s) found an unpublished IMSI", op, missing)
			}
		default:
			var feed []KeyRecord
			snap := false
			cancel, err := s.Subscribe(0, func(f Feed) error {
				snap, feed = f.Snapshot, slices.Clone(f.Keys)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			cancel()
			if snap {
				snapshots++
				if ref := want(); !slices.Equal(feed, ref) {
					t.Fatalf("op %d: Subscribe snapshot differs from the sorted table (%d vs %d records)", op, len(feed), len(ref))
				}
			}
		}
	}
	if snapshots == 0 {
		t.Fatal("no Subscribe catch-up carried a snapshot")
	}
	if compactions == 0 {
		t.Fatal("no publication compacted the pending list")
	}
}

// TestPublishKeyAllocs bounds what a bulk seeding costs the store: 10k
// publications into a fresh store, then one Keys read, in IMSI order
// (as seeding runs) and shuffled. A key costs its pending-list slot,
// its 64-byte log entry and its snapshot slot, each grown by doubling
// or by the chunk; no allocation is made per key.
func TestPublishKeyAllocs(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates beside the store")
	}
	const n = 10_000
	keys := make([]KeyRecord, n)
	for i := range keys {
		keys[i] = testKey(i)
	}
	for _, tc := range []struct {
		name           string
		shuffle        bool
		maxBytesPerKey float64
	}{
		{"in order", false, 220},
		{"shuffled", true, 360},
	} {
		ks := slices.Clone(keys)
		if tc.shuffle {
			rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := NewStore()
		for _, k := range ks {
			if err := s.PublishKey(k); err != nil {
				t.Fatal(err)
			}
		}
		got := s.Keys()
		runtime.ReadMemStats(&after)
		if len(got) != n || got[0] != keys[0] || got[n-1] != keys[n-1] {
			t.Fatalf("%s: Keys() = %d records, want %d in IMSI order", tc.name, len(got), n)
		}
		allocs := float64(after.Mallocs-before.Mallocs) / n
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
		t.Logf("%s: %.4f allocs, %.0f B per key", tc.name, allocs, bytes)
		if allocs > 0.02 {
			t.Errorf("%s: %.4f allocs per key, want ≤ 0.02", tc.name, allocs)
		}
		if bytes > tc.maxBytesPerKey {
			t.Errorf("%s: %.0f B per key, want ≤ %.0f", tc.name, bytes, tc.maxBytesPerKey)
		}
	}
}
