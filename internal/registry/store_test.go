package registry

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"dlte/internal/geo"
	"dlte/internal/simnet"
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

// TestWatch verifies the mutation wakeup channel semantics the
// subscription pusher relies on.
func TestWatch(t *testing.T) {
	s := NewStore()
	ch := s.Watch()
	select {
	case <-ch:
		t.Fatal("watch channel closed before any mutation")
	default:
	}
	if ch2 := s.Watch(); ch2 != ch {
		t.Fatal("Watch between mutations returned a different channel")
	}
	seedGrid(t, s, 1)
	select {
	case <-ch:
	default:
		t.Fatal("watch channel not closed by a mutation")
	}
}

// newMirrorWorld runs a server plus helpers on a virtual-clock simnet,
// on one P. The subscription pusher waits for the next store mutation
// in a Block-bracketed select, a wake the clock catches only through
// the advancer's settle rounds: exact on one P, where every runnable
// goroutine gets its turn inside one round of yields, and a guess on
// several (ROADMAP item 1). The mirror tests are about the feed, not
// about that guess.
func newMirrorWorld(t *testing.T) (*simnet.Network, *Store) {
	t.Helper()
	procs := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	n := simnet.NewVirtualNetwork(simnet.Link{Latency: time.Millisecond}, 1)
	t.Cleanup(n.Close)
	srvHost := n.MustAddHost("registry")
	store := NewStore()
	l, err := srvHost.Listen(8400)
	if err != nil {
		t.Fatal(err)
	}
	n.Clock().Go(func() { NewServer(store).Serve(l) })
	return n, store
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
