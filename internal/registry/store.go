package registry

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"dlte/internal/auth"
	"dlte/internal/geo"

	"slices"
)

// Delta kinds carried by the revision log and the subscription feed.
const (
	DeltaJoin  uint8 = 1 // AP holds the joined/updated record
	DeltaLeave uint8 = 2 // ID holds the departed AP
	DeltaKey   uint8 = 3 // Key holds the published key
)

// Delta is one registry mutation at revision Rev. Exactly one of
// AP/ID/Key is meaningful, selected by Kind.
type Delta struct {
	Kind uint8
	Rev  uint64
	AP   APRecord
	ID   string
	Key  KeyRecord
}

// defaultLogCap bounds the revision delta log: clients more than this
// many mutations behind fall back to a full snapshot. The log's storage
// comes in chunks of logChunkLen entries (a whole number per ring).
// logRecBlock is how many join/leave records the log allocates at once.
// keyCompactMin is the pending-key slack before a publication compacts
// the list (see PublishKey).
const (
	defaultLogCap = 16384
	logChunkBits  = 8
	logChunkLen   = 1 << logChunkBits
	logRecBlock   = 16
	keyCompactMin = 1024
)

// Store is the registry state, usable in process or behind a Server.
//
// Reads are served from copy-on-write snapshots behind atomic pointers
// (the gtp TEID-table pattern): List/InRegion/Get/Keys/FetchKey never
// take the mutation lock, and at steady state (no interleaved writes)
// they allocate nothing — List hands back a shared pre-sorted slice
// and InRegionAppend serves tiny rectangles from a spatial grid index
// in O(cells covered) instead of O(n·copy·sort).
//
// Snapshots rebuild lazily on the first read after a mutation, so bulk
// seeding (100k key publications) costs one rebuild, not 100k. Keys are
// held in no map at all: the key snapshot is an IMSI-sorted slice that
// FetchKey binary-searches, and PublishKey only appends the record to a
// pending list. A rebuild sorts that list (the last publication of an
// IMSI wins) and merges it into the previous slice — one copy — so a
// poller reading Keys after each publication pays O(n), not
// O(n log n). A first build adopts the sorted list as the snapshot.
//
// The revision log keeps a 64-byte entry per mutation (see logEntry)
// and rebuilds each Delta only when a reader asks for it.
type Store struct {
	mu  sync.Mutex // serializes mutations and snapshot rebuilds
	aps map[string]APRecord
	// keyDirty holds the records published since keySnap was built,
	// for the next build to merge. Its first keySorted records are
	// sorted by IMSI with one record per IMSI; the rest are in
	// publication order.
	keyDirty  []KeyRecord
	keySorted int

	rev    atomic.Uint64 // global revision, bumped once per mutation
	apRev  atomic.Uint64 // rev of the last AP mutation
	keyRev atomic.Uint64 // rev of the last key mutation

	apSnap  atomic.Pointer[apSnapshot]
	keySnap atomic.Pointer[keySnapshot]

	log  deltaLog
	subs []*subscriber // live feeds, in subscription order
}

// Feed is one push to a subscriber: a full snapshot of the store at Rev
// (Snapshot set; Records and Keys hold it), or deltas ending at Rev. Its
// slices are shared with the store and valid only during the push.
type Feed struct {
	Rev      uint64
	Snapshot bool
	Records  []APRecord
	Keys     []KeyRecord
	Deltas   []Delta
}

// subscriber is one registered feed.
type subscriber struct {
	push func(Feed) error
}

// apSnapshot is an immutable view of the AP table at apRev: the shared
// ID-sorted slice List returns, per-band sorted slices, the ID lookup
// map, and the spatial grid over positions (indices into all).
type apSnapshot struct {
	apRev  uint64
	all    []APRecord
	byBand map[string][]APRecord
	byID   map[string]APRecord
	grid   *geo.Grid
}

// keySnapshot is the same treatment for published keys: the shared
// IMSI-sorted slice, which also serves lookups by binary search.
type keySnapshot struct {
	keyRev uint64
	all    []KeyRecord
}

// NewStore returns an empty registry store.
func NewStore() *Store {
	return &Store{aps: make(map[string]APRecord)}
}

// bump records one mutation under s.mu: advances the revision, logs the
// entry, and pushes its delta to every subscriber as its own feed
// entry. A subscriber whose push fails is dropped.
func (s *Store) bump(e logEntry) {
	rev := s.rev.Add(1)
	s.log.push(rev, e)
	if len(s.subs) == 0 {
		return
	}
	f := Feed{Rev: rev, Deltas: s.log.newest()}
	live := s.subs[:0]
	for _, sub := range s.subs {
		if sub.push(f) == nil {
			live = append(live, sub)
		}
	}
	clear(s.subs[len(live):])
	s.subs = live
}

// Subscribe registers push as a feed of every mutation after fromRev.
// Under the mutation lock it first pushes the catch-up — the deltas
// since fromRev in one batch, or a full snapshot when fromRev has aged
// out of the log — and then each later mutation pushes its own delta
// from inside the mutation, so the feed carries every revision once and
// in order. push runs under the store's lock: it must not block for
// long or call back into the store. A failed push ends the
// subscription, as does cancel; a failed catch-up is returned and
// registers nothing.
func (s *Store) Subscribe(fromRev uint64, push func(Feed) error) (cancel func(), err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rev := s.rev.Load()
	if ds, ok := s.log.since(fromRev, rev, nil); !ok {
		err = push(Feed{
			Rev:      rev,
			Snapshot: true,
			Records:  s.apSnapshotLocked().all,
			Keys:     s.keySnapshotLocked().all,
		})
	} else if len(ds) > 0 {
		err = push(Feed{Rev: rev, Deltas: ds})
	}
	if err != nil {
		return nil, err
	}
	sub := &subscriber{push: push}
	s.subs = append(s.subs, sub)
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if i := slices.Index(s.subs, sub); i >= 0 {
			s.subs = slices.Delete(s.subs, i, i+1)
		}
	}, nil
}

// Join registers (or updates) an AP record. Joining is open: any
// record with an ID and band is accepted — the paper's organic-growth
// property.
func (s *Store) Join(r APRecord) error {
	if r.ID == "" || r.Band == "" {
		return fmt.Errorf("%w: missing id or band", ErrBadRecord)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.aps[r.ID] = r
	s.bump(logEntry{kind: DeltaJoin, ap: s.log.keep(r)})
	s.apRev.Store(s.rev.Load())
	return nil
}

// Leave removes an AP record.
func (s *Store) Leave(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.aps[id]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	delete(s.aps, id)
	s.bump(logEntry{kind: DeltaLeave, ap: s.log.keep(APRecord{ID: id})})
	s.apRev.Store(s.rev.Load())
	return nil
}

// PublishKey stores an open-SIM key publication. The record joins the
// pending list. Once that list is longer than twice the keys known to
// be distinct (the snapshot's plus its sorted prefix) plus
// keyCompactMin, it is compacted, so republications with no read in
// between keep it O(table) at an amortized O(log n) a publication.
func (s *Store) PublishKey(k KeyRecord) error {
	if !auth.IMSI(k.IMSI).Valid() {
		return fmt.Errorf("%w: bad IMSI %q", ErrBadRecord, k.IMSI)
	}
	if !isHex(k.K) || !isHex(k.OPc) {
		if _, err := k.Publication(); err != nil { // the decoder names the fault
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.keyDirty) == cap(s.keyDirty) {
		// Double: append grows a long list by a quarter at a time,
		// which over a bulk seeding allocates five times its size.
		s.keyDirty = slices.Grow(s.keyDirty, max(len(s.keyDirty), 64))
	}
	s.keyDirty = append(s.keyDirty, k)
	table := 0
	if sn := s.keySnap.Load(); sn != nil {
		table = len(sn.all)
	}
	if len(s.keyDirty) > 2*(table+s.keySorted)+keyCompactMin {
		s.compactKeysLocked(len(s.keyDirty)) // room to double, as above
	}
	s.bump(logEntry{kind: DeltaKey, key: k})
	s.keyRev.Store(s.rev.Load())
	return nil
}

// isHex reports whether s is what hex.DecodeString accepts: an even
// number of hex digits, either case. It allocates nothing, so a bulk
// seeding validates its keys without decoding them.
func isHex(s string) bool {
	if len(s)%2 != 0 {
		return false
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case '0' <= c && c <= '9', 'a' <= c && c <= 'f', 'A' <= c && c <= 'F':
		default:
			return false
		}
	}
	return true
}

// apSnapshot returns the current AP view, rebuilding it first if a
// mutation landed since the last build. The fast path is two atomic
// loads and no allocation.
func (s *Store) apSnapshot() *apSnapshot {
	if sn := s.apSnap.Load(); sn != nil && sn.apRev == s.apRev.Load() {
		return sn
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.apSnapshotLocked()
}

func (s *Store) apSnapshotLocked() *apSnapshot {
	cur := s.apRev.Load()
	if sn := s.apSnap.Load(); sn != nil && sn.apRev == cur {
		return sn
	}
	sn := &apSnapshot{
		apRev:  cur,
		all:    make([]APRecord, 0, len(s.aps)),
		byBand: make(map[string][]APRecord),
		byID:   make(map[string]APRecord, len(s.aps)),
	}
	for _, r := range s.aps {
		sn.all = append(sn.all, r)
		sn.byID[r.ID] = r
	}
	slices.SortFunc(sn.all, func(a, b APRecord) int { return strings.Compare(a.ID, b.ID) })
	pts := make([]geo.Point, len(sn.all))
	for i, r := range sn.all {
		pts[i] = r.Position()
		sn.byBand[r.Band] = append(sn.byBand[r.Band], r)
	}
	sn.grid = geo.BuildGrid(pts)
	s.apSnap.Store(sn)
	return sn
}

func (s *Store) keySnapshot() *keySnapshot {
	if sn := s.keySnap.Load(); sn != nil && sn.keyRev == s.keyRev.Load() {
		return sn
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.keySnapshotLocked()
}

func (s *Store) keySnapshotLocked() *keySnapshot {
	cur := s.keyRev.Load()
	prev := s.keySnap.Load()
	if prev != nil && prev.keyRev == cur {
		return prev
	}
	s.compactKeysLocked(0)
	sn := &keySnapshot{keyRev: cur, all: s.keyDirty}
	if prev != nil && len(prev.all) > 0 {
		sn.all = mergeKeys(make([]KeyRecord, 0, len(prev.all)+len(s.keyDirty)), prev.all, s.keyDirty)
		clear(s.keyDirty)
		s.keyDirty = s.keyDirty[:0]
	} else {
		s.keyDirty = nil // adopted as the snapshot
	}
	s.keySorted = 0
	s.keySnap.Store(sn)
	return sn
}

// compactKeysLocked sorts keyDirty's unsorted tail and merges it into
// the sorted prefix, leaving the whole list sorted by IMSI with the
// latest record of each. A merge leaves room for `room` more records.
func (s *Store) compactKeysLocked(room int) {
	if s.keySorted == len(s.keyDirty) {
		return
	}
	tail := sortKeys(s.keyDirty[s.keySorted:])
	if s.keySorted == 0 || s.keyDirty[s.keySorted-1].IMSI < tail[0].IMSI {
		// Already in order: a first compaction, or keys published in
		// IMSI order, as bulk seeding does.
		s.keyDirty = s.keyDirty[:s.keySorted+len(tail)]
	} else {
		s.keyDirty = mergeKeys(make([]KeyRecord, 0, s.keySorted+len(tail)+room), s.keyDirty[:s.keySorted], tail)
	}
	s.keySorted = len(s.keyDirty)
}

// sortKeys sorts ks by IMSI in place, stably, keeps only the last
// record of each IMSI, and returns the shortened slice.
func sortKeys(ks []KeyRecord) []KeyRecord {
	slices.SortStableFunc(ks, func(a, b KeyRecord) int { return strings.Compare(a.IMSI, b.IMSI) })
	out := ks[:0]
	for i, k := range ks {
		if i+1 < len(ks) && ks[i+1].IMSI == k.IMSI {
			continue // a later publication of this IMSI follows
		}
		out = append(out, k)
	}
	return out
}

// mergeKeys appends to all the IMSI-sorted merge of old and newer:
// old with every record of newer inserted, replacing old's record for
// the same IMSI. Both inputs are IMSI-sorted with one record per IMSI,
// and are left as they are.
func mergeKeys(all, old, newer []KeyRecord) []KeyRecord {
	i := 0
	for _, k := range newer {
		j, found := searchIMSI(old[i:], k.IMSI)
		all = append(all, old[i:i+j]...)
		all = append(all, k)
		i += j
		if found {
			i++
		}
	}
	return append(all, old[i:]...)
}

// searchIMSI binary-searches an IMSI-sorted slice.
func searchIMSI(keys []KeyRecord, imsi string) (int, bool) {
	return slices.BinarySearchFunc(keys, imsi, func(k KeyRecord, imsi string) int { return strings.Compare(k.IMSI, imsi) })
}

// List returns all records in a band (empty band = all), sorted by ID.
// The returned slice is a shared snapshot: treat it as read-only. It is
// valid indefinitely (later mutations build new snapshots).
func (s *Store) List(band string) []APRecord {
	sn := s.apSnapshot()
	if band == "" {
		if len(sn.all) == 0 {
			return nil
		}
		return sn.all
	}
	return sn.byBand[band]
}

// InRegion returns records in a band within the rectangle.
func (s *Store) InRegion(band string, rect geo.Rect) []APRecord {
	return s.InRegionAppend(band, rect, nil)
}

// InRegionAppend appends records in a band within the rectangle to dst
// and returns the extended slice, sorted by ID within the appended
// region. Queries walk the grid cells covering rect rather than the
// full table; with a reused dst this allocates nothing.
func (s *Store) InRegionAppend(band string, rect geo.Rect, dst []APRecord) []APRecord {
	sn := s.apSnapshot()
	start := len(dst)
	cx0, cy0, cx1, cy1 := sn.grid.CellRange(rect)
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			for _, i := range sn.grid.Cell(cx, cy) {
				r := &sn.all[i]
				if band != "" && r.Band != band {
					continue
				}
				if rect.Contains(geo.Pt(r.X, r.Y)) {
					dst = append(dst, *r)
				}
			}
		}
	}
	added := dst[start:]
	slices.SortFunc(added, func(a, b APRecord) int { return strings.Compare(a.ID, b.ID) })
	return dst
}

// Get fetches one AP record.
func (s *Store) Get(id string) (APRecord, bool) {
	r, ok := s.apSnapshot().byID[id]
	return r, ok
}

// Revision reports a counter that increases on every mutation, so
// clients can cheaply detect staleness. Lock-free.
func (s *Store) Revision() uint64 { return s.rev.Load() }

// FetchKey retrieves a published key.
func (s *Store) FetchKey(imsi string) (KeyRecord, bool) {
	all := s.keySnapshot().all
	if i, ok := searchIMSI(all, imsi); ok {
		return all[i], true
	}
	return KeyRecord{}, false
}

// Keys lists all published keys, sorted by IMSI. Shared snapshot slice:
// treat as read-only.
func (s *Store) Keys() []KeyRecord {
	sn := s.keySnapshot()
	if len(sn.all) == 0 {
		return nil
	}
	return sn.all
}

// DeltasSince appends to dst every delta with revision > fromRev, in
// revision order, and reports whether the log still reaches back that
// far. ok == false means fromRev has aged out (the caller must resync
// from a snapshot); the appended prefix is then meaningless.
func (s *Store) DeltasSince(fromRev uint64, dst []Delta) (out []Delta, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.since(fromRev, s.rev.Load(), dst)
}

// logEntry is one logged mutation; its revision is implied by its place
// in the ring. A key publication is stored inline. A join or leave is
// rare and wide, so its record sits behind ap, in a block the log
// keeps (a leave's record holds just the ID). At 64 bytes an entry is
// well under the 176 of the Delta it stands for.
type logEntry struct {
	kind uint8
	key  KeyRecord
	ap   *APRecord
}

// delta is the entry as the Delta of revision rev.
func (e *logEntry) delta(rev uint64) Delta {
	d := Delta{Kind: e.kind, Rev: rev}
	switch e.kind {
	case DeltaJoin:
		d.AP = *e.ap
	case DeltaLeave:
		d.ID = e.ap.ID
	case DeltaKey:
		d.Key = e.key
	}
	return d
}

// deltaLog is a bounded ring of the most recent mutations. Revisions in
// the log are contiguous: every mutation pushes exactly one entry, so
// the oldest entry's revision locates every other. The ring's storage
// is allocated a chunk at a time as the log first fills: most stores
// log a few dozen mutations and hold one 16 KB chunk, where the whole
// ring up front is 1 MB to allocate and zero per world.
type deltaLog struct {
	chunks [defaultLogCap / logChunkLen][]logEntry
	start  int    // ring position of the oldest entry
	n      int    // entries held
	oldest uint64 // revision of the entry at start
	last   [1]Delta
	// recs holds the records join and leave entries point at,
	// allocated logRecBlock at a time.
	recs []APRecord
}

// keep copies r to the log's record store and returns its address.
func (l *deltaLog) keep(r APRecord) *APRecord {
	if len(l.recs) == cap(l.recs) {
		l.recs = make([]APRecord, 0, logRecBlock)
	}
	l.recs = append(l.recs, r)
	return &l.recs[len(l.recs)-1]
}

// at returns ring position i's entry, allocating its chunk on first use.
func (l *deltaLog) at(i int) *logEntry {
	c := &l.chunks[i>>logChunkBits]
	if *c == nil {
		*c = make([]logEntry, logChunkLen)
	}
	return &(*c)[i&(logChunkLen-1)]
}

// push logs e as revision rev, one past the newest entry's.
func (l *deltaLog) push(rev uint64, e logEntry) {
	if l.n == 0 {
		l.oldest = rev
	}
	if l.n < defaultLogCap {
		*l.at(l.n) = e // start stays 0 until the ring is full
		l.n++
		return
	}
	*l.at(l.start) = e
	l.start = (l.start + 1) % defaultLogCap
	l.oldest++
}

// newest returns the most recent entry's delta as a one-element slice
// of the log's own scratch, valid until the next call. The log must not
// be empty.
func (l *deltaLog) newest() []Delta {
	l.last[0] = l.at((l.start + l.n - 1) % defaultLogCap).delta(l.oldest + uint64(l.n-1))
	return l.last[:]
}

func (l *deltaLog) since(fromRev, cur uint64, dst []Delta) ([]Delta, bool) {
	if fromRev >= cur {
		return dst, true
	}
	if l.n == 0 || fromRev+1 < l.oldest {
		return dst, false
	}
	// Revisions are contiguous, so the first wanted entry is at a fixed
	// offset from the oldest.
	for i := int(fromRev + 1 - l.oldest); i < l.n; i++ {
		dst = append(dst, l.at((l.start+i)%defaultLogCap).delta(l.oldest+uint64(i)))
	}
	return dst, true
}
