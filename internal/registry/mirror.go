package registry

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"dlte/internal/geo"
	"dlte/internal/simnet"

	"slices"
)

// Mirror is a local replica of the registry fed by the revision-delta
// subscription: joins, leaves, and key publications stream in as they
// happen, so reads (peer discovery, key sync) are local and the wire
// carries only changes — the scalable replacement for the full-list
// polling that core.AccessPoint used before.
type Mirror struct {
	sub *Subscription
	clk simnet.Clock

	mu      sync.Mutex
	onDelta func(Delta)
	aps     map[string]APRecord
	keys    map[string]KeyRecord
	keyLog  []keyArrival // arrival order; revisions non-decreasing
	rev     uint64
	inSnap  bool
	snapRev uint64
	err     error
}

// keyArrival remembers at which revision a key became visible locally,
// so KeysSince hands incremental syncs only the new material.
type keyArrival struct {
	rev uint64
	key KeyRecord
}

// NewMirror subscribes at addr from fromRev and starts the feed
// goroutine on the connection's clock. fromRev 0 replicates the full
// registry; a recent revision replays only what changed since.
func NewMirror(dial func(addr string) (net.Conn, error), addr string, fromRev uint64) (*Mirror, error) {
	sub, err := Subscribe(dial, addr, fromRev)
	if err != nil {
		return nil, err
	}
	m := &Mirror{
		sub:  sub,
		clk:  simnet.ClockOf(sub.Conn()),
		aps:  make(map[string]APRecord),
		keys: make(map[string]KeyRecord),
		rev:  fromRev,
	}
	m.clk.Go(m.loop)
	return m, nil
}

func (m *Mirror) loop() {
	for {
		ch, err := m.sub.next()
		if err != nil {
			m.mu.Lock()
			if m.err == nil {
				m.err = err
			}
			m.mu.Unlock()
			return
		}
		m.apply(ch)
	}
}

func (m *Mirror) apply(ch chunk) {
	m.mu.Lock()
	switch ch.kind {
	case respSnapshot:
		m.aps = make(map[string]APRecord)
		m.keys = make(map[string]KeyRecord)
		m.keyLog = m.keyLog[:0]
		m.inSnap = true
		m.snapRev = ch.rev
	case respRecords:
		for _, r := range ch.records {
			m.aps[r.ID] = r
		}
	case respKeys:
		for _, k := range ch.keys {
			m.keys[k.IMSI] = k
			m.keyLog = append(m.keyLog, keyArrival{rev: ch.rev, key: k})
		}
		// The keys chunks are the tail of a snapshot; its final frame
		// completes the resync.
		if m.inSnap && !ch.more {
			m.rev = m.snapRev
			m.inSnap = false
		}
	case respDeltas:
		for _, d := range ch.deltas {
			switch d.Kind {
			case DeltaJoin:
				m.aps[d.AP.ID] = d.AP
			case DeltaLeave:
				delete(m.aps, d.ID)
			case DeltaKey:
				m.keys[d.Key.IMSI] = d.Key
				m.keyLog = append(m.keyLog, keyArrival{rev: d.Rev, key: d.Key})
			}
			m.rev = d.Rev
		}
	case respErr:
		if m.err == nil {
			m.err = chunkError(ch)
		}
	}
	onDelta := m.onDelta
	m.mu.Unlock()
	if onDelta != nil && ch.kind == respDeltas {
		for _, d := range ch.deltas {
			onDelta(d)
		}
	}
}

// SetOnDelta installs an observer for every applied delta (called on
// the mirror's feed goroutine, outside the mirror lock). E10 uses it
// to timestamp join→discoverable latency.
func (m *Mirror) SetOnDelta(fn func(Delta)) {
	m.mu.Lock()
	m.onDelta = fn
	m.mu.Unlock()
}

// Rev reports the last fully applied revision.
func (m *Mirror) Rev() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rev
}

// Err reports a broken feed (nil while healthy).
func (m *Mirror) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// WaitRev parks on the virtual clock, which the mirror's connection
// must run on, until the mirror has applied revision target. It fails
// fast if the feed broke.
func (m *Mirror) WaitRev(target uint64, timeout time.Duration) error {
	m.clk.(*simnet.VirtualClock).WaitUntil(timeout, func() bool { return m.Rev() >= target || m.Err() != nil })
	if m.Rev() >= target {
		return nil
	}
	if err := m.Err(); err != nil {
		return fmt.Errorf("registry: mirror feed: %w", err)
	}
	return errors.New("registry: mirror revision wait timed out")
}

// List returns the mirrored records in a band ("" = all), sorted by ID.
// The slice is the caller's.
func (m *Mirror) List(band string) []APRecord {
	m.mu.Lock()
	var out []APRecord
	for _, r := range m.aps {
		if band == "" || r.Band == band {
			out = append(out, r)
		}
	}
	m.mu.Unlock()
	slices.SortFunc(out, func(a, b APRecord) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// Get fetches one mirrored record.
func (m *Mirror) Get(id string) (APRecord, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.aps[id]
	return r, ok
}

// InRegion returns mirrored records in a band within the rectangle,
// sorted by ID.
func (m *Mirror) InRegion(band string, rect geo.Rect) []APRecord {
	m.mu.Lock()
	var out []APRecord
	for _, r := range m.aps {
		if (band == "" || r.Band == band) && rect.Contains(r.Position()) {
			out = append(out, r)
		}
	}
	m.mu.Unlock()
	slices.SortFunc(out, func(a, b APRecord) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// FetchKey retrieves one mirrored key.
func (m *Mirror) FetchKey(imsi string) (KeyRecord, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k, ok := m.keys[imsi]
	return k, ok
}

// KeysSince returns the keys that arrived after revision `after`, in
// arrival order, plus the revision the result is current through —
// feed that back as the next call's `after` for incremental key sync.
func (m *Mirror) KeysSince(after uint64) ([]KeyRecord, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := sort.Search(len(m.keyLog), func(i int) bool { return m.keyLog[i].rev > after })
	if i == len(m.keyLog) {
		return nil, m.rev
	}
	out := make([]KeyRecord, 0, len(m.keyLog)-i)
	for _, e := range m.keyLog[i:] {
		out = append(out, e.key)
	}
	return out, m.rev
}

// Traffic reports total bytes the subscription moved on the wire.
func (m *Mirror) Traffic() (tx, rx uint64) { return m.sub.Traffic() }

// Close tears down the feed.
func (m *Mirror) Close() error { return m.sub.Close() }
