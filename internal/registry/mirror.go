package registry

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dlte/internal/geo"
	"dlte/internal/simnet"
	"dlte/internal/wire"

	"slices"
)

// Mirror is a local replica of the registry fed by the revision-delta
// subscription: joins, leaves, and key publications stream in as they
// happen, so reads (peer discovery, key sync) are local and the wire
// carries only changes — the scalable replacement for the full-list
// polling that core.AccessPoint used before.
//
// The mirror is its subscription conn's simnet.StreamHandler: every
// feed frame is applied on the network's delivery thread at its
// delivery instant, and no goroutine waits for the feed.
type Mirror struct {
	c    *simnet.Conn
	clk  *simnet.VirtualClock
	asm  wire.FrameAssembler // delivery thread only, as is dead
	dead bool                // a frame failed to decode: ignore the rest

	bytesTx atomic.Uint64
	bytesRx atomic.Uint64

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

// NewMirror subscribes at addr from fromRev over a simnet stream conn
// from dial. Subscribing from 0 on a populated server yields a full
// snapshot first; subscribing from a recent revision yields only the
// deltas since.
func NewMirror(dial func(addr string) (net.Conn, error), addr string, fromRev uint64) (*Mirror, error) {
	nc, err := dial(addr)
	if err != nil {
		return nil, fmt.Errorf("registry: dial %s: %w", addr, err)
	}
	c, ok := nc.(*simnet.Conn)
	if !ok {
		nc.Close()
		return nil, fmt.Errorf("registry: a mirror needs a simnet conn, not %T", nc)
	}
	m := &Mirror{
		c:    c,
		clk:  c.Clock().(*simnet.VirtualClock),
		aps:  make(map[string]APRecord),
		keys: make(map[string]KeyRecord),
		rev:  fromRev,
	}
	c.OnDeliverHandler(m)
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.U8(opSubscribe)
	w.U64(fromRev)
	if err := wire.WriteFrame(c, w.Bytes()); err != nil {
		c.Close()
		return nil, fmt.Errorf("registry: subscribe: %w", err)
	}
	m.bytesTx.Add(uint64(w.Len()) + 4)
	return m, nil
}

// HandleDeliver implements simnet.StreamHandler: apply every feed frame
// the chunk completes. A frame that does not decode breaks the feed.
func (m *Mirror) HandleDeliver(data []byte) {
	if m.dead {
		return
	}
	if err := m.asm.Feed(data, m.frame); err != nil {
		m.asm.Reset()
		m.dead = true
		m.fail(err)
		m.c.Close()
	}
}

// HandleStreamClose implements simnet.StreamHandler: the feed ended.
func (m *Mirror) HandleStreamClose() {
	m.asm.Reset()
	m.fail(io.EOF)
}

func (m *Mirror) frame(b []byte) error {
	m.bytesRx.Add(uint64(len(b)) + 4)
	ch, err := decodeChunk(b)
	if err != nil {
		return err
	}
	m.apply(ch)
	return nil
}

// fail records the first error that broke the feed.
func (m *Mirror) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.mu.Unlock()
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

// SetOnDelta installs an observer for every applied delta. It is
// called on the network's delivery thread, outside the mirror lock, so
// it is a handler (simnet.Conn.OnDeliver): it must not park. E10 uses
// it to timestamp join→discoverable latency.
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
	m.clk.WaitUntil(timeout, func() bool { return m.Rev() >= target || m.Err() != nil })
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
	return m.collect(func(r APRecord) bool { return band == "" || r.Band == band })
}

// collect returns the mirrored records keep accepts, sorted by ID.
func (m *Mirror) collect(keep func(APRecord) bool) []APRecord {
	m.mu.Lock()
	var out []APRecord
	for _, r := range m.aps {
		if keep(r) {
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
	return m.collect(func(r APRecord) bool {
		return (band == "" || r.Band == band) && rect.Contains(r.Position())
	})
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

// Traffic reports total bytes the subscription moved on the wire
// (payload plus frame headers).
func (m *Mirror) Traffic() (tx, rx uint64) { return m.bytesTx.Load(), m.bytesRx.Load() }

// Close tears down the feed.
func (m *Mirror) Close() error { return m.c.Close() }
