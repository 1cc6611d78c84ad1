package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Tracing records one span around every call the benchmark makes into
// a layer of the simulator. Spans live in memory and are written out
// when the run ends; a nil *tracer records nothing, which is how the
// gating (untraced) runs execute the same workload code.
//
// The spans are taken from outside the program — around exported calls
// — so a span's duration is what the caller waited, and its self time
// is that minus whatever its child spans cover.

// spanID indexes tracer.spans; noSpan is the parent of a root span and
// the id every call on a nil tracer returns.
type spanID int32

const noSpan spanID = -1

type span struct {
	name   string
	parent spanID
	op     int32 // spans of one timed sample share its op id
	start  int64 // ns since the tracer's epoch
	end    int64
}

type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	values map[string][]float64 // samples recorded beside the spans
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), values: make(map[string][]float64)}
}

// observe records one sample of a named quantity (a virtual latency, a
// byte count) at the boundary where the benchmark sees it.
func (t *tracer) observe(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.values[name] = append(t.values[name], v)
	t.mu.Unlock()
}

// begin opens a span. The name must be a constant string: it is kept
// by reference, never copied.
func (t *tracer) begin(name string, parent spanID, op int) spanID {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := spanID(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, op: int32(op), start: now})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id spanID) {
	if t == nil || id == noSpan {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// spanStat aggregates every span of one name.
type spanStat struct {
	count  int
	total  time.Duration // summed durations
	self   time.Duration // summed self times
	median time.Duration // median duration
}

// covered reports how much of [lo, hi) the intervals cover, counting
// overlapping stretches once. It sorts ivs in place.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cursor := lo
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s < cursor {
			s = cursor
		}
		if e > hi {
			e = hi
		}
		if e > s {
			sum += e - s
			cursor = e
		}
	}
	return sum
}

// selfTimes reports each span's self time: its duration minus the part
// of its interval that its direct children cover. Children may overlap
// one another (32 attaches in flight under one storm round), so the
// cover is a union, not a sum.
func selfTimes(spans []span) []int64 {
	kids := make(map[spanID][][2]int64)
	for _, s := range spans {
		if s.parent != noSpan {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.end - s.start - covered(s.start, s.end, kids[spanID(i)])
	}
	return out
}

// stats folds the recorded spans by name.
func (t *tracer) stats() map[string]spanStat {
	self := selfTimes(t.spans)
	durs := make(map[string][]float64)
	out := make(map[string]spanStat)
	for i, s := range t.spans {
		st := out[s.name]
		st.count++
		st.total += time.Duration(s.end - s.start)
		st.self += time.Duration(self[i])
		out[s.name] = st
		durs[s.name] = append(durs[s.name], float64(s.end-s.start))
	}
	for name, st := range out {
		st.median = time.Duration(median(durs[name]))
		out[name] = st
	}
	return out
}

// writeSpans writes one JSON object per span to path.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type row struct {
		ID      int    `json:"id"`
		Name    string `json:"name"`
		Parent  int    `json:"parent"`
		Op      int    `json:"op"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	for i, s := range t.spans {
		if err := enc.Encode(row{i, s.name, int(s.parent), int(s.op), s.start, s.end}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
