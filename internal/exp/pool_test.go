package exp

import (
	"testing"
	"time"
)

func TestMergeRegions(t *testing.T) {
	type rec struct {
		at  time.Duration
		seq uint64
		val string
	}
	parts := [][]rec{
		{{1, 1, "a1"}, {5, 2, "a2"}, {5, 9, "a3"}},
		{{2, 1, "b1"}, {5, 3, "b2"}},
		{},
		{{1, 1, "d1"}, {9, 1, "d2"}},
	}
	got := mergeRegions(parts, func(r rec) (time.Duration, uint64) { return r.at, r.seq })
	want := []string{"a1", "d1", "b1", "a2", "b2", "a3", "d2"}
	if len(got) != len(want) {
		t.Fatalf("merged %d records, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].val != w {
			t.Fatalf("merge order %v, want %v at %d", got[i].val, w, i)
		}
	}
}
