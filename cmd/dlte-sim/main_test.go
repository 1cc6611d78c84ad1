package main

import (
	"runtime"
	"testing"
)

func TestWorkerCount(t *testing.T) {
	for _, tc := range []struct {
		p       int
		want    int
		wantErr bool
	}{
		{p: -1, wantErr: true},
		{p: -8, wantErr: true},
		{p: 0, want: runtime.NumCPU()},
		{p: 1, want: 1},
		{p: 8, want: 8},
	} {
		got, err := workerCount(tc.p)
		if (err != nil) != tc.wantErr || got != tc.want {
			t.Errorf("workerCount(%d) = %d, %v; want %d, error %v", tc.p, got, err, tc.want, tc.wantErr)
		}
	}
}
