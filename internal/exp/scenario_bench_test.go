package exp

import (
	"testing"
	"time"
)

// BenchmarkCorridorWorld prices one compact corridor world end to end —
// compile, run to the horizon, verify — the path bench's city_corridor
// workload drives at 200k UEs, here at 20k. ns/op is the world's wall
// time; events/op and handovers/op are what it simulated, identical at
// any worker count.
func BenchmarkCorridorWorld(b *testing.B) {
	spec := ScenarioSpec{
		Name: "bench-corridor", Kind: KindCorridor,
		UEs: 20_000, APs: 32, SpacingM: 1000, SpeedMps: 25,
		Horizon: 60 * time.Second,
	}
	b.ReportAllocs()
	var events, handovers uint64
	for i := 0; i < b.N; i++ {
		w, err := runCompactScenario(spec, SchemeDLTE, 42, 0)
		if err != nil {
			b.Fatal(err)
		}
		events, handovers = w.Events(), w.Handovers()
	}
	b.ReportMetric(float64(events), "events/op")
	b.ReportMetric(float64(handovers), "handovers/op")
}
