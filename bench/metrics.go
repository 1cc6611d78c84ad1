package main

// metricDef names one metric the benchmark reports. BENCHMARK.json at
// the repository root lists the same names, units and bounds; a test
// keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which the metric may
	// worsen before -compare (and the acceptance driver) call it a
	// regression. Per-layer metrics have none.
	bound float64
}

func (m metricDef) lowerIsBetter() bool { return m.better == "lower" }

// endToEnd are the metrics a user of the simulator would see, reported
// for every workload by an untraced run. Failures are not a metric
// here: every run reports attempted and failed unit counts beside the
// metrics, and any failed unit makes the run incorrect.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"units_per_s", "units/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"cpu_us_per_unit", "us", "lower", 0.25},
	{"allocs_per_unit", "count", "lower", 0.02},
	{"alloc_bytes_per_unit", "B", "lower", 0.03},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// measured is one reported value.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
