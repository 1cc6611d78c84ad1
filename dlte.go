// Package dlte is a from-scratch implementation and experimental
// reproduction of "dLTE: Building a more WiFi-like Cellular Network
// (Instead of the Other Way Around)" (HotNets-XVII, 2018): a
// distributed LTE architecture where every access point carries its
// own EPC stub, discovers peers through an open registry, and
// coordinates spectrum over an extended X2 — no carrier core anywhere.
//
// The implementation lives under internal/ (see DESIGN.md for the full
// inventory); the primary entry points are:
//
//   - internal/core: the dLTE access point and scenario builder — the
//     paper's contribution.
//   - internal/baseline: the comparison architectures (telecom LTE,
//     private LTE, legacy WiFi).
//   - internal/exp: the experiment harness regenerating every table,
//     figure, and claim (E1–E13, indexed in DESIGN.md §3).
//
// Runnables: cmd/dlte-sim (experiments), cmd/dlte-demo (narrated
// lifecycle), cmd/dlte-registry and cmd/dlte-keytool (real-TCP registry
// tools), and the examples/ directory.
//
// The benchmarks in bench_test.go regenerate each experiment; run
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for the recorded paper-vs-measured shapes.
package dlte

// Version identifies the reproduction release.
const Version = "1.0.0"
