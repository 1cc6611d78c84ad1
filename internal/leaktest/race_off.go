//go:build !race

package leaktest

// RaceEnabled reports whether the binary was built with the race
// detector; see race_on.go.
const RaceEnabled = false
