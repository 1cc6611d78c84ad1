//go:build race

package leaktest

// RaceEnabled reports whether the binary was built with the race
// detector. sync.Pool deliberately drops items at random under the
// detector, so pooled paths allocate and strict zero-alloc gates skip.
const RaceEnabled = true
