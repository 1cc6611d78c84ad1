package ott

import (
	"testing"

	"dlte/internal/leaktest"
)

// TestMain audits the package for leaked goroutines: the OTT servers
// are dispatch handlers, so no goroutine may survive their Close (or
// their network's).
func TestMain(m *testing.M) { leaktest.Main(m) }
