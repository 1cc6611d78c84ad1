package epc

import (
	"testing"

	"dlte/internal/leaktest"
)

// TestMain audits the package for leaked goroutines; see
// internal/leaktest. The core serves S1AP from delivery handlers and
// owns no goroutine, so anything left standing after the suite is a
// leak in the stack around it (a blocking cold-path reader whose EOF
// never arrived — the bug class the forced teardown close exists for).
func TestMain(m *testing.M) { leaktest.Main(m) }
