package registry

import (
	"testing"

	"dlte/internal/leaktest"
)

func TestMain(m *testing.M) { leaktest.Main(m) }
