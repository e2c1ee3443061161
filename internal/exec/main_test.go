package exec

import (
	"testing"

	"smoke/internal/leakcheck"
)

// TestMain fails the package's tests when any goroutine they started
// outlives them.
func TestMain(m *testing.M) { leakcheck.Main(m) }
