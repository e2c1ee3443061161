// Package leakcheck fails a test binary that leaves goroutines running: a
// package's TestMain hands its *testing.M to Main, which runs the tests and
// then waits for the goroutine count to return to its pre-run value.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// settle is how long Main waits for goroutines the tests stopped (closed
// listeners, drained flushers, closed worker pools) to exit.
const settle = 2 * time.Second

// Main runs m and exits with its status, or with 1 when the tests passed
// but more goroutines are running afterwards than before; the stacks of the
// survivors go to stderr.
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(settle)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines running after the tests, %d before:\n", n, before)
			_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			code = 1
		}
	}
	os.Exit(code)
}
