// Package leakcheck fails a test binary that leaves goroutines running: a
// package's TestMain hands its *testing.M to Main, which runs the tests and
// then waits for the goroutine count to return to its pre-run value.
package leakcheck

import (
	"bytes"
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
	before := running()
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(settle)
		for running() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := running(); n > before {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines running after the tests, %d before:\n", n, before)
			_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			code = 1
		}
	}
	os.Exit(code)
}

// running counts the goroutines a test could have left behind: every one
// but os/signal's, which signal.Notify starts for the life of the process
// (the fuzzing engine calls it, so a -fuzz run always ends with one more).
func running() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	return bytes.Count(buf, []byte("\n\ngoroutine ")) + 1 - bytes.Count(buf, []byte("\nos/signal.loop("))
}
