// Package ops implements the paper's physical algebra (§3.2, Appendix F):
// relational operators whose dual form both executes the operator's logic and
// generates lineage. Every operator supports three capture modes:
//
//   - None:   plain execution, no lineage (the Baseline of §5).
//   - Inject: the full capture cost is paid inside operator execution.
//   - Defer:  parts of index construction move after operator execution,
//     reusing operator data structures (hash tables) and exact cardinalities
//     to avoid rid-array resizing.
//
// Capture writes are inlined in the operator loops — no function call (let
// alone a dynamic dispatch) separates execution from capture. That is the
// paper's tight-integration principle P1; the Phys-Mem baseline in
// internal/baselines deliberately violates it to measure the cost.
//
// Operators are written in range-kernel form: the hot loop runs over a
// contiguous rid range (lo, hi) with partition-local capture state. The
// input splits into up to Workers morsels (contiguous ranges) executed
// concurrently over a shared pool, and partition-local indexes merge in
// partition order into structures identical for every partition count (see
// GroupCapture and internal/lineage/merge.go). Workers <= 1 is one partition of
// the same driver — it skips the merge — and reproduces the paper's
// single-threaded experiments exactly.
package ops

import "smoke/internal/lineage"

// CaptureMode selects the instrumentation paradigm.
type CaptureMode uint8

const (
	// None disables lineage capture.
	None CaptureMode = iota
	// Inject captures lineage inside operator execution.
	Inject
	// Defer postpones index construction until after operator execution.
	Defer
)

// String names the mode for bench output.
func (m CaptureMode) String() string {
	switch m {
	case None:
		return "none"
	case Inject:
		return "inject"
	case Defer:
		return "defer"
	}
	return "?"
}

// Directions selects which lineage directions to capture; pruning the unused
// direction is the §4.1 "pruning lineage direction" optimization.
type Directions uint8

const (
	// CaptureBackward captures output→input indexes.
	CaptureBackward Directions = 1 << iota
	// CaptureForward captures input→output indexes.
	CaptureForward
	// CaptureBoth captures both directions (the workload-agnostic default).
	CaptureBoth = CaptureBackward | CaptureForward
)

// Backward reports whether backward capture is enabled.
func (d Directions) Backward() bool { return d&CaptureBackward != 0 }

// Forward reports whether forward capture is enabled.
func (d Directions) Forward() bool { return d&CaptureForward != 0 }

// Rid re-exports the lineage record id type for brevity inside this package.
type Rid = lineage.Rid

// newForwardArray allocates a forward rid array whose unvisited entries read
// as "no output" (-1).
func newForwardArray(n int) []Rid {
	fw := make([]Rid, n)
	for i := range fw {
		fw[i] = -1
	}
	return fw
}
