package ops

import (
	"math/bits"

	"smoke/internal/expr"
	"smoke/internal/lineage"
	"smoke/internal/pool"
	"smoke/internal/scratch"
	"smoke/internal/storage"
)

// SelectOpts configures selection instrumentation.
type SelectOpts struct {
	Mode CaptureMode
	Dirs Directions
	// Kernel, when non-nil, is the vectorized predicate bit-kernel compiled
	// by expr.CompileBitKernel (column-vs-constant comparisons and their
	// AND/OR/NOT combinations). When nil, Select wraps the row predicate in
	// expr.PredKernel — the two-pass shape is kept either way.
	Kernel expr.BitKernel
	// Workers > 1 runs the selection morsel-parallel: the input range splits
	// into contiguous partitions, each executed by the range kernel with
	// partition-local capture, merged in partition order (identical output
	// and lineage to workers=1). Workers <= 1 runs the same range kernel
	// over one range.
	Workers int
	// Pool schedules the partition kernels; nil runs them inline.
	Pool *pool.Pool
}

// SelectResult is the output of an instrumented selection. Selection is
// 1-to-1 in both directions (§3.2.2): backward lineage is a rid array whose
// i-th entry is the input rid of output record i, and forward lineage is a
// rid array over the input with -1 marking filtered records.
//
// OutRids always holds the selected rids in input order — the engine needs
// them to materialize the output regardless of capture. Under Inject, BW
// aliases OutRids (the rid list is reused as the backward index, principle
// P4); the two-pass kernel allocates it exactly once at the popcounted
// match cardinality, so capture adds no growth cost over plain execution.
//
// Invariant: under Mode None, OutRids is non-nil even when nothing matched
// (callers pass it as a rid subset to interfaces where nil means "all
// rows"). Serial and parallel runs return the same shape in every mode.
type SelectResult struct {
	OutRids []Rid
	BW      []Rid
	FW      []Rid
}

// selectRange is the selection range kernel, in two passes over [lo, hi):
//
//  1. The predicate bit-kernel fills a pooled bitmap — one bit per row, no
//     branches on the match outcome, no per-row closure when a vectorized
//     kernel applies.
//  2. The bitmap popcount sizes the output rid array in a single exact
//     allocation; set bits materialize rids (and forward positions) with a
//     trailing-zeros scan.
//
// Forward entries are partition-local output positions written into the
// shared rid-addressed fw array (nil when forward capture is off); the
// driver rebases them by the partition's global output offset. Partitions
// own disjoint [lo, hi) ranges, so the fw writes never conflict.
func selectRange(lo, hi int, kern expr.BitKernel, opts SelectOpts, fw []Rid) SelectResult {
	var res SelectResult
	n := hi - lo
	wantBW := opts.Mode != None && opts.Dirs.Backward()
	if n <= 0 {
		res.OutRids = []Rid{}
		if wantBW {
			res.BW = res.OutRids
		}
		res.FW = fw
		return res
	}

	// Pass 1: predicate bitmap.
	words := (n + 63) / 64
	bm := scratch.Words(words)
	kern(int32(lo), int32(hi), bm, expr.KernSet)

	// Pass 2: popcount-sized single-allocation materialization.
	count := 0
	for _, w := range bm {
		count += bits.OnesCount64(w)
	}
	out := make([]Rid, count)
	if fw != nil {
		for i := lo; i < hi; i++ {
			fw[i] = -1
		}
	}
	idx := 0
	for wi, w := range bm {
		base := lo + wi*64
		for w != 0 {
			r := Rid(base + bits.TrailingZeros64(w))
			out[idx] = r
			if fw != nil {
				fw[r] = Rid(idx)
			}
			idx++
			w &= w - 1
		}
	}
	scratch.PutWords(bm)

	res.OutRids = out
	if wantBW {
		res.BW = out // BW aliases OutRids (P4)
	}
	res.FW = fw
	return res
}

// kernelFor resolves the predicate kernel: the vectorized one when the
// caller compiled it, the generic closure wrapper otherwise.
func kernelFor(pred expr.Pred, opts SelectOpts) expr.BitKernel {
	if opts.Kernel != nil {
		return opts.Kernel
	}
	return expr.PredKernel(pred)
}

// Select runs a selection over rids [0, n) of a relation. The predicate is a
// compiled closure; with opts.Kernel set it vectorizes over the column data
// instead (see expr.CompileBitKernel). Defer is not implemented for
// selection because it is strictly inferior to Inject (§3.2.2). With
// opts.Workers > 1 the scan runs morsel-parallel and the merged result is
// identical to the serial one.
func Select(n int, pred expr.Pred, opts SelectOpts) SelectResult {
	kern := kernelFor(pred, opts)
	wantFW := opts.Mode != None && opts.Dirs.Forward()
	if opts.Workers <= 1 || n < 2 {
		var fw []Rid
		if wantFW {
			// The forward rid array is pre-allocated at input cardinality.
			fw = make([]Rid, n)
		}
		return selectRange(0, n, kern, opts, fw)
	}

	var fw []Rid
	if wantFW {
		fw = make([]Rid, n)
	}
	ranges := pool.Split(n, opts.Workers)
	locals := make([]SelectResult, len(ranges))
	opts.Pool.RunSplit(ranges, func(part, lo, hi int) {
		locals[part] = selectRange(lo, hi, kern, opts, fw)
	})

	// Merge in partition order: output/backward arrays concatenate (input
	// order is preserved because partitions are contiguous and ordered), and
	// forward entries rebase by each partition's output offset.
	var res SelectResult
	outParts := make([][]Rid, len(locals))
	for p := range locals {
		outParts[p] = locals[p].OutRids
	}
	res.OutRids = lineage.ConcatRidArrays(outParts)
	if res.OutRids == nil {
		// Zero matches: ConcatRidArrays returns nil, but nil and empty
		// differ at downstream interfaces (nil inRids means "all rows" to
		// HashAgg). Partition 0 ran the same kernel over its range, so its
		// empty result has exactly the serial kernel's shape for this mode.
		res.OutRids = locals[0].OutRids
	}
	if opts.Mode != None && opts.Dirs.Backward() {
		res.BW = res.OutRids // BW aliases OutRids, as in the serial kernel
	}
	if wantFW {
		off := Rid(0)
		for p, r := range ranges {
			lineage.OffsetRebase(fw, r.Lo, r.Hi, off)
			off += Rid(len(locals[p].OutRids))
		}
		res.FW = fw
	}
	return res
}

// SelectMaterialize runs Select and gathers the selected rows into a new
// relation (the SELECT * microbenchmark shape of Appendix G.1).
func SelectMaterialize(in *storage.Relation, pred expr.Pred, opts SelectOpts) (*storage.Relation, SelectResult) {
	res := Select(in.N, pred, opts)
	return in.Gather(in.Name+"_sel", res.OutRids), res
}
