package exec

import (
	"fmt"

	"smoke/internal/expr"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/plan"
	"smoke/internal/serr"
	"smoke/internal/storage"
)

// This file is the physical trace operator: the lowering of plan.Backward and
// plan.Forward, which make lineage consumption (linked brushing, crossfilter,
// profiling drill-down — §2.1, §6.5) a first-class plan citizen instead of a
// serial side path.
//
// A trace executes in three steps, each morsel-parallel:
//
//  1. Resolve the lineage index. A bound trace (plan.BoundTrace) reads the
//     already-captured index of an executed base query in place — raw or
//     adaptively encoded, it is never decompressed wholesale. An unbound
//     trace executes its source subplan first, capturing exactly the one
//     index direction the trace needs.
//  2. Resolve the seeds: an explicit rid set, or a predicate evaluated with
//     the morsel-parallel selection kernel.
//  3. Expand the seeds' rid lists (lineage.ParTrace): contiguous seed
//     partitions expand into partition-local buffers that concatenate in
//     partition order — element-identical to a serial trace, duplicates
//     preserved (transformational semantics). A consuming filter pushed into
//     the trace by the optimizer drops rids during expansion.
//
// The trace's own lineage to the traced relation is the expanded rid list
// itself, so trace-then-query plans compose end-to-end and consuming results
// can serve as base queries for further traces (the Q1b → Q1c chains of
// §2.1). When the optimizer proved a scan-and-filter equivalent
// (Backward.ScanEquiv) and the seeds select most of the source output
// (plan.ScanBeatsIndex), the operator runs the sequential predicate scan
// instead of scattered rid-list expansion.

// traceIndex resolves step 1 for one direction: the source's output relation
// and its lineage index for table.
func traceIndex(source plan.Node, bound *plan.BoundTrace, table string, need ops.Directions, opts PlanOpts) (*storage.Relation, *lineage.Index, error) {
	if bound != nil {
		var ix *lineage.Index
		var err error
		if need.Backward() {
			ix, err = bound.Capture.BackwardIndex(table)
		} else {
			ix, err = bound.Capture.ForwardIndex(table)
		}
		if err != nil {
			return nil, nil, err
		}
		return bound.Out, ix, nil
	}
	if source == nil {
		return nil, nil, fmt.Errorf("exec: trace of %q has neither a source plan nor a bound result", table)
	}
	subOpts := opts
	subOpts.Compress = false // internal capture, discarded after the trace
	if subOpts.Mode == ops.None {
		subOpts.Mode = ops.Inject
	}
	subOpts.Dirs = 0
	subOpts.TableDirs = map[string]ops.Directions{table: need}
	child, err := runNode(source, subOpts)
	if err != nil {
		return nil, nil, err
	}
	ix := child.fw[table]
	if need.Backward() {
		ix = child.bw[table]
	}
	if ix == nil {
		return nil, nil, fmt.Errorf("exec: trace: no lineage captured for %q (is it a base relation of the source?)", table)
	}
	return child.rel, ix, nil
}

// traceSeeds resolves step 2: the seed rid set over seedRel (the source
// output for backward traces, the base relation for forward ones). The
// result is never nil — an empty seed set must stay an explicit empty rid
// subset downstream (nil means "all rows" to the aggregation kernels).
//
// Explicit seeds are validated against both the seed relation and the index
// that will expand them (ixLen): a rid past either bound would index the
// rid array or the encoded offset directory unchecked and panic the handler.
// The rejection is a structured Invalid — a client mistake (HTTP 400), not
// an engine failure (500).
func traceSeeds(seedRel *storage.Relation, ixLen int, rids []lineage.Rid, pred expr.Expr, opts PlanOpts) ([]lineage.Rid, error) {
	if rids != nil {
		lim := seedRel.N
		if ixLen < lim {
			lim = ixLen
		}
		for _, r := range rids {
			if int(r) < 0 || int(r) >= lim {
				return nil, serr.New(serr.Invalid, "exec: trace seed rid %d out of range [0, %d)", r, lim)
			}
		}
		return rids, nil
	}
	if pred == nil {
		// Seed everything: the full identity set.
		all := make([]lineage.Rid, seedRel.N)
		for i := range all {
			all[i] = lineage.Rid(i)
		}
		return all, nil
	}
	sres, err := selectRows(seedRel, pred, 0, opts)
	if err != nil {
		return nil, fmt.Errorf("exec: trace seed predicate: %w", err)
	}
	return sres.OutRids, nil
}

// backwardRids runs a Backward node up to its rid list: either the expanded
// (filtered, optionally deduplicated) base rid list, or — when the optimizer
// annotated a scan-and-filter equivalent and the seeds select most of the
// output — the Scan to run instead.
func backwardRids(node plan.Backward, opts PlanOpts) ([]lineage.Rid, *plan.Scan, error) {
	srcOut, ix, err := traceIndex(node.Source, node.Bound, node.Table, ops.CaptureBackward, opts)
	if err != nil {
		return nil, nil, err
	}
	seeds, err := traceSeeds(srcOut, ix.Len(), node.SeedRids, node.SeedPred, opts)
	if err != nil {
		return nil, nil, err
	}
	if node.ScanEquiv != nil && plan.ScanBeatsIndex(len(seeds), srcOut.N) {
		return nil, node.ScanEquiv, nil
	}
	var keep func(lineage.Rid) bool
	if node.Filter != nil {
		p, err := expr.CompilePred(node.Filter, node.Rel, opts.Params)
		if err != nil {
			return nil, nil, fmt.Errorf("exec: trace filter: %w", err)
		}
		keep = func(r lineage.Rid) bool { return p(r) }
	}
	rids := lineage.ParTraceFiltered(ix, seeds, keep, opts.Workers, opts.Pool)
	if node.Distinct {
		rids = lineage.Dedup(rids)
	}
	if rids == nil {
		rids = []lineage.Rid{}
	}
	return rids, nil, nil
}

// runBackward lowers a Backward trace: its output relation is the traced
// base rows (gathered from the base relation), and its lineage to the traced
// relation is the rid list itself (backward) and its inversion (forward).
func runBackward(node plan.Backward, opts PlanOpts) (nodeOut, error) {
	rids, scan, err := backwardRids(node, opts)
	if err != nil {
		return nodeOut{}, err
	}
	if scan != nil {
		return runScan(*scan, opts)
	}
	out := nodeOut{
		rel: node.Rel.Gather(node.Table, rids),
		bw:  map[string]*lineage.Index{}, fw: map[string]*lineage.Index{},
	}
	dirs := opts.dirsFor(node.Table)
	if dirs.Backward() {
		out.bw[node.Table] = lineage.NewOneToOne(rids)
	}
	if dirs.Forward() {
		out.fw[node.Table] = lineage.Invert(lineage.NewOneToOne(rids), node.Rel.N)
	}
	return out, nil
}

// forwardRids runs a Forward node up to its expanded rid list, also
// returning the source context (output relation and captured indexes)
// runForward composes end-to-end lineage from.
func forwardRids(node plan.Forward, opts PlanOpts) ([]lineage.Rid, *storage.Relation, map[string]*lineage.Index, map[string]*lineage.Index, error) {
	var srcOut *storage.Relation
	var ix *lineage.Index
	var srcBW, srcFW map[string]*lineage.Index
	if node.Bound != nil {
		var err error
		srcOut, ix, err = traceIndex(nil, node.Bound, node.Table, ops.CaptureForward, opts)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		srcBW, srcFW = map[string]*lineage.Index{}, map[string]*lineage.Index{}
		for _, rel := range node.Bound.Capture.Relations() {
			if bix, err := node.Bound.Capture.BackwardIndex(rel); err == nil {
				srcBW[rel] = bix
			}
			if fix, err := node.Bound.Capture.ForwardIndex(rel); err == nil {
				srcFW[rel] = fix
			}
		}
	} else {
		if node.Source == nil {
			return nil, nil, nil, nil, fmt.Errorf("exec: trace of %q has neither a source plan nor a bound result", node.Table)
		}
		// Execute the source with full capture: the forward index of Table
		// drives the trace, and the remaining indexes compose into the
		// node's end-to-end lineage.
		subOpts := opts
		subOpts.Compress = false
		if subOpts.Mode == ops.None {
			subOpts.Mode = ops.Inject
		}
		subOpts.Dirs = ops.CaptureBoth
		subOpts.TableDirs = nil
		child, err := runNode(node.Source, subOpts)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		srcOut, srcBW, srcFW = child.rel, child.bw, child.fw
		ix = srcFW[node.Table]
		if ix == nil {
			return nil, nil, nil, nil, fmt.Errorf("exec: trace: no forward lineage captured for %q", node.Table)
		}
	}
	seeds, err := traceSeeds(node.Rel, ix.Len(), node.SeedRids, node.SeedPred, opts)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	var keep func(lineage.Rid) bool
	if node.Filter != nil {
		p, err := expr.CompilePred(node.Filter, srcOut, opts.Params)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("exec: trace filter: %w", err)
		}
		keep = func(r lineage.Rid) bool { return p(r) }
	}
	rids := lineage.ParTraceFiltered(ix, seeds, keep, opts.Workers, opts.Pool)
	if node.Distinct {
		rids = lineage.Dedup(rids)
	}
	if rids == nil {
		rids = []lineage.Rid{}
	}
	return rids, srcOut, srcBW, srcFW, nil
}

// runForward lowers a Forward trace: its output is the source output rows
// reachable from the seed base rows, and its end-to-end lineage composes the
// traced positions with the source's own captured indexes.
func runForward(node plan.Forward, opts PlanOpts) (nodeOut, error) {
	rids, srcOut, srcBW, srcFW, err := forwardRids(node, opts)
	if err != nil {
		return nodeOut{}, err
	}
	out := nodeOut{
		rel: srcOut.Gather(srcOut.Name, rids),
		bw:  map[string]*lineage.Index{}, fw: map[string]*lineage.Index{},
	}
	local := lineage.NewOneToOne(rids)
	var localInv *lineage.Index
	for base, bix := range srcBW {
		if opts.dirsFor(base).Backward() {
			out.bw[base] = lineage.Compose(local, bix)
		}
	}
	for base, fix := range srcFW {
		if !opts.dirsFor(base).Forward() {
			continue
		}
		if localInv == nil {
			localInv = lineage.Invert(local, srcOut.N)
		}
		out.fw[base] = lineage.Compose(fix, localInv)
	}
	return out, nil
}

// TraceRids executes a trace node down to its bare rid list — the backward
// (resp. forward) base-side rids — without materializing the traced rows.
// The lazy trace path (core answering Backward/Forward on a capture-free
// result by re-executing its stored plan) runs on it: pass the optimized
// trace node, which is either still a Backward/Forward (re-execute the
// source with targeted capture, expand) or — when the optimizer collapsed an
// unbound predicate-seeded trace to its scan-and-filter equivalent — a bare
// Scan whose selected rids ARE the trace.
func TraceRids(n plan.Node, opts PlanOpts) ([]lineage.Rid, error) {
	switch node := n.(type) {
	case plan.Backward:
		rids, scan, err := backwardRids(node, opts)
		if err != nil {
			return nil, err
		}
		if scan != nil {
			return scanRids(*scan, opts)
		}
		return rids, nil
	case plan.Forward:
		rids, _, _, _, err := forwardRids(node, opts)
		return rids, err
	case plan.Scan:
		return scanRids(node, opts)
	}
	return nil, fmt.Errorf("exec: TraceRids wants a trace node, got %T", n)
}

// scanRids evaluates a scan's filter down to the selected rid list (in scan
// order; the identity set when unfiltered).
func scanRids(sc plan.Scan, opts PlanOpts) ([]lineage.Rid, error) {
	if sc.Filter == nil {
		all := make([]lineage.Rid, sc.Rel.N)
		for i := range all {
			all[i] = lineage.Rid(i)
		}
		return all, nil
	}
	sres, err := selectRows(sc.Rel, sc.Filter, 0, opts)
	if err != nil {
		return nil, fmt.Errorf("exec: trace scan filter: %w", err)
	}
	return sres.OutRids, nil
}
