package lineage

import "smoke/internal/pool"

// ParTrace is the morsel-parallel rid-list expansion behind the physical
// trace operator: it evaluates ix.Trace(src) by splitting the seed set into
// contiguous partitions, expanding each partition's rid lists on the worker
// pool, and laying the expansions out in partition order. Because Trace is a
// per-seed concatenation, the result is element-for-element identical to the
// serial call — duplicates (repeated seeds, transformational semantics)
// included.
//
// workers <= 1 (or a tiny seed set) falls through to the serial Trace.
func ParTrace(ix *Index, src []Rid, workers int, pl *pool.Pool) []Rid {
	if workers <= 1 || len(src) < 2 {
		return ix.Trace(src)
	}
	ranges := pool.Split(len(src), workers)
	if ix.Kind == EncodedMany {
		// The chunk headers give every partition's exact extent up front, so
		// the partitions decode straight into their slots of the one result
		// array: no partition-local buffers, no concatenation copy.
		offs := make([]int, len(ranges)+1)
		for p, r := range ranges {
			offs[p+1] = offs[p] + ix.Enc.listsLen(src[r.Lo:r.Hi])
		}
		out := make([]Rid, offs[len(ranges)])
		pl.RunSplit(ranges, func(part, lo, hi int) {
			ix.Enc.appendEntries(out[offs[part]:offs[part]:offs[part+1]], src[lo:hi])
		})
		return out
	}
	locals := make([][]Rid, len(ranges))
	pl.RunSplit(ranges, func(part, lo, hi int) {
		// Each partition routes through the serial Trace so it inherits the
		// ArrCursor sequential probes.
		locals[part] = ix.Trace(src[lo:hi])
	})
	return concatRids(locals)
}

// concatRids is ConcatRidArrays with a non-nil result even when empty (a nil
// rid list means "all rows" to the consumers of a trace).
func concatRids(locals [][]Rid) []Rid {
	if out := ConcatRidArrays(locals); out != nil {
		return out
	}
	return []Rid{}
}

// ParTraceFiltered is ParTrace with a per-rid keep predicate applied during
// expansion (the trace operator's pushed-down consuming filter): each
// partition expands its seeds through the serial Trace and drops the rids
// failing keep in place, preserving the order of the survivors. A nil keep is
// equivalent to ParTrace.
func ParTraceFiltered(ix *Index, src []Rid, keep func(Rid) bool, workers int, pl *pool.Pool) []Rid {
	if keep == nil {
		return ParTrace(ix, src, workers, pl)
	}
	traceKept := func(src []Rid) []Rid {
		out := ix.Trace(src)
		kept := out[:0]
		for _, r := range out {
			if keep(r) {
				kept = append(kept, r)
			}
		}
		return kept
	}
	if workers <= 1 || len(src) < 2 {
		return traceKept(src)
	}
	ranges := pool.Split(len(src), workers)
	locals := make([][]Rid, len(ranges))
	pl.RunSplit(ranges, func(part, lo, hi int) { locals[part] = traceKept(src[lo:hi]) })
	return concatRids(locals)
}
