package ops

import (
	"cmp"
	"fmt"
	"slices"

	"smoke/internal/expr"
	"smoke/internal/hashtab"
	"smoke/internal/lineage"
	"smoke/internal/pool"
	"smoke/internal/scratch"
	"smoke/internal/storage"
)

// AggFn enumerates the supported aggregation functions. All are algebraic or
// distributive, which is what the group-by push-down optimization requires
// (§4.2).
type AggFn uint8

const (
	// Count is COUNT(*).
	Count AggFn = iota
	// Sum is SUM(arg) over a numeric expression.
	Sum
	// Avg is AVG(arg).
	Avg
	// Min is MIN(arg).
	Min
	// Max is MAX(arg).
	Max
	// CountDistinct is COUNT(DISTINCT arg); the data-profiling application
	// (§6.5.2) uses it for the HAVING COUNT(DISTINCT B) > 1 rewrite.
	CountDistinct
)

// String names the function for output columns and plans.
func (f AggFn) String() string {
	switch f {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Avg:
		return "avg"
	case Min:
		return "min"
	case Max:
		return "max"
	case CountDistinct:
		return "count_distinct"
	}
	return "?"
}

// AggSpec is one aggregate in the SELECT list. Arg and the optional Filter
// (SQL's CASE WHEN … THEN 1 counting idiom: only rows satisfying it fold)
// are evaluated against the rows of table Table of the group state — always
// 0 for HashAgg, one table of the join chain for the fused SPJA block.
type AggSpec struct {
	Fn     AggFn
	Table  int
	Arg    expr.Expr // nil for COUNT(*)
	Filter expr.Expr
	Name   string // output column name; defaults to fn_<i>
}

// GroupBySpec describes a hash aggregation: group-by key columns and the
// aggregates to compute.
type GroupBySpec struct {
	Keys []string
	Aggs []AggSpec
}

// AggOpts configures aggregation instrumentation.
type AggOpts struct {
	Mode CaptureMode
	Dirs Directions
	// CountsByKey supplies exact group cardinalities indexed by a single
	// integer group-by key k in [1, len(CountsByKey)] (the cardinality
	// statistics of §6.1.1): group rid lists are preallocated exactly and
	// never resize. Only meaningful with one TInt key column. Used only when
	// the run has one partition: with several, global counts would
	// overallocate every partition, so it is ignored and the merged index is
	// sized exactly from the partition-local list lengths instead.
	CountsByKey []int32
	// Params binds expression parameters in aggregate arguments.
	Params expr.Params

	// Workload-aware push-downs (§4.2):

	// PushdownFilter restricts backward-lineage capture to input records
	// satisfying the predicate (selection push-down). The query result is
	// unaffected; only the captured lineage shrinks.
	PushdownFilter expr.Expr
	// PartitionBy orders each group's backward rid list stably by the
	// partition code of the given attributes (data skipping): a single TInt
	// attribute's code is its value, in ascending order; any other
	// attribute's code numbers its values by first appearance over the
	// captured rows, in scan order. BWPart addresses each code's range, so a
	// parameterized consuming query reads only its own partition.
	PartitionBy []string
	// Observe, when non-nil, is called once per (group slot, input rid) pair
	// during aggregation. The group-by push-down passes a cube.Builder's
	// Observe here to materialize drill-down aggregates during capture.
	Observe func(slot int32, rid Rid)

	// Workers bounds the partition count of the two-phase aggregation:
	// partition-local hash tables and rid lists merged in partition order
	// (see HashAgg). Workers <= 1 is one partition of the same driver, which
	// skips the merge. Observe, which the merge does not cover, runs as one
	// partition.
	Workers int
	// Pool schedules the partition kernels; nil runs them inline.
	Pool *pool.Pool
	// DupRids declares that inRids may contain duplicate entries — the shape
	// of lineage-consuming queries, whose backward rid sets preserve
	// duplicates (transformational semantics). With several partitions the
	// capture then tracks forward slots per input *position* instead of
	// writing the shared forward array from the kernels (a duplicated rid
	// spanning two partitions would otherwise be rebased by both), and fills
	// the forward array once after the merge. Backward lists and aggregate
	// states handle duplicates natively. Ignored when inRids is nil.
	DupRids bool

	// Compress encodes the finished lineage indexes into their adaptive
	// compressed forms (internal/lineage encoded.go) after capture: the
	// operator loop still appends into raw structures (Inject) or
	// exactly-sized arrays (Defer), and encoding happens post-capture, per
	// partition; a merge then concatenates encoded lists without
	// re-encoding; a PartitionBy capture encodes its lists once the merge
	// has ordered them. The result's BWEnc replaces BW. The forward array
	// goes through lineage.EncodeForward once: it becomes a run directory
	// (FWEnc), a packed array (FWSparse), or stays FW. Queries read every
	// form in place.
	Compress bool
}

// AggResult is the output of an instrumented hash aggregation. Backward
// lineage is 1-to-N (rid index: group → input rids); forward lineage is a rid
// array (input rid → group): dense over the whole relation when the input is
// the whole relation (FW), sparse over the present rids when it is a rid
// subset (FWSparse). Output record i corresponds to hash-table group slot i
// in discovery order.
type AggResult struct {
	Out *storage.Relation
	BW  *lineage.RidIndex
	// BWEnc replaces BW when AggOpts.Compress encoded the backward index.
	BWEnc *lineage.EncodedIndex
	// BWPart is the data-skipping directory (AggOpts.PartitionBy) over the
	// backward index BW or BWEnc, whose lists it ordered by partition code.
	BWPart *lineage.PartitionDir
	FW     []Rid
	// FWEnc replaces FW when AggOpts.Compress chose the forward array's run
	// directory (lineage.EncodeForward).
	FWEnc *lineage.EncodedArr
	// FWSparse replaces FW when the input is a rid subset: nothing on that
	// path allocates or fills an array of one entry per relation row. It
	// also holds a compressed forward array that EncodeForward packed into
	// narrower slots.
	FWSparse *lineage.SparseArr
	// GroupCounts[i] is the input cardinality of group i (tracked for every
	// mode; Defer uses it to preallocate exact backward lists).
	GroupCounts []int64
}

// BackwardIndex wraps whichever backward representation the result holds
// (raw or encoded) as a direction-agnostic index, or nil if backward lineage
// was not captured.
func (r *AggResult) BackwardIndex() *lineage.Index {
	switch {
	case r.BWEnc != nil:
		return lineage.NewEncodedMany(r.BWEnc)
	case r.BW != nil:
		return lineage.NewOneToMany(r.BW)
	}
	return nil
}

// ForwardIndex wraps whichever forward representation the result holds, or
// nil if forward lineage was not captured.
func (r *AggResult) ForwardIndex() *lineage.Index {
	switch {
	case r.FWSparse != nil:
		return lineage.NewSparseOne(r.FWSparse)
	case r.FWEnc != nil:
		return lineage.NewEncodedOne(r.FWEnc)
	case r.FW != nil:
		return lineage.NewOneToOne(r.FW)
	}
	return nil
}

// partitionKeyFn compiles the data-skipping partition key: single TInt
// attributes key directly by value; everything else interns the (composite)
// value, in the key byte format, through a dictionary.
func partitionKeyFn(in *storage.Relation, attrs []string) (func(Rid) int64, *lineage.Dict, error) {
	cols := make([]keyCol, len(attrs))
	for i, a := range attrs {
		kc, err := compileKeyCol(in, 0, a)
		if err != nil {
			return nil, nil, fmt.Errorf("ops: unknown partition attribute %q", a)
		}
		cols[i] = kc
	}
	if len(cols) == 1 && cols[0].typ == storage.TInt {
		col := cols[0].col.Ints
		return func(rid Rid) int64 { return col[rid] }, nil, nil
	}
	dict := lineage.NewDict()
	if len(cols) == 1 && cols[0].typ == storage.TString {
		col := cols[0].col.Strs
		return func(rid Rid) int64 { return dict.Code(col[rid]) }, dict, nil
	}
	var buf []byte
	return func(rid Rid) int64 {
		buf = buf[:0]
		for i := range cols {
			buf = cols[i].appendKey(buf, rid)
		}
		return dict.Code(string(buf))
	}, dict, nil
}

// PartitionKey recomputes the partition code of an attribute-value
// combination so consuming queries can address the right partition of part
// (an AggResult.BWPart captured over in). Values must be given in
// PartitionBy order, one per attribute; each is encoded through the same key
// encoder partitionKeyFn applies to column values at capture time.
func PartitionKey(part *lineage.PartitionDir, in *storage.Relation, attrs []string, vals []any) (int64, bool) {
	if len(vals) != len(attrs) {
		return 0, false
	}
	dict := part.Dict()
	if dict == nil {
		return intValue(vals[0]) // single int attribute: the value is the code
	}
	types := make([]storage.Type, len(attrs))
	for i, a := range attrs {
		types[i] = in.Schema[in.Schema.MustCol(a)].Type
	}
	if len(attrs) == 1 && types[0] == storage.TString {
		s, ok := vals[0].(string)
		if !ok {
			return 0, false
		}
		return dict.Lookup(s)
	}
	var buf []byte
	for i, t := range types {
		col, ok := valueColumn(t, vals[i])
		if !ok {
			return 0, false
		}
		kc := keyCol{typ: t, col: &col}
		buf = kc.appendKey(buf, 0)
	}
	return dict.Lookup(string(buf))
}

// valueColumn holds one attribute value as a one-row column of type t.
func valueColumn(t storage.Type, v any) (storage.Column, bool) {
	switch t {
	case storage.TInt:
		iv, ok := intValue(v)
		return storage.Column{Ints: []int64{iv}}, ok
	case storage.TFloat:
		fv, ok := floatValue(v)
		return storage.Column{Floats: []float64{fv}}, ok
	}
	s, ok := v.(string)
	return storage.Column{Strs: []string{s}}, ok
}

func intValue(v any) (int64, bool) {
	switch v := v.(type) {
	case int64:
		return v, true
	case int:
		return int64(v), true
	}
	return 0, false
}

// floatValue accepts a float attribute's value in any numeric form: a whole
// number written without a decimal point (0 for 0.0) addresses it too.
func floatValue(v any) (float64, bool) {
	switch v := v.(type) {
	case float64:
		return v, true
	case int64:
		return float64(v), true
	case int:
		return float64(v), true
	}
	return 0, false
}

// countsByKeyCap sizes a new group's Inject list from the exact cardinality
// statistics of its single integer key (AggOpts.CountsByKey), or is nil when
// they do not apply.
func countsByKeyCap(g *GroupState, counts []int32) func(slot int) int {
	if counts == nil || g.kind != keyInt {
		return nil
	}
	return func(slot int) int {
		if key := g.intCol[g.rep[0][slot]]; key >= 1 && int(key) <= len(counts) {
			return int(counts[key-1])
		}
		return -1
	}
}

// aggBatchSize is how many rows a kernel hands the group state per call:
// large enough to amortize the per-batch setup, small enough that the
// key/slot scratch stays cache-resident.
const aggBatchSize = 512

// forEachBatch hands input positions [lo, hi) — of inRids, or of the dense
// rid range when inRids is nil — to f in aggBatchSize chunks.
func forEachBatch(inRids []Rid, lo, hi int, f func(rids []Rid)) {
	var dense []Rid
	if inRids == nil {
		dense = scratch.Rids(aggBatchSize)
		defer scratch.PutRids(dense)
	}
	for base := lo; base < hi; base += aggBatchSize {
		end := min(base+aggBatchSize, hi)
		if inRids != nil {
			f(inRids[base:end])
			continue
		}
		rids := dense[:end-base]
		for j := range rids {
			rids[j] = Rid(base + j)
		}
		f(rids)
	}
}

// Hash aggregation runs the paper-style two-phase plan, and Workers <= 1 is
// its one-partition case. Phase 1 splits the input into contiguous row-range
// partitions; each worker folds its rows into its own group state and hands
// them to the partition's side of the GroupCapture. Phase 2 merges the
// partition group states in partition order (MergeGroups): because a group's
// first global occurrence lies in the first partition that contains it, the
// merged group discovery order — and therefore the output relation, the
// group counts, and every backward rid list — is element-for-element
// identical for every partition count. One partition's state already is the
// result, so it skips phase 2.

// HashAgg executes a hash group-by aggregation over in (all rows when inRids
// is nil, otherwise only the listed rids — the shape lineage-consuming
// queries take when they aggregate over a backward-lineage rid set).
//
// The groups, their counts and aggregates live in GroupState and the lineage
// in GroupCapture, the same state and capture the fused SPJA block uses;
// HashAgg drives them over one-table batches of base rids and keeps only the
// §4.2 push-downs — the selection filter, the data-skipping order, Observe —
// and the cardinality statistics.
//
// Inject (§3.2.3) augments each group's intermediate state with the rid array
// of its input records and emits indexes directly from the hash table.
// Defer stores only the group slot during execution and populates both
// indexes in a second probe pass, preallocating exactly from the per-group
// counts that aggregation tracks anyway.
//
// The input splits into up to opts.Workers partitions whose tables and
// indexes merge in partition order; output and lineage are identical for
// every partition count.
func HashAgg(in *storage.Relation, inRids []Rid, spec GroupBySpec, opts AggOpts) (AggResult, error) {
	n := in.N
	if inRids != nil {
		n = len(inRids)
	}
	workers := opts.Workers
	if opts.Observe != nil {
		workers = 1 // cube building is stateful and order-sensitive
	}
	ranges := pool.Split(n, workers)

	// Partition-local states compile up front (serially) so expression
	// errors surface deterministically before any kernel runs.
	var keep expr.Pred
	if opts.PushdownFilter != nil {
		p, err := expr.CompilePred(opts.PushdownFilter, in, opts.Params)
		if err != nil {
			return AggResult{}, fmt.Errorf("ops: push-down filter: %w", err)
		}
		keep = p
	}
	var partCode func(Rid) int64
	var partDict *lineage.Dict
	if len(opts.PartitionBy) > 0 {
		var err error
		if partCode, partDict, err = partitionKeyFn(in, opts.PartitionBy); err != nil {
			return AggResult{}, err
		}
	}
	keys := make([]KeyRef, len(spec.Keys))
	for i, k := range spec.Keys {
		keys[i] = KeyRef{Col: k}
	}
	groups := make([]*GroupState, len(ranges))
	for p := range groups {
		g, err := NewGroupState([]*storage.Relation{in}, keys, spec.Aggs, opts.Params)
		if err != nil {
			return AggResult{}, err
		}
		groups[p] = g
	}
	var dirs Directions
	if opts.Mode != None {
		dirs = opts.Dirs
	}
	// A data-skipping capture orders its lists once they are merged, so it
	// encodes them only afterwards.
	ordered := dirs.Backward() && partCode != nil
	c := NewGroupCapture([]*storage.Relation{in}, inRids, opts.DupRids, []Directions{dirs},
		opts.Compress && !ordered, groups, ranges)
	c.keep = keep
	if len(ranges) == 1 {
		// With several partitions the counts, being global, would size every
		// partition's lists at full-table cardinality; the merge sizes the
		// global lists exactly regardless.
		c.listCap = countsByKeyCap(groups[0], opts.CountsByKey)
	}

	opts.Pool.RunSplit(ranges, func(part, lo, hi int) {
		g := groups[part]
		slots := scratch.Rids(aggBatchSize)
		cols := make([][]Rid, 1)
		forEachBatch(inRids, lo, hi, func(rids []Rid) {
			sb := slots[:len(rids)]
			cols[0] = rids
			g.Fold(cols, sb)
			if opts.Observe != nil {
				for j, s := range sb {
					opts.Observe(s, rids[j])
				}
			}
			if opts.Mode == Inject {
				c.Add(part, cols, sb)
			}
		})
		if opts.Mode == Defer {
			// The partition-local Zγ pass (§3.2.3): rescan the range and
			// reuse the pinned hash table to recover each row's group.
			c.Defer(part)
			forEachBatch(inRids, lo, hi, func(rids []Rid) {
				sb := slots[:len(rids)]
				cols[0] = rids
				g.Probe(cols, sb)
				c.Add(part, cols, sb)
			})
		}
		scratch.PutRids(slots)
		c.Finish(part)
	})

	bw, fw := c.Merge(opts.Pool)
	final := groups[0]
	res := AggResult{Out: final.Materialize("groupby"), GroupCounts: final.Counts()}
	if ordered {
		dir := orderByPartition(bw[0].Many, partCode, partDict, inRids, n, keep)
		if opts.Compress {
			dir.Encode()
			if fw[0] != nil {
				fw[0] = lineage.EncodeForward(fw[0])
			}
		}
		bw[0] = dir.Index()
		res.BWPart = dir
	}
	if ix := bw[0]; ix != nil {
		res.BW, res.BWEnc = ix.Many, ix.Enc
	}
	if ix := fw[0]; ix != nil {
		res.FW, res.FWEnc, res.FWSparse = ix.Arr, ix.EncArr, ix.Sparse
	}
	return res, nil
}

// orderByPartition orders the merged backward lists stably by partition
// code (§4.2 data skipping) and returns the directory over them. A single
// TInt attribute (dict nil) codes a row by its value, ranked in ascending
// order. Any other attribute interns its values here, in scan order over
// the captured rows (those keep admits), so codes number values by first
// appearance and rank as themselves.
func orderByPartition(bw *lineage.RidIndex, code func(Rid) int64, dict *lineage.Dict,
	inRids []Rid, n int, keep expr.Pred) *lineage.PartitionDir {
	ranks := make([]int32, 0, bw.Cardinality())
	var codes []int64
	if dict == nil {
		// Rank values by first sight, then renumber by ascending value.
		seen := hashtab.New(64)
		for i := range bw.Len() {
			for _, rid := range bw.List(i) {
				v := code(rid)
				r, added := seen.GetOrPut(v, int32(len(codes)))
				if added {
					codes = append(codes, v)
				}
				ranks = append(ranks, r)
			}
		}
		order := make([]int32, len(codes)) // first-sight numbers by ascending value
		for r := range order {
			order[r] = int32(r)
		}
		slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(codes[a], codes[b]) })
		rank := make([]int32, len(codes))
		for r, first := range order {
			rank[first] = int32(r)
		}
		for e, r := range ranks {
			ranks[e] = rank[r]
		}
		slices.Sort(codes)
		return lineage.OrderByPartition(bw, ranks, codes, nil)
	}
	codeOf := code
	if inRids == nil {
		// A dense scan keeps each row's code, so ranking reads it back
		// instead of interning the value again.
		byRid := make([]int32, n)
		for r := range byRid {
			if keep == nil || keep(Rid(r)) {
				byRid[r] = int32(code(Rid(r)))
			}
		}
		codeOf = func(r Rid) int64 { return int64(byRid[r]) }
	} else {
		for _, r := range inRids {
			if keep == nil || keep(r) {
				code(r)
			}
		}
	}
	for i := range bw.Len() {
		for _, rid := range bw.List(i) {
			ranks = append(ranks, int32(codeOf(rid)))
		}
	}
	codes = make([]int64, dict.Size())
	for c := range codes {
		codes[c] = int64(c)
	}
	return lineage.OrderByPartition(bw, ranks, codes, dict)
}
