package ops

import (
	"fmt"

	"smoke/internal/expr"
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
	// PartitionBy partitions each group's backward rid array by the given
	// attributes (data skipping): parameterized consuming queries then scan
	// only the matching partition. The result's BWPart replaces BW.
	PartitionBy []string
	// Observe, when non-nil, is called once per (group slot, input rid) pair
	// during aggregation. The group-by push-down passes a cube.Builder's
	// Observe here to materialize drill-down aggregates during capture.
	Observe func(slot int32, rid Rid)

	// Workers bounds the partition count of the two-phase aggregation:
	// partition-local hash tables and rid lists merged in partition order
	// (see HashAgg). Workers <= 1 is one partition of the same driver, which
	// skips the merge. Options the merge does not cover (Observe, and
	// non-int or composite PartitionBy) run as one partition.
	Workers int
	// Pool schedules the partition kernels; nil runs them inline.
	Pool *pool.Pool
	// DupRids declares that inRids may contain duplicate entries — the shape
	// of lineage-consuming queries, whose backward rid sets preserve
	// duplicates (transformational semantics). With several partitions the
	// driver then tracks forward slots per input *position* instead of
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
	// re-encoding. The result's BWEnc replaces BW. The forward array goes
	// through lineage.EncodeForward once: it becomes a run directory
	// (FWEnc), a packed array (FWSparse), or stays FW. Queries read every
	// form in place; PartitionBy (data-skipping) indexes are not compressed.
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
	// BWPart replaces BW when the data-skipping optimization partitions the
	// backward rid arrays (AggOpts.PartitionBy).
	BWPart *lineage.PartitionedIndex
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
// was not captured (BWPart, the data-skipping form, is exposed separately).
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

// aggState is one partition of HashAgg: the shared group state plus this
// driver's own capture — backward rid lists (raw, or shaped by the §4.2
// push-downs), the forward sink, and the Observe hook.
type aggState struct {
	g           *GroupState
	mode        CaptureMode
	dirs        Directions
	countsByKey []int32

	groupRids [][]Rid // Inject backward lists (i_rids per group)
	fw        fwdSink

	// push-down state (§4.2)
	pdFilter expr.Pred
	partKey  func(rid Rid) int64
	partDict *lineage.Dict
	partMaps []map[int64][]Rid
	observe  func(slot int32, rid Rid)
}

func newAggState(in *storage.Relation, spec GroupBySpec, opts AggOpts) (*aggState, error) {
	keys := make([]KeyRef, len(spec.Keys))
	for i, k := range spec.Keys {
		keys[i] = KeyRef{Col: k}
	}
	g, err := NewGroupState([]*storage.Relation{in}, keys, spec.Aggs, opts.Params)
	if err != nil {
		return nil, err
	}
	st := &aggState{g: g, mode: opts.Mode, dirs: opts.Dirs, countsByKey: opts.CountsByKey, observe: opts.Observe}
	if opts.PushdownFilter != nil {
		p, err := expr.CompilePred(opts.PushdownFilter, in, opts.Params)
		if err != nil {
			return nil, fmt.Errorf("ops: push-down filter: %w", err)
		}
		st.pdFilter = p
	}
	if len(opts.PartitionBy) > 0 {
		pk, dict, err := partitionKeyFn(in, opts.PartitionBy)
		if err != nil {
			return nil, err
		}
		st.partKey = pk
		st.partDict = dict
	}
	return st, nil
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
func PartitionKey(part *lineage.PartitionedIndex, in *storage.Relation, attrs []string, vals []any) (int64, bool) {
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

// addGroups extends the Inject backward structures to the groups the state
// discovered since the last batch.
func (st *aggState) addGroups() {
	if st.partKey != nil {
		for len(st.partMaps) < st.g.Len() {
			st.partMaps = append(st.partMaps, nil)
		}
		return
	}
	for slot := len(st.groupRids); slot < st.g.Len(); slot++ {
		var l []Rid
		if st.countsByKey != nil && st.g.kind == keyInt {
			if key := st.g.intCol[st.g.rep[0][slot]]; key >= 1 && int(key) <= len(st.countsByKey) {
				l = make([]Rid, 0, st.countsByKey[key-1])
			}
		}
		st.groupRids = append(st.groupRids, l)
	}
}

// captureBackward writes rid into group slot's backward structure, honoring
// selection push-down and data-skipping partitioning.
func (st *aggState) captureBackward(slot int32, rid Rid) {
	if st.pdFilter != nil && !st.pdFilter(rid) {
		return
	}
	if st.partKey != nil {
		m := st.partMaps[slot]
		if m == nil {
			m = map[int64][]Rid{}
			st.partMaps[slot] = m
		}
		pk := st.partKey(rid)
		m[pk] = lineage.AppendRid(m[pk], rid)
		return
	}
	st.groupRids[slot] = lineage.AppendRid(st.groupRids[slot], rid)
}

// aggBatchSize is how many rows a kernel hands the group state per call:
// large enough to amortize the per-batch setup, small enough that the
// key/slot scratch stays cache-resident.
const aggBatchSize = 512

// forEachBatch hands input positions [lo, hi) — of inRids, or of the dense
// rid range when inRids is nil — to f in aggBatchSize chunks; base is the
// chunk's first position.
func forEachBatch(inRids []Rid, lo, hi int, f func(base int, rids []Rid)) {
	var dense []Rid
	if inRids == nil {
		dense = scratch.Rids(aggBatchSize)
		defer scratch.PutRids(dense)
	}
	for base := lo; base < hi; base += aggBatchSize {
		end := min(base+aggBatchSize, hi)
		if inRids != nil {
			f(base, inRids[base:end])
			continue
		}
		rids := dense[:end-base]
		for j := range rids {
			rids[j] = Rid(base + j)
		}
		f(base, rids)
	}
}

// processRows drives the aggregation kernel over input positions [lo, hi):
// each batch folds into the group state (which resolves a whole batch of
// slots per call) and then into this driver's capture. Every per-(slot, rid)
// effect happens in row order, so group discovery order, backward list
// order, and forward entries are those of a row-at-a-time loop. posSlots,
// when non-nil, records each input position's slot (the duplicate-rid
// parallel path).
func (st *aggState) processRows(inRids []Rid, lo, hi int, posSlots []Rid) {
	slots := scratch.Rids(aggBatchSize)
	cols := make([][]Rid, 1)
	forEachBatch(inRids, lo, hi, func(base int, rids []Rid) {
		sb := slots[:len(rids)]
		cols[0] = rids
		st.g.Fold(cols, sb)
		st.capture(sb, rids)
		if posSlots != nil {
			copy(posSlots[base:], sb)
		}
	})
	scratch.PutRids(slots)
}

// capture applies one folded batch to the Observe hook and, under Inject, to
// the backward lists and forward entries. The loops are per-effect rather
// than per-row, but each effect still sees rows in input order, which is all
// any of them depends on.
func (st *aggState) capture(slots, rids []Rid) {
	if st.observe != nil {
		for j, s := range slots {
			st.observe(s, rids[j])
		}
	}
	if st.mode != Inject {
		return
	}
	if st.dirs.Backward() {
		st.addGroups()
		if st.partKey == nil && st.pdFilter == nil {
			gr := st.groupRids
			for j, s := range slots {
				gr[s] = lineage.AppendRid(gr[s], rids[j])
			}
		} else {
			for j, s := range slots {
				st.captureBackward(s, rids[j])
			}
		}
	}
	st.fw.setBatch(rids, slots)
}

// Hash aggregation runs the paper-style two-phase plan, and Workers <= 1 is
// its one-partition case. Phase 1 splits the input into contiguous row-range
// partitions; each worker runs the aggregation kernel (aggState.processRows)
// against its own group state and appends rids into its own partition-local
// lists — no shared-state writes in the hot loop beyond rid-disjoint
// forward-array slots. Phase 2 merges the partition group states in
// partition order (MergeGroups): because a group's first global occurrence
// lies in the first partition that contains it, the merged group discovery
// order — and therefore the output relation, the group counts, and every
// backward rid list — is element-for-element identical for every partition
// count. One partition's state already is the result, so it skips phase 2.

// parallelizableAgg reports whether the two-phase merge covers the requested
// options; when it does not, HashAgg runs them as one partition. Observe
// (group-by push-down cube building) is stateful and order-sensitive, and
// data-skipping partition codes are only stable across partition-local
// dictionaries for single TInt attributes (string codes are assigned in
// discovery order, which differs per partition).
func parallelizableAgg(in *storage.Relation, opts AggOpts) bool {
	if opts.Observe != nil {
		return false
	}
	if len(opts.PartitionBy) == 0 {
		return true
	}
	if len(opts.PartitionBy) > 1 {
		return false
	}
	c := in.Schema.Col(opts.PartitionBy[0])
	return c >= 0 && in.Schema[c].Type == storage.TInt
}

// HashAgg executes a hash group-by aggregation over in (all rows when inRids
// is nil, otherwise only the listed rids — the shape lineage-consuming
// queries take when they aggregate over a backward-lineage rid set).
//
// The groups, their counts and aggregates live in GroupState, the same state
// the fused SPJA block folds join chains into; HashAgg drives it over
// one-table batches of base rids and keeps only its capture — backward
// lists, the forward array, and the §4.2 push-downs.
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
	if !parallelizableAgg(in, opts) {
		workers = 1
	}
	ranges := pool.Split(n, workers)
	merge := len(ranges) > 1

	// Partition-local states compile up front (serially) so expression
	// errors surface deterministically before any kernel runs. With several
	// partitions CountsByKey is dropped for the locals: the counts are
	// global, so every partition would preallocate each group's list at
	// full-table cardinality (workers × total-rid memory); the merge builds
	// an exactly-sized index from the local list lengths regardless.
	popts := opts
	if merge {
		popts.CountsByKey = nil
	}
	sts := make([]*aggState, len(ranges))
	for p := range sts {
		st, err := newAggState(in, spec, popts)
		if err != nil {
			return AggResult{}, err
		}
		sts[p] = st
	}

	wantBW := opts.Mode != None && opts.Dirs.Backward()
	wantFW := opts.Mode != None && opts.Dirs.Forward()
	var fw fwdSink
	var posSlots []Rid
	if wantFW {
		// One shared forward array: partitions own disjoint rid sets, so
		// each writes its rows' entries (with partition-local group slots,
		// rebased to global slots after a merge) without conflicts. A rid
		// subset gets the sparse form, built by one bit-set pass over
		// inRids: no array of in.N entries is allocated or filled.
		if inRids == nil {
			fw.dense = make([]Rid, in.N)
		} else {
			fw.sparse = lineage.NewSparseArr(in.N, inRids)
		}
		switch {
		case merge && opts.DupRids && inRids != nil:
			// Duplicate rid sets (lineage-consuming queries) break the
			// disjointness assumption: the same rid in two partitions would
			// be rebased by both. Kernels instead record each input
			// *position*'s partition-local slot (positions are disjoint by
			// construction), and the forward array fills after the merge.
			posSlots = make([]Rid, len(inRids))
		case opts.Mode == Inject:
			for _, st := range sts {
				st.fw = fw
			}
		}
	}
	// Compressed capture: each partition encodes its own local lists after
	// its kernel finishes (inside the worker, so encoding parallelizes), and
	// a merge concatenates the encoded lists per global slot without
	// re-encoding (lineage.MergeEncodedBySlot).
	encodeLocal := opts.Compress && wantBW && sts[0].partKey == nil
	deferBWs := make([]*lineage.RidIndex, len(ranges))
	encBWs := make([]*lineage.EncodedIndex, len(ranges))

	opts.Pool.RunSplit(ranges, func(part, lo, hi int) {
		st := sts[part]
		var injectPos []Rid
		if opts.Mode == Inject {
			injectPos = posSlots
		}
		st.processRows(inRids, lo, hi, injectPos)
		switch {
		case opts.Mode == Defer:
			deferBWs[part] = st.deferPass(inRids, lo, hi, wantBW, fw, posSlots)
			if encodeLocal {
				encBWs[part] = lineage.EncodeRidIndex(deferBWs[part])
			}
		case encodeLocal && opts.Mode == Inject:
			encBWs[part] = lineage.EncodeLists(st.groupRids)
		}
	})

	// Phase 2. One partition's state and indexes are the result as built;
	// several merge in partition order into the first partition's group
	// state (MergeGroups), and indexes are stitched from the locals through
	// the per-partition slot maps (local group slot → global slot).
	final := sts[0].g
	var slotMaps [][]Rid
	if merge {
		parts := make([]*GroupState, len(sts))
		for p, st := range sts {
			parts[p] = st.g
		}
		slotMaps = MergeGroups(parts)
	}
	nG := final.Len()

	res := AggResult{Out: final.Materialize("groupby"), GroupCounts: final.Counts()}
	if wantBW {
		switch {
		case sts[0].partKey != nil && merge:
			parts := make([][]map[int64][]Rid, len(sts))
			for p, st := range sts {
				parts[p] = st.partMaps
			}
			res.BWPart = lineage.MergePartitionMaps(parts, slotMaps, nG, nil)
		case sts[0].partKey != nil:
			res.BWPart = lineage.NewPartitionedIndexFromParts(sts[0].partMaps, sts[0].partDict)
		case encodeLocal && merge:
			res.BWEnc = lineage.MergeEncodedBySlot(encBWs, slotMaps, nG)
		case encodeLocal:
			res.BWEnc = encBWs[0]
		case opts.Mode == Defer && merge:
			res.BW = lineage.MergeIndexesBySlot(deferBWs, slotMaps, nG)
		case opts.Mode == Defer:
			res.BW = deferBWs[0]
		case merge:
			lists := make([][][]Rid, len(sts))
			for p, st := range sts {
				lists[p] = st.groupRids
			}
			res.BW = lineage.MergeListsBySlot(lists, slotMaps, nG)
		default:
			bw := lineage.NewRidIndex(nG)
			for slot, l := range sts[0].groupRids {
				bw.SetList(slot, l) // reuse the hash-table rid lists (P4)
			}
			res.BW = bw
		}
	}
	if wantFW {
		switch {
		case posSlots != nil:
			// Duplicate-tolerant fill: one pass rebases each position's
			// local slot through its partition's map and writes its rid's
			// entry. Duplicates of a rid all land on the same merged group
			// (same key), so every write stores the same value and the
			// result is identical to the one-partition forward array.
			for _, r := range ranges {
				sm := slotMaps[r.Part]
				for pos := r.Lo; pos < r.Hi; pos++ {
					fw.set(inRids[pos], sm[posSlots[pos]])
				}
			}
		case merge:
			// Rebase partition-local slots to global slots, in parallel:
			// each partition revisits exactly the rids it wrote.
			opts.Pool.RunSplit(ranges, func(part, lo, hi int) {
				if inRids == nil {
					lineage.SlotRebase(fw.dense, lo, hi, slotMaps[part])
				} else {
					fw.sparse.RebaseRids(inRids[lo:hi], slotMaps[part])
				}
			})
		}
		res.FW, res.FWSparse = fw.dense, fw.sparse
		if opts.Compress {
			switch ix := lineage.EncodeForward(res.ForwardIndex()); ix.Kind {
			case lineage.EncodedOne:
				res.FW, res.FWEnc = nil, ix.EncArr
			case lineage.SparseOne:
				res.FW, res.FWSparse = nil, ix.Sparse
			}
		}
	}
	return res, nil
}

// deferPass is the partition-local Zγ pass (§3.2.3) over rows [lo, hi) of
// the kernel's range: rescan it, reuse the pinned hash table to recover each
// record's group, and fill backward indexes preallocated exactly from the
// local counts, so Defer keeps its no-growth property per morsel. Forward
// entries go to posSlots when it is non-nil, else to fw.
func (st *aggState) deferPass(inRids []Rid, lo, hi int, wantBW bool, fw fwdSink, posSlots []Rid) *lineage.RidIndex {
	var bw *lineage.RidIndex
	if wantBW {
		if st.partKey != nil {
			st.partMaps = make([]map[int64][]Rid, st.g.Len())
		} else {
			c32 := make([]int32, st.g.Len())
			for i, c := range st.g.Counts() {
				c32[i] = int32(c)
			}
			bw = lineage.NewRidIndexWithCounts(c32)
		}
	}
	slots := scratch.Rids(aggBatchSize)
	cols := make([][]Rid, 1)
	forEachBatch(inRids, lo, hi, func(base int, rids []Rid) {
		sb := slots[:len(rids)]
		cols[0] = rids
		st.g.Probe(cols, sb)
		switch {
		case !wantBW:
		case st.partKey != nil:
			for j, s := range sb {
				st.captureBackward(s, rids[j])
			}
		default:
			for j, s := range sb {
				if st.pdFilter == nil || st.pdFilter(rids[j]) {
					bw.AppendFast(int(s), rids[j])
				}
			}
		}
		if posSlots != nil {
			copy(posSlots[base:], sb)
		} else {
			fw.setBatch(rids, sb)
		}
	})
	scratch.PutRids(slots)
	return bw
}

// fwdSink is the forward array an aggregation kernel writes group slots
// into: dense and rid-addressed when the input is the whole relation, sparse
// over the present rids when it is a rid subset, or neither when forward
// lineage is not captured (writes are then no-ops).
type fwdSink struct {
	dense  []Rid
	sparse *lineage.SparseArr
}

func (f fwdSink) set(rid, slot Rid) {
	if f.dense != nil {
		f.dense[rid] = slot
	} else if f.sparse != nil {
		f.sparse.Set(rid, slot)
	}
}

// setBatch is set over a resolved batch, with the form switch hoisted out of
// the row loop.
func (f fwdSink) setBatch(rids, slots []Rid) {
	if fw := f.dense; fw != nil {
		for j, s := range slots {
			fw[rids[j]] = s
		}
	} else if sp := f.sparse; sp != nil {
		for j, s := range slots {
			sp.Set(rids[j], s)
		}
	}
}
