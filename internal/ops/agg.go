package ops

import (
	"encoding/binary"
	"fmt"
	"math"

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

// AggSpec is one aggregate in the SELECT list.
type AggSpec struct {
	Fn   AggFn
	Arg  expr.Expr // nil for COUNT(*)
	Name string    // output column name; defaults to fn_<i>
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
	// re-encoding. The result's BWEnc/FWEnc replace BW/FW; queries read them
	// in place. A sparse forward array (FWSparse) is already compact and is
	// kept as is; PartitionBy (data-skipping) indexes are not compressed.
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
	// FWEnc replaces FW when AggOpts.Compress encoded the forward array
	// (the encoder adaptively keeps FW raw when runs don't pay off).
	FWEnc *lineage.EncodedArr
	// FWSparse replaces FW when the input is a rid subset: nothing on that
	// path allocates or fills an array of one entry per relation row.
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

// aggAcc accumulates one aggregate across groups (structure-of-arrays:
// slot-indexed slices).
type aggAcc struct {
	fn   AggFn
	num  expr.NumFn
	argI expr.IntFn // CountDistinct over ints
	argS expr.StrFn // CountDistinct over strings

	sums []float64
	mins []float64
	maxs []float64
	// COUNT(DISTINCT) state: the overwhelmingly common case in profiling
	// workloads is one distinct value per group (the FD holds), so the first
	// value is kept inline and the set is allocated lazily on the first
	// disagreement.
	firstI []int64
	firstS []string
	seen   []bool
	setsI  []map[int64]struct{}
	setsS  []map[string]struct{}
}

func (a *aggAcc) addGroup() {
	switch a.fn {
	case Sum, Avg:
		a.sums = append(a.sums, 0)
	case Min:
		a.mins = append(a.mins, math.Inf(1))
	case Max:
		a.maxs = append(a.maxs, math.Inf(-1))
	case CountDistinct:
		a.seen = append(a.seen, false)
		if a.argI != nil {
			a.firstI = append(a.firstI, 0)
			a.setsI = append(a.setsI, nil)
		} else {
			a.firstS = append(a.firstS, "")
			a.setsS = append(a.setsS, nil)
		}
	}
}

func (a *aggAcc) update(slot int32, rid Rid) {
	switch a.fn {
	case Count:
		// counts are tracked once for all aggregates
	case Sum, Avg:
		a.sums[slot] += a.num(rid)
	case Min:
		if v := a.num(rid); v < a.mins[slot] {
			a.mins[slot] = v
		}
	case Max:
		if v := a.num(rid); v > a.maxs[slot] {
			a.maxs[slot] = v
		}
	case CountDistinct:
		if a.argI != nil {
			a.addDistinctI(slot, a.argI(rid))
		} else {
			a.addDistinctS(slot, a.argS(rid))
		}
	}
}

// updateBatch is update over a resolved batch with the function switch
// hoisted out of the row loop (rows still fold in input order).
func (a *aggAcc) updateBatch(slots []int32, rids []Rid) {
	switch a.fn {
	case Count:
		// counts are tracked once for all aggregates
	case Sum, Avg:
		sums := a.sums
		for j, s := range slots {
			sums[s] += a.num(rids[j])
		}
	case Min:
		mins := a.mins
		for j, s := range slots {
			if v := a.num(rids[j]); v < mins[s] {
				mins[s] = v
			}
		}
	case Max:
		maxs := a.maxs
		for j, s := range slots {
			if v := a.num(rids[j]); v > maxs[s] {
				maxs[s] = v
			}
		}
	case CountDistinct:
		if a.argI != nil {
			for j, s := range slots {
				a.addDistinctI(s, a.argI(rids[j]))
			}
		} else {
			for j, s := range slots {
				a.addDistinctS(s, a.argS(rids[j]))
			}
		}
	}
}

// addDistinctI folds one int value into slot's COUNT(DISTINCT) state (same
// policy as update: first value inline, set allocated on disagreement).
func (a *aggAcc) addDistinctI(slot int32, v int64) {
	if !a.seen[slot] {
		a.seen[slot] = true
		a.firstI[slot] = v
		return
	}
	if s := a.setsI[slot]; s != nil {
		s[v] = struct{}{}
		return
	}
	if v != a.firstI[slot] {
		a.setsI[slot] = map[int64]struct{}{a.firstI[slot]: {}, v: {}}
	}
}

// addDistinctS is addDistinctI for string arguments.
func (a *aggAcc) addDistinctS(slot int32, v string) {
	if !a.seen[slot] {
		a.seen[slot] = true
		a.firstS[slot] = v
		return
	}
	if s := a.setsS[slot]; s != nil {
		s[v] = struct{}{}
		return
	}
	if v != a.firstS[slot] {
		a.setsS[slot] = map[string]struct{}{a.firstS[slot]: {}, v: {}}
	}
}

// mergeFrom folds partition-local slot s of o into global slot g. All
// supported aggregates are algebraic or distributive, so the merge is exact;
// float sums accumulate per partition first, which can differ from serial in
// the last ulp (addition order), never in lineage.
func (a *aggAcc) mergeFrom(g int32, o *aggAcc, s int32) {
	switch a.fn {
	case Count:
		// counts are tracked once for all aggregates
	case Sum, Avg:
		a.sums[g] += o.sums[s]
	case Min:
		if o.mins[s] < a.mins[g] {
			a.mins[g] = o.mins[s]
		}
	case Max:
		if o.maxs[s] > a.maxs[g] {
			a.maxs[g] = o.maxs[s]
		}
	case CountDistinct:
		if !o.seen[s] {
			return
		}
		if a.argI != nil {
			if set := o.setsI[s]; set != nil {
				for v := range set {
					a.addDistinctI(g, v)
				}
			} else {
				a.addDistinctI(g, o.firstI[s])
			}
		} else {
			if set := o.setsS[s]; set != nil {
				for v := range set {
					a.addDistinctS(g, v)
				}
			} else {
				a.addDistinctS(g, o.firstS[s])
			}
		}
	}
}

// outType is the storage type of the aggregate's output column.
func (a *aggAcc) outType() storage.Type {
	switch a.fn {
	case Count, CountDistinct:
		return storage.TInt
	default:
		return storage.TFloat
	}
}

type keyKind uint8

const (
	keyInt keyKind = iota // single TInt column: the value is the hash key
	keyStr                // single TString column
	keyComposite
)

// aggState carries the group-by hash table and all per-group state.
type aggState struct {
	in   *storage.Relation
	mode CaptureMode
	dirs Directions

	kind    keyKind
	intCol  []int64
	strCol  []string
	keyCols []int // composite: column indexes
	buf     []byte

	ht    *hashtab.Map
	strHT map[string]int32

	nGroups     int32
	repRids     []Rid
	counts      []int64
	accs        []aggAcc
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
	if len(spec.Keys) == 0 {
		return nil, fmt.Errorf("ops: group-by needs at least one key column")
	}
	st := &aggState{in: in, mode: opts.Mode, dirs: opts.Dirs, countsByKey: opts.CountsByKey}
	for _, k := range spec.Keys {
		c := in.Schema.Col(k)
		if c < 0 {
			return nil, fmt.Errorf("ops: unknown group-by column %q in %s", k, in.Name)
		}
		st.keyCols = append(st.keyCols, c)
	}
	if len(spec.Keys) == 1 {
		c := st.keyCols[0]
		switch in.Schema[c].Type {
		case storage.TInt:
			st.kind = keyInt
			st.intCol = in.Cols[c].Ints
			st.ht = hashtab.New(64)
		case storage.TString:
			st.kind = keyStr
			st.strCol = in.Cols[c].Strs
			st.strHT = make(map[string]int32, 64)
		default:
			st.kind = keyComposite
			st.strHT = make(map[string]int32, 64)
		}
	} else {
		st.kind = keyComposite
		st.strHT = make(map[string]int32, 64)
	}
	for _, a := range spec.Aggs {
		acc := aggAcc{fn: a.Fn}
		switch a.Fn {
		case Count:
		case CountDistinct:
			if a.Arg == nil {
				return nil, fmt.Errorf("ops: COUNT(DISTINCT) needs an argument")
			}
			t, err := expr.TypeOf(a.Arg, in.Schema, opts.Params)
			if err != nil {
				return nil, err
			}
			if t == storage.TString {
				f, err := expr.CompileStr(a.Arg, in, opts.Params)
				if err != nil {
					return nil, err
				}
				acc.argS = f
			} else {
				f, err := expr.CompileInt(a.Arg, in, opts.Params)
				if err != nil {
					// Float distinct args are rare; compile via NumFn and
					// bit-cast to int64 for set membership.
					nf, nerr := expr.CompileNum(a.Arg, in, opts.Params)
					if nerr != nil {
						return nil, err
					}
					acc.argI = func(rid int32) int64 { return int64(math.Float64bits(nf(rid))) }
				} else {
					acc.argI = f
				}
			}
		default:
			if a.Arg == nil {
				return nil, fmt.Errorf("ops: %s needs an argument", a.Fn)
			}
			f, err := expr.CompileNum(a.Arg, in, opts.Params)
			if err != nil {
				return nil, err
			}
			acc.num = f
		}
		st.accs = append(st.accs, acc)
	}
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
	st.observe = opts.Observe
	return st, nil
}

// partitionKeyFn compiles the data-skipping partition key: single TInt
// attributes key directly by value; everything else interns the (composite)
// value through a dictionary.
func partitionKeyFn(in *storage.Relation, attrs []string) (func(Rid) int64, *lineage.Dict, error) {
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		c := in.Schema.Col(a)
		if c < 0 {
			return nil, nil, fmt.Errorf("ops: unknown partition attribute %q", a)
		}
		cols[i] = c
	}
	if len(cols) == 1 && in.Schema[cols[0]].Type == storage.TInt {
		col := in.Cols[cols[0]].Ints
		return func(rid Rid) int64 { return col[rid] }, nil, nil
	}
	if len(cols) == 1 && in.Schema[cols[0]].Type == storage.TString {
		col := in.Cols[cols[0]].Strs
		dict := lineage.NewDict()
		return func(rid Rid) int64 { return dict.Code(col[rid]) }, dict, nil
	}
	dict := lineage.NewDict()
	var buf []byte
	return func(rid Rid) int64 {
		buf = buf[:0]
		for _, c := range cols {
			switch in.Schema[c].Type {
			case storage.TInt:
				var tmp [8]byte
				binary.LittleEndian.PutUint64(tmp[:], uint64(in.Cols[c].Ints[rid]))
				buf = append(buf, tmp[:]...)
			case storage.TFloat:
				var tmp [8]byte
				binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(in.Cols[c].Floats[rid]))
				buf = append(buf, tmp[:]...)
			case storage.TString:
				buf = append(buf, in.Cols[c].Strs[rid]...)
				buf = append(buf, 0)
			}
		}
		return dict.Code(string(buf))
	}, dict, nil
}

// PartitionKey recomputes the partition code of an attribute-value
// combination so consuming queries can address the right partition. Values
// must be given in PartitionBy order, one per attribute; they are encoded
// exactly as partitionKeyFn encodes column values at capture time.
func PartitionKey(res *AggResult, in *storage.Relation, attrs []string, vals []any) (int64, bool) {
	if len(vals) != len(attrs) {
		return 0, false
	}
	dict := res.BWPart.Dict()
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
		switch t {
		case storage.TInt:
			iv, ok := intValue(vals[i])
			if !ok {
				return 0, false
			}
			buf = binary.LittleEndian.AppendUint64(buf, uint64(iv))
		case storage.TFloat:
			fv, ok := floatValue(vals[i])
			if !ok {
				return 0, false
			}
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(fv))
		case storage.TString:
			s, ok := vals[i].(string)
			if !ok {
				return 0, false
			}
			buf = append(buf, s...)
			buf = append(buf, 0)
		}
	}
	return dict.Lookup(string(buf))
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

// encodeComposite serializes the key columns of rid into st.buf.
func (st *aggState) encodeComposite(rid Rid) {
	st.buf = st.buf[:0]
	for _, c := range st.keyCols {
		switch st.in.Schema[c].Type {
		case storage.TInt:
			var tmp [8]byte
			binary.LittleEndian.PutUint64(tmp[:], uint64(st.in.Cols[c].Ints[rid]))
			st.buf = append(st.buf, tmp[:]...)
		case storage.TFloat:
			var tmp [8]byte
			binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(st.in.Cols[c].Floats[rid]))
			st.buf = append(st.buf, tmp[:]...)
		case storage.TString:
			st.buf = append(st.buf, st.in.Cols[c].Strs[rid]...)
			st.buf = append(st.buf, 0)
		}
	}
}

// lookupSlot returns the group slot of rid, inserting a new group if needed.
func (st *aggState) lookupSlot(rid Rid) int32 {
	switch st.kind {
	case keyInt:
		k := st.intCol[rid]
		slot, inserted := st.ht.GetOrPut(k, st.nGroups)
		if inserted {
			st.newGroup(rid, k)
		}
		return slot
	case keyStr:
		k := st.strCol[rid]
		if slot, ok := st.strHT[k]; ok {
			return slot
		}
		slot := st.nGroups
		st.strHT[k] = slot
		st.newGroup(rid, 0)
		return slot
	default:
		st.encodeComposite(rid)
		if slot, ok := st.strHT[string(st.buf)]; ok {
			return slot
		}
		slot := st.nGroups
		st.strHT[string(st.buf)] = slot
		st.newGroup(rid, 0)
		return slot
	}
}

// probeSlot returns the existing slot of rid (Defer's second pass); the group
// must exist.
func (st *aggState) probeSlot(rid Rid) int32 {
	switch st.kind {
	case keyInt:
		slot, _ := st.ht.Get(st.intCol[rid])
		return slot
	case keyStr:
		return st.strHT[st.strCol[rid]]
	default:
		st.encodeComposite(rid)
		return st.strHT[string(st.buf)]
	}
}

func (st *aggState) newGroup(rid Rid, key int64) {
	st.nGroups++
	st.repRids = append(st.repRids, rid)
	st.counts = append(st.counts, 0)
	for i := range st.accs {
		st.accs[i].addGroup()
	}
	if st.mode == Inject && st.dirs.Backward() {
		if st.partKey != nil {
			st.partMaps = append(st.partMaps, nil)
			return
		}
		var l []Rid
		if st.countsByKey != nil && st.kind == keyInt && key >= 1 && int(key) <= len(st.countsByKey) {
			l = make([]Rid, 0, st.countsByKey[key-1])
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

func (st *aggState) processRow(rid Rid) int32 {
	slot := st.lookupSlot(rid)
	st.counts[slot]++
	for i := range st.accs {
		st.accs[i].update(slot, rid)
	}
	if st.observe != nil {
		st.observe(slot, rid)
	}
	if st.mode == Inject {
		if st.dirs.Backward() {
			st.captureBackward(slot, rid)
		}
		st.fw.set(rid, slot)
	}
	return slot
}

// aggBatchSize is how many rows the single-int-key path hands the hash table
// per probe call: large enough to amortize the per-batch setup, small enough
// that the key/slot scratch stays cache-resident.
const aggBatchSize = 512

// processRows drives the aggregation kernel over a rid stream — inRids[lo:hi]
// when inRids is non-nil, else the dense range [lo, hi). The single-int-key
// shape runs batched: keys gather into pooled scratch, the hash table
// resolves a whole batch of slots per call (hashing amortized, probes
// bounds-check-free), and the per-aggregate switch hoists out of the row
// loop. Every per-(slot, rid) effect happens in row order, so group discovery
// order, backward list order, and forward entries are identical to the
// row-at-a-time kernel. posSlots, when non-nil, records each input
// position's slot (the duplicate-rid parallel path). Other key kinds — and
// the order-sensitive Observe hook — run the row-at-a-time kernel.
func (st *aggState) processRows(inRids []Rid, lo, hi int, posSlots []Rid) {
	if st.kind != keyInt || st.observe != nil {
		switch {
		case inRids == nil:
			for rid := int32(lo); rid < int32(hi); rid++ {
				st.processRow(rid)
			}
		case posSlots != nil:
			for i, rid := range inRids[lo:hi] {
				posSlots[lo+i] = st.processRow(rid)
			}
		default:
			for _, rid := range inRids[lo:hi] {
				st.processRow(rid)
			}
		}
		return
	}
	keys := scratch.Ints(aggBatchSize)
	slots := scratch.Rids(aggBatchSize)
	ridBuf := scratch.Rids(aggBatchSize)
	col := st.intCol
	for base := lo; base < hi; base += aggBatchSize {
		end := base + aggBatchSize
		if end > hi {
			end = hi
		}
		m := end - base
		rb := ridBuf[:m]
		if inRids == nil {
			for j := range rb {
				rb[j] = Rid(base + j)
			}
		} else {
			copy(rb, inRids[base:end])
		}
		kb, sb := keys[:m], slots[:m]
		for j, r := range rb {
			kb[j] = col[r]
		}
		st.ht.GetOrPutBatch(kb, sb, func(j int, key int64) int32 {
			slot := st.nGroups
			st.newGroup(rb[j], key)
			return slot
		})
		st.accumulateBatch(sb, rb)
		if posSlots != nil {
			copy(posSlots[base:end], sb)
		}
	}
	scratch.PutInts(keys)
	scratch.PutRids(slots)
	scratch.PutRids(ridBuf)
}

// accumulateBatch applies one resolved batch to the per-group state. The
// loops are per-effect rather than per-row, but each effect still sees rows
// in input order, which is all any of them depends on.
func (st *aggState) accumulateBatch(slots []int32, rids []Rid) {
	counts := st.counts
	for _, s := range slots {
		counts[s]++
	}
	for i := range st.accs {
		st.accs[i].updateBatch(slots, rids)
	}
	if st.mode == Inject {
		if st.dirs.Backward() {
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
}

// deferFillBatched is the batched Zγ second pass for the plain single-int-key
// shape (no partitioning, no push-down filter): slots resolve through the
// batched read-only probe, then the exactly-sized indexes fill in row order.
func (st *aggState) deferFillBatched(inRids []Rid, lo, hi int, bw *lineage.RidIndex, fw fwdSink, posSlots []Rid) {
	keys := scratch.Ints(aggBatchSize)
	slots := scratch.Rids(aggBatchSize)
	ridBuf := scratch.Rids(aggBatchSize)
	col := st.intCol
	for base := lo; base < hi; base += aggBatchSize {
		end := base + aggBatchSize
		if end > hi {
			end = hi
		}
		m := end - base
		rb := ridBuf[:m]
		if inRids == nil {
			for j := range rb {
				rb[j] = Rid(base + j)
			}
		} else {
			copy(rb, inRids[base:end])
		}
		kb, sb := keys[:m], slots[:m]
		for j, r := range rb {
			kb[j] = col[r]
		}
		st.ht.GetBatch(kb, sb)
		if bw != nil {
			for j, s := range sb {
				bw.AppendFast(int(s), rb[j])
			}
		}
		if posSlots != nil {
			copy(posSlots[base:end], sb)
		} else {
			fw.setBatch(rb, sb)
		}
	}
	scratch.PutInts(keys)
	scratch.PutRids(slots)
	scratch.PutRids(ridBuf)
}

// deferFillable reports whether deferFillBatched covers the state's options.
func (st *aggState) deferFillable() bool {
	return st.kind == keyInt && st.partKey == nil && st.pdFilter == nil
}

// Hash aggregation runs the paper-style two-phase plan, and Workers <= 1 is
// its one-partition case. Phase 1 splits the input into contiguous row-range
// partitions; each worker runs the aggregation kernel (aggState.processRows)
// against its own hash table and appends rids into its own partition-local
// lists — no shared-state writes in the hot loop beyond rid-disjoint
// forward-array slots. Phase 2 merges the
// partition tables in partition order: because a group's first global
// occurrence lies in the first partition that contains it, the merged group
// discovery order — and therefore the output relation, the group counts, and
// every backward rid list — is element-for-element identical for every
// partition count. One partition's state already is the result, so it skips
// phase 2.

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
	// several merge in partition order through per-partition slot maps
	// (local group slot → global slot). The merged state carries no capture
	// options — indexes are stitched from the locals.
	final := sts[0]
	var slotMaps [][]Rid
	if merge {
		var err error
		if final, err = newAggState(in, spec, AggOpts{Params: opts.Params}); err != nil {
			return AggResult{}, err
		}
		slotMaps = make([][]Rid, len(sts))
		for p, st := range sts {
			sm := make([]Rid, st.nGroups)
			for s := int32(0); s < st.nGroups; s++ {
				g := final.lookupSlot(st.repRids[s])
				sm[s] = g
				final.counts[g] += st.counts[s]
				for i := range final.accs {
					final.accs[i].mergeFrom(g, &st.accs[i], s)
				}
			}
			slotMaps[p] = sm
		}
	}
	nG := int(final.nGroups)

	res := AggResult{Out: final.materialize(spec), GroupCounts: final.counts}
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
			for slot, l := range final.groupRids {
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
		if opts.Compress && res.FW != nil {
			if e := lineage.EncodeArr(res.FW); e != nil {
				res.FWEnc, res.FW = e, nil
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
			st.partMaps = make([]map[int64][]Rid, st.nGroups)
		} else {
			c32 := make([]int32, st.nGroups)
			for i, c := range st.counts {
				c32[i] = int32(c)
			}
			bw = lineage.NewRidIndexWithCounts(c32)
		}
	}
	if st.deferFillable() {
		st.deferFillBatched(inRids, lo, hi, bw, fw, posSlots)
		return bw
	}
	fill := func(pos int, rid Rid) {
		slot := st.probeSlot(rid)
		if wantBW && (st.pdFilter == nil || st.pdFilter(rid)) {
			if st.partKey != nil {
				st.captureBackward(slot, rid)
			} else {
				bw.AppendFast(int(slot), rid)
			}
		}
		if posSlots != nil {
			posSlots[pos] = slot
		} else {
			fw.set(rid, slot)
		}
	}
	if inRids == nil {
		for rid := int32(lo); rid < int32(hi); rid++ {
			fill(-1, rid)
		}
	} else {
		for i, rid := range inRids[lo:hi] {
			fill(lo+i, rid)
		}
	}
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

// materialize builds the output relation: group-by keys (gathered via each
// group's representative rid) followed by aggregate columns.
func (st *aggState) materialize(spec GroupBySpec) *storage.Relation {
	g := int(st.nGroups)
	schema := make(storage.Schema, 0, len(spec.Keys)+len(spec.Aggs))
	for _, k := range spec.Keys {
		c := st.in.Schema.MustCol(k)
		schema = append(schema, storage.Field{Name: k, Type: st.in.Schema[c].Type})
	}
	for i, a := range spec.Aggs {
		name := a.Name
		if name == "" {
			name = fmt.Sprintf("%s_%d", a.Fn, i)
		}
		schema = append(schema, storage.Field{Name: name, Type: st.accs[i].outType()})
	}
	out := storage.NewRelation("groupby", schema, g)
	for ki, k := range spec.Keys {
		c := st.in.Schema.MustCol(k)
		switch st.in.Schema[c].Type {
		case storage.TInt:
			src := st.in.Cols[c].Ints
			dst := out.Cols[ki].Ints
			for slot, rep := range st.repRids {
				dst[slot] = src[rep]
			}
		case storage.TFloat:
			src := st.in.Cols[c].Floats
			dst := out.Cols[ki].Floats
			for slot, rep := range st.repRids {
				dst[slot] = src[rep]
			}
		case storage.TString:
			src := st.in.Cols[c].Strs
			dst := out.Cols[ki].Strs
			for slot, rep := range st.repRids {
				dst[slot] = src[rep]
			}
		}
	}
	for i := range st.accs {
		acc := &st.accs[i]
		col := len(spec.Keys) + i
		switch acc.fn {
		case Count:
			dst := out.Cols[col].Ints
			copy(dst, st.counts)
		case CountDistinct:
			dst := out.Cols[col].Ints
			for slot := 0; slot < g; slot++ {
				switch {
				case acc.argI != nil && acc.setsI[slot] != nil:
					dst[slot] = int64(len(acc.setsI[slot]))
				case acc.argI == nil && acc.setsS[slot] != nil:
					dst[slot] = int64(len(acc.setsS[slot]))
				case acc.seen[slot]:
					dst[slot] = 1
				default:
					dst[slot] = 0
				}
			}
		case Sum:
			copy(out.Cols[col].Floats, acc.sums)
		case Avg:
			dst := out.Cols[col].Floats
			for slot := 0; slot < g; slot++ {
				dst[slot] = acc.sums[slot] / float64(st.counts[slot])
			}
		case Min:
			copy(out.Cols[col].Floats, acc.mins)
		case Max:
			copy(out.Cols[col].Floats, acc.maxs)
		}
	}
	return out
}
