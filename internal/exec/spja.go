// Package exec executes multi-operator plans with end-to-end lineage
// capture. Its centerpiece is the fused SPJA block executor (§3.3):
// selections and projections pipeline into scans, left-deep pk-fk join chains
// annotate their hash tables with base-relation rid chains, and the final
// aggregation emits a single set of lineage indexes connecting the query
// output directly to every base relation — no intermediate lineage is
// materialized (the propagation technique). RunPlan (plan.go) is the
// physical lowering of the logical plan layer (internal/plan): the
// optimizer's fusion rule decides which subtrees run on this block executor,
// and the non-fusible residue runs operator-at-a-time with index
// composition.
//
// The block executor owns the join chain and the capture; the group state
// does not live here. The final pipeline hands its joined rows, as
// column-major batches of base-rid chains, to ops.GroupState — the same
// group-by state ops.HashAgg folds into — and writes per-table lineage from
// the group slots it resolves. The executor is morsel-parallel (Run): join
// chains build serially, then the final pipeline runs over contiguous
// row-range partitions of the last table's scan, each with its own group
// state and partition-local lineage, merged in partition order
// (ops.MergeGroups) into a result identical for every partition count.
// Workers <= 1 in Opts is one partition of the same driver, which skips the
// merge.
package exec

import (
	"fmt"

	"smoke/internal/expr"
	"smoke/internal/hashtab"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/pool"
	"smoke/internal/storage"
)

// TableRef is one base relation in an SPJA block with an optional pipelined
// filter.
type TableRef struct {
	Rel    *storage.Relation
	Filter expr.Expr
}

// JoinEdge joins the already-built prefix (tables 0..j) with table j+1:
// prefix-side key LeftTable.LeftCol equals table j+1's RightCol. All
// evaluation-path joins are pk-fk with the key unique on the prefix side, but
// the executor tolerates duplicates.
type JoinEdge struct {
	LeftTable int
	LeftCol   string
	RightCol  string
}

// KeyRef is a group-by key column qualified by its table index.
type KeyRef = ops.KeyRef

// AggRef is one aggregate of the final aggregation: Table indexes
// Spec.Tables, and Arg and the optional Filter are evaluated against that
// table's rows.
type AggRef = ops.AggSpec

// Spec is a select-project-join-aggregate block.
type Spec struct {
	Tables []TableRef
	Joins  []JoinEdge
	Keys   []KeyRef
	Aggs   []AggRef
}

// Opts configures SPJA instrumentation.
type Opts struct {
	Mode ops.CaptureMode
	Dirs ops.Directions
	// TableDirs overrides Dirs per table index (input-relation and direction
	// pruning, §4.1); a zero Directions entry disables capture for that table.
	TableDirs []ops.Directions
	// Params binds expression parameters in filters and aggregates.
	Params expr.Params
	// Workers bounds the partition count of the final pipeline: the join
	// chain builds serially (its hash tables are then probed read-only), the
	// last table's scan splits into contiguous partitions each feeding a
	// partition-local aggregation with partition-local capture, and the
	// merge (see Run) reproduces the one-partition output and lineage
	// exactly. Workers <= 1 is one partition of the same driver.
	Workers int
	// Pool schedules the partition kernels; nil runs them inline.
	Pool *pool.Pool
	// Compress encodes the captured indexes into their adaptive compressed
	// forms after capture (one partition: the whole capture encodes post-run;
	// several: each partition encodes its local backward lists and the merge
	// concatenates encoded lists without re-encoding). Backward/Forward and
	// consuming queries read the encoded indexes in place.
	Compress bool
}

func (o Opts) dirsFor(t int) ops.Directions {
	if o.Mode == ops.None {
		return 0
	}
	if o.TableDirs != nil {
		return o.TableDirs[t]
	}
	return o.Dirs
}

// Result is the output of an SPJA block: the aggregated relation plus the
// end-to-end capture (backward and forward indexes per base relation).
type Result struct {
	Out         *storage.Relation
	Capture     *lineage.Capture
	GroupCounts []int64
}

// chainLevel holds the lineage-annotated hash table of one pipeline breaker:
// every entry maps a join-key value to the chains (tuples of base rids) that
// carry it. Chains are stored column-major: rids[t][c] is the rid of table t
// in chain c. Duplicate keys form linked lists through next.
type chainLevel struct {
	ht     *hashtab.Map // key -> head chain index
	next   []int32      // chain index -> next chain with same key (-1 ends)
	rids   [][]lineage.Rid
	tables []int // which table indexes the chains cover
}

func newChainLevel(tables []int, capacityHint int) *chainLevel {
	l := &chainLevel{ht: hashtab.New(capacityHint), tables: tables}
	l.rids = make([][]lineage.Rid, len(tables))
	return l
}

func (l *chainLevel) addChain(key int64, chain []lineage.Rid) {
	idx := int32(len(l.next))
	for t := range l.rids {
		l.rids[t] = append(l.rids[t], chain[t])
	}
	head, inserted := l.ht.GetOrPut(key, idx)
	if inserted {
		l.next = append(l.next, -1)
	} else {
		// Prepend to the duplicate list.
		l.next = append(l.next, head)
		l.ht.Put(key, idx)
	}
}

// pipeline is a compiled SPJA block: filters, join key columns, and (after
// buildChains) the lineage-annotated hash-table chain covering all tables but
// the last.
type pipeline struct {
	spec         Spec
	filters      []expr.Pred
	leftKeyCols  [][]int64
	rightKeyCols [][]int64
	level        *chainLevel
}

// compilePipeline validates the spec and compiles filters and join keys.
func compilePipeline(spec Spec, params expr.Params) (*pipeline, error) {
	k := len(spec.Tables)
	if k == 0 {
		return nil, fmt.Errorf("exec: SPJA block needs at least one table")
	}
	if len(spec.Joins) != k-1 {
		return nil, fmt.Errorf("exec: %d tables need %d join edges, got %d", k, k-1, len(spec.Joins))
	}
	if len(spec.Keys) == 0 {
		return nil, fmt.Errorf("exec: SPJA block needs group-by keys")
	}
	p := &pipeline{spec: spec}
	p.filters = make([]expr.Pred, k)
	for i, tr := range spec.Tables {
		if tr.Filter != nil {
			f, err := expr.CompilePred(tr.Filter, tr.Rel, params)
			if err != nil {
				return nil, fmt.Errorf("exec: table %d filter: %w", i, err)
			}
			p.filters[i] = f
		}
	}
	p.leftKeyCols = make([][]int64, k-1)
	p.rightKeyCols = make([][]int64, k-1)
	for j, je := range spec.Joins {
		if je.LeftTable < 0 || je.LeftTable > j {
			return nil, fmt.Errorf("exec: join %d references table %d outside prefix", j, je.LeftTable)
		}
		lrel := spec.Tables[je.LeftTable].Rel
		c := lrel.Schema.Col(je.LeftCol)
		if c < 0 || lrel.Schema[c].Type != storage.TInt {
			return nil, fmt.Errorf("exec: join %d left key %s.%s missing or non-int", j, lrel.Name, je.LeftCol)
		}
		p.leftKeyCols[j] = lrel.Cols[c].Ints
		rrel := spec.Tables[j+1].Rel
		c = rrel.Schema.Col(je.RightCol)
		if c < 0 || rrel.Schema[c].Type != storage.TInt {
			return nil, fmt.Errorf("exec: join %d right key %s.%s missing or non-int", j, rrel.Name, je.RightCol)
		}
		p.rightKeyCols[j] = rrel.Cols[c].Ints
	}
	return p, nil
}

// buildChains runs pipelines P0..Pk-2: each scans one table with its filter
// inlined and builds the next lineage-annotated hash table.
func (p *pipeline) buildChains() {
	k := len(p.spec.Tables)
	if k == 1 {
		return
	}
	rel0 := p.spec.Tables[0].Rel
	p.level = newChainLevel([]int{0}, rel0.N)
	key0 := p.leftKeyCols[0]
	chain := make([]lineage.Rid, 1)
	for rid := int32(0); rid < int32(rel0.N); rid++ {
		if p.filters[0] != nil && !p.filters[0](rid) {
			continue
		}
		chain[0] = rid
		p.level.addChain(key0[rid], chain)
	}
	for j := 1; j <= k-2; j++ {
		rel := p.spec.Tables[j].Rel
		prev := p.level
		tables := append(append([]int(nil), prev.tables...), j)
		next := newChainLevel(tables, len(prev.next))
		probeKey := p.rightKeyCols[j-1]
		ltPos := -1
		for pos, t := range tables {
			if t == p.spec.Joins[j].LeftTable {
				ltPos = pos
			}
		}
		nextKey := p.leftKeyCols[j]
		buf := make([]lineage.Rid, len(tables))
		for rid := int32(0); rid < int32(rel.N); rid++ {
			if p.filters[j] != nil && !p.filters[j](rid) {
				continue
			}
			head, ok := prev.ht.Get(probeKey[rid])
			if !ok {
				continue
			}
			for c := head; c >= 0; c = prev.next[c] {
				for pos := range prev.tables {
					buf[pos] = prev.rids[pos][c]
				}
				buf[len(tables)-1] = rid
				next.addChain(nextKey[buf[ltPos]], buf)
			}
		}
		p.level = next
	}
}

// batchRows bounds the joined rows the final pipeline hands the group state
// per batch.
const batchRows = 512

// forEachBatch is the final-pipeline range kernel: scan rids [lo, hi) of the
// last table with its filter inlined, probe the (read-only) chain, and hand
// the joined rows to visit in column-major batches of at most batchRows
// rows, in scan order: cols[t][j] is the base rid of table t in row j.
// Concurrent calls over disjoint ranges are safe — the kernel only reads
// shared state and each call owns its batch buffers.
func (p *pipeline) forEachBatch(lo, hi int, visit func(cols [][]lineage.Rid)) {
	k := len(p.spec.Tables)
	last := k - 1
	cols := make([][]lineage.Rid, k)
	for t := range cols {
		cols[t] = make([]lineage.Rid, 0, batchRows)
	}
	emit := func() {
		visit(cols)
		for t := range cols {
			cols[t] = cols[t][:0]
		}
	}
	filter := p.filters[last]
	for rid := int32(lo); rid < int32(hi); rid++ {
		if filter != nil && !filter(rid) {
			continue
		}
		if k == 1 {
			if cols[0] = append(cols[0], rid); len(cols[0]) == batchRows {
				emit()
			}
			continue
		}
		head, ok := p.level.ht.Get(p.rightKeyCols[last-1][rid])
		if !ok {
			continue
		}
		for c := head; c >= 0; c = p.level.next[c] {
			for pos, t := range p.level.tables {
				cols[t] = append(cols[t], p.level.rids[pos][c])
			}
			if cols[last] = append(cols[last], rid); len(cols[last]) == batchRows {
				emit()
			}
		}
	}
	if len(cols[last]) > 0 {
		emit()
	}
}

// newGroups builds one group state of the block's final aggregation.
func (p *pipeline) newGroups(params expr.Params) (*ops.GroupState, error) {
	rels := make([]*storage.Relation, len(p.spec.Tables))
	for t, tr := range p.spec.Tables {
		rels[t] = tr.Rel
	}
	return ops.NewGroupState(rels, p.spec.Keys, p.spec.Aggs, params)
}

// Run executes the SPJA block. The join chain builds serially (its
// lineage-annotated hash tables are then shared read-only); the last table's
// scan — the paper's final pipeline, where both the aggregation work and the
// capture writes happen — splits into up to opts.Workers contiguous rid-range
// partitions. Each folds its joined rows into its own ops.GroupState and
// writes its own per-table capture from the resolved group slots. The group
// states merge in partition order (ops.MergeGroups), and per-table rid
// lists and forward indexes are stitched through the resulting slot maps,
// which reproduces the one-partition output relation and every lineage index
// exactly. One partition's aggregation already is the result, so it skips
// the merge.
func Run(spec Spec, opts Opts) (Result, error) {
	pipe, err := compilePipeline(spec, opts.Params)
	if err != nil {
		return Result{}, err
	}
	pipe.buildChains()

	k := len(spec.Tables)
	last := k - 1
	n := spec.Tables[last].Rel.N
	ranges := pool.Split(n, opts.Workers)
	merge := len(ranges) > 1

	// The last table's forward index is rid-addressed and partitions own
	// disjoint rid ranges, so all partitions share one array (writing
	// partition-local group slots, rebased after a merge).
	var fwLast []lineage.Rid
	if opts.dirsFor(last).Forward() {
		fwLast = make([]lineage.Rid, n)
		for i := range fwLast {
			fwLast[i] = -1
		}
	}
	locals := make([]*partAgg, len(ranges))
	groups := make([]*ops.GroupState, len(ranges))
	for p := range locals {
		if groups[p], err = pipe.newGroups(opts.Params); err != nil {
			return Result{}, err
		}
		locals[p] = newPartAgg(groups[p], spec, opts, fwLast, merge)
	}

	inject := opts.Mode == ops.Inject
	// Compressed capture with several partitions: each partition encodes its
	// local backward lists inside the worker (encBW[part][t]); the merge
	// below concatenates the encoded lists per global group without
	// re-encoding.
	encodeLocal := merge && opts.Compress && opts.Mode != ops.None
	encBW := make([][]*lineage.EncodedIndex, len(ranges))
	opts.Pool.RunSplit(ranges, func(part, lo, hi int) {
		a := locals[part]
		slots := make([]lineage.Rid, batchRows)
		pipe.forEachBatch(lo, hi, func(cols [][]lineage.Rid) {
			sb := slots[:len(cols[0])]
			a.groups.Fold(cols, sb)
			if inject {
				a.capture(cols, sb)
			}
		})
		if opts.Mode == ops.Defer {
			// Partition-local Zγ pass: rerun the range, probing the pinned
			// hash tables and the group state to recover each row's group;
			// local counts are exact for the local range, so the local
			// backward indexes preallocate exactly.
			a.prepareDefer()
			pipe.forEachBatch(lo, hi, func(cols [][]lineage.Rid) {
				sb := slots[:len(cols[0])]
				a.groups.Probe(cols, sb)
				a.capture(cols, sb)
			})
		}
		if encodeLocal {
			encBW[part] = make([]*lineage.EncodedIndex, k)
			for t := 0; t < k; t++ {
				if !a.tableDirs[t].Backward() {
					continue
				}
				if opts.Mode == ops.Defer {
					encBW[part][t] = lineage.EncodeRidIndex(a.deferBW[t])
				} else {
					encBW[part][t] = lineage.EncodeLists(a.groupRids[t])
				}
			}
		}
	})

	if !merge {
		// One partition: its aggregation and direct-form indexes are the
		// result — no slot maps, no rebase.
		a := locals[0]
		res := Result{Out: a.groups.Materialize("spja"), GroupCounts: a.groups.Counts(), Capture: lineage.NewCapture()}
		a.emit(res.Capture, spec)
		if opts.Compress {
			res.Capture.EncodeAll()
		}
		return res, nil
	}

	slotMaps := ops.MergeGroups(groups)
	final := groups[0]
	nG := final.Len()
	res := Result{Out: final.Materialize("spja"), GroupCounts: final.Counts(), Capture: lineage.NewCapture()}
	for t := 0; t < k; t++ {
		d := locals[0].tableDirs[t]
		name := spec.Tables[t].Rel.Name
		if d.Backward() {
			if opts.Compress {
				// Compression-aware merge: concatenate the partition-encoded
				// lists per global group — no re-encoding.
				parts := make([]*lineage.EncodedIndex, len(locals))
				for p := range locals {
					parts[p] = encBW[p][t]
				}
				merged := lineage.MergeEncodedBySlot(parts, slotMaps, nG)
				res.Capture.SetBackward(name, lineage.NewEncodedMany(merged))
			} else if opts.Mode == ops.Defer {
				parts := make([]*lineage.RidIndex, len(locals))
				for p, a := range locals {
					parts[p] = a.deferBW[t]
				}
				ix := lineage.MergeIndexesBySlot(parts, slotMaps, nG)
				res.Capture.SetBackward(name, lineage.NewOneToMany(ix))
			} else {
				lists := make([][][]lineage.Rid, len(locals))
				for p, a := range locals {
					lists[p] = a.groupRids[t]
				}
				ix := lineage.MergeListsBySlot(lists, slotMaps, nG)
				res.Capture.SetBackward(name, lineage.NewOneToMany(ix))
			}
		}
		if d.Forward() {
			if t == last {
				// Rebase shared last-table forward entries from local to
				// global slots, each partition covering only its rid range.
				opts.Pool.RunSplit(ranges, func(part, lo, hi int) {
					lineage.SlotRebase(fwLast, lo, hi, slotMaps[part])
				})
				fwIx := lineage.NewOneToOne(fwLast)
				if opts.Compress {
					fwIx = lineage.EncodeForward(fwIx)
				}
				res.Capture.SetForward(name, fwIx)
			} else {
				pairR := make([][]lineage.Rid, len(locals))
				pairS := make([][]lineage.Rid, len(locals))
				for p, a := range locals {
					pairR[p] = a.fwPairR[t]
					pairS[p] = a.fwPairS[t]
				}
				fw := lineage.MergePairsByRid(pairR, pairS, spec.Tables[t].Rel.N,
					func(part int, s lineage.Rid) lineage.Rid { return slotMaps[part][s] })
				if opts.Compress {
					res.Capture.SetForward(name, lineage.NewEncodedMany(lineage.EncodeRidIndex(fw)))
				} else {
					res.Capture.SetForward(name, lineage.NewOneToMany(fw))
				}
			}
		}
	}
	return res, nil
}

// partAgg is one partition of the final aggregation: its group state plus
// the block's end-to-end capture, written from the group slots the state
// resolves.
type partAgg struct {
	groups *ops.GroupState

	// capture state: per table, per group rid lists (Inject) and forward
	// indexes.
	tableDirs []ops.Directions
	groupRids [][][]lineage.Rid // [table][group][]rid
	fwLast    []lineage.Rid     // last table: one-to-one
	fwMany    []*lineage.RidIndex
	deferBW   []*lineage.RidIndex // Defer: exact-sized backward indexes
	// When partitions merge, each collects non-last forward edges as (rid,
	// local slot) pairs instead of filling fwMany — a relation-sized index
	// per partition would multiply memory by the worker count; the merge
	// builds one exactly-sized index from the pairs.
	collectFW        bool
	fwPairR, fwPairS [][]lineage.Rid // [table] parallel pair arrays
}

// newPartAgg sets up one partition's capture. fwLast is the last table's
// rid-addressed forward array, shared by every partition (their rid ranges
// are disjoint). collectFW, set when partitions will merge, collects non-last
// forward edges as pairs rather than relation-sized per-partition indexes;
// a one-partition run keeps the direct-index form.
func newPartAgg(groups *ops.GroupState, spec Spec, opts Opts, fwLast []lineage.Rid, collectFW bool) *partAgg {
	k := len(spec.Tables)
	a := &partAgg{groups: groups, fwLast: fwLast, collectFW: collectFW,
		tableDirs: make([]ops.Directions, k), groupRids: make([][][]lineage.Rid, k), fwMany: make([]*lineage.RidIndex, k)}
	for t := range a.tableDirs {
		a.tableDirs[t] = opts.dirsFor(t)
	}
	if collectFW {
		a.fwPairR = make([][]lineage.Rid, k)
		a.fwPairS = make([][]lineage.Rid, k)
	}
	for t := 0; t < k-1; t++ {
		// With collectFW the pair arrays grow on demand instead.
		if a.tableDirs[t].Forward() && !collectFW {
			a.fwMany[t] = lineage.NewRidIndex(spec.Tables[t].Rel.N)
		}
	}
	return a
}

// capture writes one resolved batch's lineage edges for every captured
// table. Each table's structures see the rows in scan order, so lists and
// forward entries are those of a row-at-a-time loop.
func (a *partAgg) capture(cols [][]lineage.Rid, slots []lineage.Rid) {
	last := len(cols) - 1
	for t, d := range a.tableDirs {
		rids := cols[t]
		if d.Backward() {
			if a.deferBW != nil {
				bw := a.deferBW[t]
				for j, s := range slots {
					bw.AppendFast(int(s), rids[j])
				}
			} else {
				gr := a.groupRids[t]
				for len(gr) < a.groups.Len() {
					gr = append(gr, nil)
				}
				for j, s := range slots {
					gr[s] = lineage.AppendRid(gr[s], rids[j])
				}
				a.groupRids[t] = gr
			}
		}
		if d.Forward() {
			switch {
			case t == last:
				for j, s := range slots {
					a.fwLast[rids[j]] = s
				}
			case a.collectFW:
				a.fwPairR[t] = append(a.fwPairR[t], rids...)
				a.fwPairS[t] = append(a.fwPairS[t], slots...)
			default:
				fw := a.fwMany[t]
				for j, s := range slots {
					fw.Append(int(rids[j]), s)
				}
			}
		}
	}
}

// prepareDefer allocates exact-sized backward indexes: each table's per-group
// list length equals the group's row count (every join row contributes one
// rid per table).
func (a *partAgg) prepareDefer() {
	counts := a.groups.Counts()
	c32 := make([]int32, len(counts))
	for i, c := range counts {
		c32[i] = int32(c)
	}
	a.deferBW = make([]*lineage.RidIndex, len(a.tableDirs))
	for t, d := range a.tableDirs {
		if d.Backward() {
			a.deferBW[t] = lineage.NewRidIndexWithCounts(c32)
		}
	}
}

// emit moves the accumulated indexes into the capture container, reusing
// the per-group rid lists directly (P4).
func (a *partAgg) emit(cap_ *lineage.Capture, spec Spec) {
	last := len(a.tableDirs) - 1
	for t, d := range a.tableDirs {
		name := spec.Tables[t].Rel.Name
		if d.Backward() {
			var ix *lineage.RidIndex
			if a.deferBW != nil {
				ix = a.deferBW[t]
			} else {
				ix = lineage.NewRidIndex(a.groups.Len())
				for slot, l := range a.groupRids[t] {
					ix.SetList(slot, l)
				}
			}
			cap_.SetBackward(name, lineage.NewOneToMany(ix))
		}
		if d.Forward() {
			if t == last {
				cap_.SetForward(name, lineage.NewOneToOne(a.fwLast))
			} else {
				cap_.SetForward(name, lineage.NewOneToMany(a.fwMany[t]))
			}
		}
	}
}
