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
// The block executor owns the join chain; the group state and the capture
// do not live here. The final pipeline hands its joined rows, as
// column-major batches of base-rid chains, to ops.GroupState and
// ops.GroupCapture — the same group-by state and capture ops.HashAgg uses —
// which write per-table lineage from the group slots the state resolves.
// The executor is morsel-parallel (Run): join chains build serially, then
// the final pipeline runs over contiguous row-range partitions of the last
// table's scan, each with its own group state and partition-local lineage,
// merged in partition order into a result identical for every partition
// count. Workers <= 1 in Opts is one partition of the same code, which
// skips the merge.
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
	// forms after capture: each partition encodes its local backward lists
	// and a merge concatenates encoded lists without re-encoding; forward
	// indexes encode once, after the merge. Backward/Forward and consuming
	// queries read the encoded indexes in place.
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
// hands them to the block's ops.GroupCapture, which writes, merges and
// encodes the per-table lineage. The merged output relation and every
// lineage index are identical for every partition count.
func Run(spec Spec, opts Opts) (Result, error) {
	pipe, err := compilePipeline(spec, opts.Params)
	if err != nil {
		return Result{}, err
	}
	pipe.buildChains()

	k := len(spec.Tables)
	ranges := pool.Split(spec.Tables[k-1].Rel.N, opts.Workers)
	rels := make([]*storage.Relation, k)
	dirs := make([]ops.Directions, k)
	for t, tr := range spec.Tables {
		rels[t], dirs[t] = tr.Rel, opts.dirsFor(t)
	}
	groups := make([]*ops.GroupState, len(ranges))
	for p := range groups {
		if groups[p], err = pipe.newGroups(opts.Params); err != nil {
			return Result{}, err
		}
	}
	c := ops.NewGroupCapture(rels, nil, false, dirs, opts.Compress, groups, ranges)
	opts.Pool.RunSplit(ranges, func(part, lo, hi int) {
		g := groups[part]
		slots := make([]lineage.Rid, batchRows)
		pipe.forEachBatch(lo, hi, func(cols [][]lineage.Rid) {
			sb := slots[:len(cols[0])]
			g.Fold(cols, sb)
			if opts.Mode == ops.Inject {
				c.Add(part, cols, sb)
			}
		})
		if opts.Mode == ops.Defer {
			// Partition-local Zγ pass: rerun the range, probing the pinned
			// hash tables and the group state to recover each row's group.
			c.Defer(part)
			pipe.forEachBatch(lo, hi, func(cols [][]lineage.Rid) {
				sb := slots[:len(cols[0])]
				g.Probe(cols, sb)
				c.Add(part, cols, sb)
			})
		}
		c.Finish(part)
	})

	bw, fw := c.Merge(opts.Pool)
	res := Result{Out: groups[0].Materialize("spja"), GroupCounts: groups[0].Counts(), Capture: lineage.NewCapture()}
	for t, rel := range rels {
		if bw[t] != nil {
			res.Capture.SetBackward(rel.Name, bw[t])
		}
		if fw[t] != nil {
			res.Capture.SetForward(rel.Name, fw[t])
		}
	}
	return res, nil
}
