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
// The block executor is morsel-parallel (Run): join chains build serially,
// then the final pipeline — where all aggregation and capture work happens —
// runs over contiguous row-range partitions of the last table's scan, each
// with a partition-local aggregation and partition-local lineage, merged in
// partition order into a result identical for every partition count.
// Workers <= 1 in Opts is one partition of the same driver, which skips the
// merge.
package exec

import (
	"encoding/binary"
	"fmt"
	"math"

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
type KeyRef struct {
	Table int
	Col   string
}

// AggRef is one aggregate of the final aggregation. Arg (and the optional
// Filter, which models SQL's CASE WHEN ... THEN 1 counting idiom) are
// evaluated against the rows of a single table.
type AggRef struct {
	Fn     ops.AggFn
	Table  int
	Arg    expr.Expr
	Filter expr.Expr
	Name   string
}

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

// forEachLast runs the final pipeline over the whole last table.
func (p *pipeline) forEachLast(visit func(chain []lineage.Rid, rid int32)) {
	p.forEachLastRange(0, p.spec.Tables[len(p.spec.Tables)-1].Rel.N, visit)
}

// forEachLastRange is the final-pipeline range kernel: scan rids [lo, hi) of
// the last table with its filter inlined, probe the (read-only) chain, and
// visit every joined row (as base-rid chains). Concurrent calls over
// disjoint ranges are safe — the kernel only reads shared state and each
// call owns its chain buffer.
func (p *pipeline) forEachLastRange(lo, hi int, visit func(chain []lineage.Rid, rid int32)) {
	k := len(p.spec.Tables)
	last := k - 1
	if k == 1 {
		chain := make([]lineage.Rid, 1)
		for rid := int32(lo); rid < int32(hi); rid++ {
			if p.filters[last] != nil && !p.filters[last](rid) {
				continue
			}
			chain[0] = rid
			visit(chain, rid)
		}
		return
	}
	probeKey := p.rightKeyCols[last-1]
	buf := make([]lineage.Rid, k)
	for rid := int32(lo); rid < int32(hi); rid++ {
		if p.filters[last] != nil && !p.filters[last](rid) {
			continue
		}
		head, ok := p.level.ht.Get(probeKey[rid])
		if !ok {
			continue
		}
		for c := head; c >= 0; c = p.level.next[c] {
			for pos, t := range p.level.tables {
				buf[t] = p.level.rids[pos][c]
			}
			buf[last] = rid
			visit(buf, rid)
		}
	}
}

// Run executes the SPJA block. The join chain builds serially (its
// lineage-annotated hash tables are then shared read-only); the last table's
// scan — the paper's final pipeline, where both the aggregation work and the
// capture writes happen — splits into up to opts.Workers contiguous rid-range
// partitions, each feeding its own spjaAgg. Partition-local group tables,
// per-table rid lists, and forward indexes merge in partition order, which
// reproduces the one-partition group discovery order (a group's first
// occurrence lies in the first partition that contains it) and therefore the
// same output relation and every lineage index exactly. One partition's
// aggregation already is the result, so it skips the merge.
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
	locals := make([]*spjaAgg, len(ranges))
	for p := range locals {
		a, err := newSPJAAgg(spec, opts, fwLast, merge)
		if err != nil {
			return Result{}, err
		}
		locals[p] = a
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
		pipe.forEachLastRange(lo, hi, func(chain []lineage.Rid, rid int32) {
			slot := a.lookup(chain)
			a.update(slot, chain)
			if inject {
				a.captureRow(slot, chain)
			}
		})
		if opts.Mode == ops.Defer {
			// Partition-local Zγ pass: rerun the range, probing the pinned
			// hash tables and the aggregation table to recover each chain's
			// group; local counts are exact for the local range, so the
			// local backward indexes preallocate exactly.
			a.prepareDefer()
			pipe.forEachLastRange(lo, hi, func(chain []lineage.Rid, rid int32) {
				a.captureRow(a.probe(chain), chain)
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
		// result — no re-lookup, no slot maps, no rebase.
		a := locals[0]
		res := Result{Out: a.materialize(), GroupCounts: a.counts, Capture: lineage.NewCapture()}
		a.emitInject(res.Capture)
		if opts.Compress {
			res.Capture.EncodeAll()
		}
		return res, nil
	}

	// Merge partition tables in partition order. The merged aggregation
	// carries no capture plumbing (Mode None); indexes are stitched from the
	// partition-local structures below.
	merged, err := newSPJAAgg(spec, Opts{Params: opts.Params}, nil, false)
	if err != nil {
		return Result{}, err
	}
	slotMaps := make([][]lineage.Rid, len(locals))
	for p, a := range locals {
		sm := make([]lineage.Rid, a.nGroups)
		for s := int32(0); s < a.nGroups; s++ {
			g := merged.lookup(a.repChain[s])
			sm[s] = g
			merged.counts[g] += a.counts[s]
			for i := range merged.accs {
				merged.accs[i].mergeFrom(g, &a.accs[i], s)
			}
		}
		slotMaps[p] = sm
	}
	nG := int(merged.nGroups)

	res := Result{Out: merged.materialize(), GroupCounts: merged.counts, Capture: lineage.NewCapture()}
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
					fwIx = lineage.EncodeIndex(fwIx)
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

// spjaAgg is the instrumented final aggregation of an SPJA block.
type spjaAgg struct {
	spec *Spec
	opts Opts

	// group key compilation
	singleIntKey []int64 // fast path: one TInt key column
	keyTable     int
	keyCols      []KeyRef
	buf          []byte

	ht    *hashtab.Map
	strHT map[string]int32

	nGroups  int32
	repChain [][]lineage.Rid // per group: representative chain (for key output)
	counts   []int64

	accs []spjaAcc

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

type spjaAcc struct {
	fn     ops.AggFn
	table  int
	num    expr.NumFn
	filter expr.Pred
	sums   []float64
	mins   []float64
	maxs   []float64
	cnts   []int64 // per-acc count (filtered aggregates can't share counts)
}

// newSPJAAgg builds one partition's aggregation. fwLast is the last table's
// rid-addressed forward array, shared by every partition (their rid ranges
// are disjoint). collectFW, set when partitions will merge, collects non-last
// forward edges as pairs rather than relation-sized per-partition indexes;
// a one-partition run keeps the direct-index form.
func newSPJAAgg(spec Spec, opts Opts, fwLast []lineage.Rid, collectFW bool) (*spjaAgg, error) {
	a := &spjaAgg{spec: &spec, opts: opts, keyCols: spec.Keys, fwLast: fwLast, collectFW: collectFW}
	if len(spec.Keys) == 1 {
		kr := spec.Keys[0]
		rel := spec.Tables[kr.Table].Rel
		c := rel.Schema.Col(kr.Col)
		if c < 0 {
			return nil, fmt.Errorf("exec: unknown key column %s", kr.Col)
		}
		if rel.Schema[c].Type == storage.TInt {
			a.singleIntKey = rel.Cols[c].Ints
			a.keyTable = kr.Table
			a.ht = hashtab.New(64)
		}
	}
	if a.ht == nil {
		for _, kr := range spec.Keys {
			rel := spec.Tables[kr.Table].Rel
			if rel.Schema.Col(kr.Col) < 0 {
				return nil, fmt.Errorf("exec: unknown key column %s in %s", kr.Col, rel.Name)
			}
		}
		a.strHT = make(map[string]int32, 64)
	}
	for _, ar := range spec.Aggs {
		if ar.Table < 0 || ar.Table >= len(spec.Tables) {
			return nil, fmt.Errorf("exec: aggregate %q references table %d", ar.Name, ar.Table)
		}
		rel := spec.Tables[ar.Table].Rel
		acc := spjaAcc{fn: ar.Fn, table: ar.Table}
		if ar.Fn != ops.Count {
			if ar.Arg == nil {
				return nil, fmt.Errorf("exec: aggregate %q needs an argument", ar.Name)
			}
			f, err := expr.CompileNum(ar.Arg, rel, opts.Params)
			if err != nil {
				return nil, err
			}
			acc.num = f
		}
		if ar.Filter != nil {
			p, err := expr.CompilePred(ar.Filter, rel, opts.Params)
			if err != nil {
				return nil, err
			}
			acc.filter = p
		}
		a.accs = append(a.accs, acc)
	}
	// Capture plumbing.
	k := len(spec.Tables)
	a.tableDirs = make([]ops.Directions, k)
	for t := 0; t < k; t++ {
		a.tableDirs[t] = opts.dirsFor(t)
	}
	a.groupRids = make([][][]lineage.Rid, k)
	a.fwMany = make([]*lineage.RidIndex, k)
	if a.collectFW {
		a.fwPairR = make([][]lineage.Rid, k)
		a.fwPairS = make([][]lineage.Rid, k)
	}
	for t := 0; t < k-1; t++ {
		// With collectFW the pair arrays grow on demand instead.
		if a.tableDirs[t].Forward() && !a.collectFW {
			a.fwMany[t] = lineage.NewRidIndex(spec.Tables[t].Rel.N)
		}
	}
	return a, nil
}

// encodeKey serializes the (composite or non-int) group key of a chain.
func (a *spjaAgg) encodeKey(chain []lineage.Rid) {
	a.buf = a.buf[:0]
	for _, kr := range a.keyCols {
		rel := a.spec.Tables[kr.Table].Rel
		c := rel.Schema.MustCol(kr.Col)
		rid := chain[kr.Table]
		switch rel.Schema[c].Type {
		case storage.TInt:
			var tmp [8]byte
			binary.LittleEndian.PutUint64(tmp[:], uint64(rel.Cols[c].Ints[rid]))
			a.buf = append(a.buf, tmp[:]...)
		case storage.TFloat:
			var tmp [8]byte
			binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(rel.Cols[c].Floats[rid]))
			a.buf = append(a.buf, tmp[:]...)
		case storage.TString:
			a.buf = append(a.buf, rel.Cols[c].Strs[rid]...)
			a.buf = append(a.buf, 0)
		}
	}
}

func (a *spjaAgg) lookup(chain []lineage.Rid) int32 {
	if a.singleIntKey != nil {
		slot, inserted := a.ht.GetOrPut(a.singleIntKey[chain[a.keyTable]], a.nGroups)
		if inserted {
			a.newGroup(chain)
		}
		return slot
	}
	a.encodeKey(chain)
	if slot, ok := a.strHT[string(a.buf)]; ok {
		return slot
	}
	slot := a.nGroups
	a.strHT[string(a.buf)] = slot
	a.newGroup(chain)
	return slot
}

func (a *spjaAgg) probe(chain []lineage.Rid) int32 {
	if a.singleIntKey != nil {
		slot, _ := a.ht.Get(a.singleIntKey[chain[a.keyTable]])
		return slot
	}
	a.encodeKey(chain)
	return a.strHT[string(a.buf)]
}

func (a *spjaAgg) newGroup(chain []lineage.Rid) {
	a.nGroups++
	a.repChain = append(a.repChain, append([]lineage.Rid(nil), chain...))
	a.counts = append(a.counts, 0)
	for i := range a.accs {
		acc := &a.accs[i]
		switch acc.fn {
		case ops.Sum, ops.Avg:
			acc.sums = append(acc.sums, 0)
			acc.cnts = append(acc.cnts, 0)
		case ops.Min:
			acc.mins = append(acc.mins, math.Inf(1))
		case ops.Max:
			acc.maxs = append(acc.maxs, math.Inf(-1))
		case ops.Count:
			acc.cnts = append(acc.cnts, 0)
		}
	}
	for t := range a.groupRids {
		if a.tableDirs[t].Backward() && a.opts.Mode == ops.Inject {
			a.groupRids[t] = append(a.groupRids[t], nil)
		}
	}
}

func (a *spjaAgg) update(slot int32, chain []lineage.Rid) {
	a.counts[slot]++
	for i := range a.accs {
		acc := &a.accs[i]
		rid := chain[acc.table]
		if acc.filter != nil && !acc.filter(rid) {
			continue
		}
		switch acc.fn {
		case ops.Count:
			acc.cnts[slot]++
		case ops.Sum:
			acc.sums[slot] += acc.num(rid)
			acc.cnts[slot]++
		case ops.Avg:
			acc.sums[slot] += acc.num(rid)
			acc.cnts[slot]++
		case ops.Min:
			if v := acc.num(rid); v < acc.mins[slot] {
				acc.mins[slot] = v
			}
		case ops.Max:
			if v := acc.num(rid); v > acc.maxs[slot] {
				acc.maxs[slot] = v
			}
		}
	}
}

// mergeFrom folds partition-local group s of o into global group g (all
// SPJA aggregates are algebraic, so the merge is exact up to float addition
// order).
func (a *spjaAcc) mergeFrom(g int32, o *spjaAcc, s int32) {
	switch a.fn {
	case ops.Count:
		a.cnts[g] += o.cnts[s]
	case ops.Sum, ops.Avg:
		a.sums[g] += o.sums[s]
		a.cnts[g] += o.cnts[s]
	case ops.Min:
		if o.mins[s] < a.mins[g] {
			a.mins[g] = o.mins[s]
		}
	case ops.Max:
		if o.maxs[s] > a.maxs[g] {
			a.maxs[g] = o.maxs[s]
		}
	}
}

// captureRow writes one output row's lineage edges for every captured table.
func (a *spjaAgg) captureRow(slot int32, chain []lineage.Rid) {
	last := len(a.spec.Tables) - 1
	for t := range a.spec.Tables {
		d := a.tableDirs[t]
		if d == 0 {
			continue
		}
		rid := chain[t]
		if d.Backward() {
			if a.deferBW != nil {
				a.deferBW[t].AppendFast(int(slot), rid)
			} else {
				a.groupRids[t][slot] = lineage.AppendRid(a.groupRids[t][slot], rid)
			}
		}
		if d.Forward() {
			if t == last {
				a.fwLast[rid] = slot
			} else if a.collectFW {
				a.fwPairR[t] = append(a.fwPairR[t], rid)
				a.fwPairS[t] = append(a.fwPairS[t], slot)
			} else {
				a.fwMany[t].Append(int(rid), slot)
			}
		}
	}
}

// prepareDefer allocates exact-sized backward indexes: each table's per-group
// list length equals the group's row count (every join row contributes one
// rid per table).
func (a *spjaAgg) prepareDefer() {
	k := len(a.spec.Tables)
	a.deferBW = make([]*lineage.RidIndex, k)
	c32 := make([]int32, len(a.counts))
	for i, c := range a.counts {
		c32[i] = int32(c)
	}
	for t := 0; t < k; t++ {
		if a.tableDirs[t].Backward() {
			a.deferBW[t] = lineage.NewRidIndexWithCounts(c32)
		}
	}
}

// emitInject moves the accumulated indexes into the capture container,
// reusing the per-group rid lists directly (P4).
func (a *spjaAgg) emitInject(cap_ *lineage.Capture) {
	last := len(a.spec.Tables) - 1
	for t := range a.spec.Tables {
		d := a.tableDirs[t]
		name := a.spec.Tables[t].Rel.Name
		if d.Backward() {
			var ix *lineage.RidIndex
			if a.deferBW != nil && a.deferBW[t] != nil {
				ix = a.deferBW[t]
			} else {
				ix = lineage.NewRidIndex(int(a.nGroups))
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

// materialize builds the output relation: key columns then aggregates.
func (a *spjaAgg) materialize() *storage.Relation {
	g := int(a.nGroups)
	schema := make(storage.Schema, 0, len(a.keyCols)+len(a.accs))
	for _, kr := range a.keyCols {
		rel := a.spec.Tables[kr.Table].Rel
		c := rel.Schema.MustCol(kr.Col)
		schema = append(schema, storage.Field{Name: kr.Col, Type: rel.Schema[c].Type})
	}
	for i, ar := range a.spec.Aggs {
		name := ar.Name
		if name == "" {
			name = fmt.Sprintf("%s_%d", ar.Fn, i)
		}
		ty := storage.TFloat
		if ar.Fn == ops.Count {
			ty = storage.TInt
		}
		schema = append(schema, storage.Field{Name: name, Type: ty})
	}
	out := storage.NewRelation("spja", schema, g)
	for ki, kr := range a.keyCols {
		rel := a.spec.Tables[kr.Table].Rel
		c := rel.Schema.MustCol(kr.Col)
		switch rel.Schema[c].Type {
		case storage.TInt:
			src, dst := rel.Cols[c].Ints, out.Cols[ki].Ints
			for slot, chain := range a.repChain {
				dst[slot] = src[chain[kr.Table]]
			}
		case storage.TFloat:
			src, dst := rel.Cols[c].Floats, out.Cols[ki].Floats
			for slot, chain := range a.repChain {
				dst[slot] = src[chain[kr.Table]]
			}
		case storage.TString:
			src, dst := rel.Cols[c].Strs, out.Cols[ki].Strs
			for slot, chain := range a.repChain {
				dst[slot] = src[chain[kr.Table]]
			}
		}
	}
	for i := range a.accs {
		acc := &a.accs[i]
		col := len(a.keyCols) + i
		switch acc.fn {
		case ops.Count:
			copy(out.Cols[col].Ints, acc.cnts)
		case ops.Sum:
			copy(out.Cols[col].Floats, acc.sums)
		case ops.Avg:
			dst := out.Cols[col].Floats
			for slot := 0; slot < g; slot++ {
				if acc.cnts[slot] > 0 {
					dst[slot] = acc.sums[slot] / float64(acc.cnts[slot])
				}
			}
		case ops.Min:
			copy(out.Cols[col].Floats, acc.mins)
		case ops.Max:
			copy(out.Cols[col].Floats, acc.maxs)
		}
	}
	return out
}
