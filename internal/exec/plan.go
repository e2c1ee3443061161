package exec

import (
	"fmt"
	"sort"
	"strings"

	"smoke/internal/cube"
	"smoke/internal/expr"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/plan"
	"smoke/internal/pool"
	"smoke/internal/serr"
	"smoke/internal/storage"
)

// This file is the physical lowering of the logical plan layer
// (internal/plan): RunPlan walks an optimized plan.Node tree and executes it
// with end-to-end lineage capture.
//
// SPJA nodes — the subtrees the optimizer's fusion rule matched — lower onto
// the fused block executor (Run, spja.go): base-scan inputs run it directly
// (pipelined filters, chain hash tables, one final capture through
// ops.GroupCapture, morsel-parallel, partition-local compressed encoding),
// and subplan inputs execute first, their end-to-end indexes composing with
// the block's capture.
//
// Everything else — the non-fusible residue — runs operator-at-a-time with
// the propagation technique of §3.3: every operator captures its own local
// indexes, which immediately compose with its children's end-to-end indexes
// so intermediates can be garbage collected. All residue operators thread
// Mode, Workers and Pool through to their one driver each (selection scans,
// hash aggregations, pk-fk and M:N join probes, the set union's Defer
// backfill): the mode names the same capture algorithm at every worker
// count, and the finished capture encodes into the adaptive compressed forms
// when PlanOpts.Compress is set.

// PlanOpts configures plan execution. It mirrors the capture options of the
// engine facade: Mode and the direction controls select the instrumentation,
// Workers/Pool run the morsel-parallel kernels, and Compress stores the
// finished indexes in their adaptive encoded forms.
type PlanOpts struct {
	Mode ops.CaptureMode
	// Dirs selects the capture directions (both when zero and Mode is set).
	Dirs ops.Directions
	// TableDirs prunes capture per base-relation name (§4.1); relations
	// absent from a non-nil map are not captured at all.
	TableDirs map[string]ops.Directions
	// Params binds expression parameters.
	Params expr.Params
	// Workers > 1 runs the morsel-parallel operator kernels; <= 1 is fully
	// serial. Pool schedules the parallel kernels; nil runs them inline.
	Workers int
	Pool    *pool.Pool
	// Compress encodes the captured indexes into their adaptive compressed
	// forms: fused all-scan blocks encode inside the block executor
	// (per-partition when parallel), and the generic residue's composed
	// end-to-end indexes encode once execution finishes.
	Compress bool
}

// dirsFor resolves the capture directions for one base relation.
func (o PlanOpts) dirsFor(base string) ops.Directions {
	if o.Mode == ops.None {
		return 0
	}
	if o.TableDirs != nil {
		return o.TableDirs[base]
	}
	if o.Dirs == 0 {
		return ops.CaptureBoth
	}
	return o.Dirs
}

// PlanResult is the output of plan execution: the result relation,
// end-to-end lineage to every captured base relation, and — when the plan's
// output rows are aggregation groups — the per-row input cardinalities.
type PlanResult struct {
	Out         *storage.Relation
	Capture     *lineage.Capture
	GroupCounts []int64
	// BWPart and Cube are what a root GroupBy's capture push-downs
	// (plan.Pushdown) produce beside the capture: the data-skipping
	// directory over the captured backward index, and the partial cube.
	BWPart *lineage.PartitionDir
	Cube   *cube.Cube
}

// RunPlan executes an (optimized) plan tree with end-to-end lineage capture.
func RunPlan(n plan.Node, opts PlanOpts) (PlanResult, error) {
	out, err := runNode(n, opts)
	if err != nil {
		return PlanResult{}, err
	}
	cap_ := lineage.NewCapture()
	for name, ix := range out.bw {
		cap_.SetBackward(name, ix)
	}
	for name, ix := range out.fw {
		cap_.SetForward(name, ix)
	}
	if opts.Compress && opts.Mode != ops.None {
		cap_.EncodeAll()
	}
	return PlanResult{Out: out.rel, Capture: cap_, GroupCounts: out.counts,
		BWPart: out.bwPart, Cube: out.cube}, nil
}

// nodeOut carries a node's relation, its per-base-relation end-to-end
// indexes, and (for aggregation outputs) per-row group cardinalities during
// recursive execution. bwPart and cube are set only by a group-by with
// capture push-downs; operators above it do not carry them on.
type nodeOut struct {
	rel    *storage.Relation
	bw     map[string]*lineage.Index
	fw     map[string]*lineage.Index
	counts []int64
	bwPart *lineage.PartitionDir
	cube   *cube.Cube
}

// localDirs reports which directions the node above needs to capture locally
// for composition: a direction matters only if some base below carries it.
func localDirs(children ...*nodeOut) ops.Directions {
	var d ops.Directions
	for _, c := range children {
		if len(c.bw) > 0 {
			d |= ops.CaptureBackward
		}
		if len(c.fw) > 0 {
			d |= ops.CaptureForward
		}
	}
	return d
}

func identityIndex(n int) *lineage.Index {
	arr := make([]lineage.Rid, n)
	for i := range arr {
		arr[i] = lineage.Rid(i)
	}
	return lineage.NewOneToOne(arr)
}

// setOrMerge installs ix as rel name's end-to-end index. When both sides of
// a join or union derive from the same base relation (e.g. two aggregate
// subqueries over one table), each side contributes an index for the same
// name; the contributions concatenate per entry (left side first) instead of
// the second overwriting the first.
func setOrMerge(m map[string]*lineage.Index, name string, ix *lineage.Index) {
	prev, ok := m[name]
	if !ok {
		m[name] = ix
		return
	}
	n := prev.Len()
	out := lineage.NewRidIndex(n)
	var buf []lineage.Rid
	for i := 0; i < n; i++ {
		buf = prev.TraceOne(lineage.Rid(i), buf[:0])
		buf = ix.TraceOne(lineage.Rid(i), buf)
		for _, r := range buf {
			out.Append(i, r)
		}
	}
	m[name] = lineage.NewOneToMany(out)
}

// composeAll maps a node's local indexes (out ↔ child) through the child's
// end-to-end indexes (child ↔ base) to produce out ↔ base, after which the
// local and child indexes are dropped (§3.3 propagation).
func composeAll(child nodeOut, localBW, localFW *lineage.Index) nodeOut {
	res := nodeOut{bw: map[string]*lineage.Index{}, fw: map[string]*lineage.Index{}}
	if localBW != nil {
		for name, cbw := range child.bw {
			res.bw[name] = lineage.Compose(localBW, cbw)
		}
	}
	if localFW != nil {
		for name, cfw := range child.fw {
			res.fw[name] = lineage.Compose(cfw, localFW)
		}
	}
	return res
}

func runNode(n plan.Node, opts PlanOpts) (nodeOut, error) {
	switch node := n.(type) {
	case plan.Scan:
		return runScan(node, opts)
	case plan.Filter:
		return runFilter(node, opts)
	case plan.Project:
		child, err := runNode(node.Child, opts)
		if err != nil {
			return nodeOut{}, err
		}
		cols := make([]int, len(node.Cols))
		for i, c := range node.Cols {
			ci := child.rel.Schema.Col(c)
			if ci < 0 {
				return nodeOut{}, fmt.Errorf("exec: project column %q not found", c)
			}
			cols[i] = ci
		}
		// Bag-semantics projection needs no lineage (§3.2.1): rid i maps to
		// rid i, so the child's indexes carry over unchanged.
		child.rel = child.rel.Project(child.rel.Name+"_p", cols)
		return child, nil
	case plan.GroupBy:
		return runGroupBy(node, opts)
	case plan.Join:
		return runJoin(node, opts)
	case plan.Union:
		return runUnion(node, opts)
	case plan.OrderBy:
		return runOrderBy(node, opts)
	case plan.Limit:
		return runLimit(node, opts)
	case plan.SPJA:
		return runSPJANode(node, opts)
	case plan.Backward:
		return runBackward(node, opts)
	case plan.ForwardScatter:
		return runForwardScatter(node, opts)
	case plan.Forward:
		return runForward(node, opts)
	}
	return nodeOut{}, fmt.Errorf("exec: unsupported plan node %T", n)
}

// runScan produces the base relation (with any pushed-down filter applied)
// and identity or selection indexes per the table's capture directions.
func runScan(node plan.Scan, opts PlanOpts) (nodeOut, error) {
	dirs := opts.dirsFor(node.Table)
	out := nodeOut{rel: node.Rel, bw: map[string]*lineage.Index{}, fw: map[string]*lineage.Index{}}
	if node.Filter == nil {
		if dirs.Backward() {
			out.bw[node.Table] = identityIndex(node.Rel.N)
		}
		if dirs.Forward() {
			out.fw[node.Table] = identityIndex(node.Rel.N)
		}
		return out, nil
	}
	sres, err := selectRows(node.Rel, node.Filter, dirs, opts)
	if err != nil {
		return nodeOut{}, err
	}
	// The filtered intermediate keeps the base name: downstream joins prefix
	// colliding columns with it, and qualified join keys ("table.col")
	// resolve against that prefix.
	out.rel = node.Rel.Gather(node.Rel.Name, sres.OutRids)
	if dirs.Backward() {
		out.bw[node.Table] = lineage.NewOneToOne(sres.BW)
	}
	if dirs.Forward() {
		out.fw[node.Table] = lineage.NewOneToOne(sres.FW)
	}
	return out, nil
}

// selectRows runs the morsel-parallel selection of pred over rel, capturing
// the given directions (none: just the selected rids, which Select keeps
// non-nil even when nothing matches — nil would mean "all rows" to the
// aggregation kernels).
func selectRows(rel *storage.Relation, pred expr.Expr, dirs ops.Directions, opts PlanOpts) (ops.SelectResult, error) {
	p, err := expr.CompilePred(pred, rel, opts.Params)
	if err != nil {
		return ops.SelectResult{}, err
	}
	mode := ops.None
	if dirs != 0 {
		mode = ops.Inject
	}
	return ops.Select(rel.N, p, ops.SelectOpts{
		Mode: mode, Dirs: dirs, Workers: opts.Workers, Pool: opts.Pool,
		Kernel: expr.CompileBitKernel(pred, rel, opts.Params),
	}), nil
}

func runFilter(node plan.Filter, opts PlanOpts) (nodeOut, error) {
	child, err := runNode(node.Child, opts)
	if err != nil {
		return nodeOut{}, err
	}
	dirs := localDirs(&child)
	sres, err := selectRows(child.rel, node.Pred, dirs, opts)
	if err != nil {
		return nodeOut{}, err
	}
	rel := child.rel.Gather(child.rel.Name+"_f", sres.OutRids)
	var localBW, localFW *lineage.Index
	if dirs.Backward() {
		localBW = lineage.NewOneToOne(sres.BW)
	}
	if dirs.Forward() {
		localFW = lineage.NewOneToOne(sres.FW)
	}
	res := composeAll(child, localBW, localFW)
	res.rel = rel
	if child.counts != nil {
		res.counts = make([]int64, len(sres.OutRids))
		for i, r := range sres.OutRids {
			res.counts[i] = child.counts[r]
		}
	}
	return res, nil
}

// groupBySpec converts the plan-level aggregate list into the generic
// hash-aggregation spec.
func groupBySpec(node plan.GroupBy) ops.GroupBySpec {
	spec := ops.GroupBySpec{Keys: node.Keys}
	for _, a := range node.Aggs {
		spec.Aggs = append(spec.Aggs, ops.AggSpec{Fn: a.Fn, Arg: a.Arg, Filter: a.Filter, Name: a.Name})
	}
	return spec
}

func runGroupBy(node plan.GroupBy, opts PlanOpts) (nodeOut, error) {
	if sc, ok := node.Child.(plan.Scan); ok {
		return runGroupByOverScan(sc, node, opts)
	}
	if bt, ok := node.Child.(plan.Backward); ok {
		// Trace-then-aggregate pipelining (the consuming-query fast path):
		// the trace expands its rid multiset once — duplicates preserved —
		// and the aggregation runs directly over it with the
		// duplicate-tolerant morsel-parallel kernel (AggOpts.DupRids), so
		// captured rids stay base-relation rids with no gather and no
		// composition step. This is the morsel-parallel replacement for the
		// serial consuming-query fallback of the pre-plan path.
		rids, scan, err := backwardRids(bt, opts)
		if err != nil {
			return nodeOut{}, err
		}
		if scan != nil {
			// The selectivity choice picked scan-and-filter: the trace IS a
			// filtered scan, so the block is a plain scan aggregation.
			return runGroupByOverScan(*scan, node, opts)
		}
		return runGroupByOverRids(bt.Rel, bt.Table, rids, true, node, opts)
	}
	if node.Pushdown != nil {
		// Here the group-by's input rids would be intermediate rids, which
		// the partition directory and the cube cannot address.
		return nodeOut{}, serr.New(serr.Unsupported,
			"exec: capture push-downs require a group-by over a base scan or a backward trace, not %T", node.Child)
	}

	spec := groupBySpec(node)
	child, err := runNode(node.Child, opts)
	if err != nil {
		return nodeOut{}, err
	}
	dirs := localDirs(&child)
	mode := opts.Mode
	if dirs == 0 {
		mode = ops.None
	} else if mode == ops.None {
		mode = ops.Inject
	}
	ares, err := ops.HashAgg(child.rel, nil, spec, ops.AggOpts{
		Mode: mode, Dirs: dirs, Params: opts.Params, Workers: opts.Workers, Pool: opts.Pool,
	})
	if err != nil {
		return nodeOut{}, err
	}
	var localBW, localFW *lineage.Index
	if ix := ares.BackwardIndex(); ix != nil {
		localBW = ix
	}
	if ix := ares.ForwardIndex(); ix != nil {
		localFW = ix
	}
	res := composeAll(child, localBW, localFW)
	res.rel = ares.Out
	res.counts = ares.GroupCounts
	return res, nil
}

// runGroupByOverScan is the single-table fast path: the scan's filter
// materializes a rid subset once and the aggregation runs over it, so
// captured rids stay base-relation rids with no composition step.
func runGroupByOverScan(sc plan.Scan, node plan.GroupBy, opts PlanOpts) (nodeOut, error) {
	var inRids []lineage.Rid
	if sc.Filter != nil {
		sres, err := selectRows(sc.Rel, sc.Filter, 0, opts)
		if err != nil {
			return nodeOut{}, err
		}
		inRids = sres.OutRids
	}
	return runGroupByOverRids(sc.Rel, sc.Table, inRids, false, node, opts)
}

// runGroupByOverRids is the shared tail of both fast paths: aggregate the
// base relation over a rid subset (nil = all rows) and install the captured
// indexes directly under the base table's name. The group-by's capture
// push-downs apply here, where its input rids are base rids.
func runGroupByOverRids(rel *storage.Relation, table string, inRids []lineage.Rid, dupRids bool,
	node plan.GroupBy, opts PlanOpts) (nodeOut, error) {
	dirs := opts.dirsFor(table)
	mode := opts.Mode
	if dirs == 0 {
		mode = ops.None
	}
	aopts := ops.AggOpts{
		Mode: mode, Dirs: dirs, Params: opts.Params,
		Workers: opts.Workers, Pool: opts.Pool, Compress: opts.Compress,
		DupRids: dupRids,
	}
	var cb *cube.Builder
	if pd := node.Pushdown; pd != nil {
		aopts.CountsByKey, aopts.PushdownFilter, aopts.PartitionBy = pd.CountsByKey, pd.Filter, pd.PartitionBy
		if pd.Cube != nil {
			var err error
			if cb, err = cube.NewBuilder(rel, *pd.Cube, opts.Params); err != nil {
				return nodeOut{}, err
			}
			aopts.Observe = cb.Observe
		}
	}
	ares, err := ops.HashAgg(rel, inRids, groupBySpec(node), aopts)
	if err != nil {
		return nodeOut{}, err
	}
	out := nodeOut{rel: ares.Out, counts: ares.GroupCounts, bwPart: ares.BWPart,
		bw: map[string]*lineage.Index{}, fw: map[string]*lineage.Index{}}
	if ix := ares.BackwardIndex(); ix != nil {
		out.bw[table] = ix
	}
	if ix := ares.ForwardIndex(); ix != nil {
		out.fw[table] = ix
	}
	if cb != nil {
		out.cube = cb.Build()
	}
	return out, nil
}

func runJoin(node plan.Join, opts PlanOpts) (nodeOut, error) {
	left, err := runNode(node.Left, opts)
	if err != nil {
		return nodeOut{}, err
	}
	right, err := runNode(node.Right, opts)
	if err != nil {
		return nodeOut{}, err
	}
	leftKey, err := resolveJoinKey(left.rel, node.LeftKey, node.LeftQual)
	if err != nil {
		return nodeOut{}, err
	}
	dirs := localDirs(&left, &right)
	jopts := ops.JoinOpts{Dirs: dirs, Materialize: true, Cols: node.Cols,
		Workers: opts.Workers, Pool: opts.Pool}

	var out *storage.Relation
	var lBW, rBW, lFW, rFW *lineage.Index
	if node.PKFK {
		// The optimizer proved the left (build) key unique: run the pk-fk
		// specialization — single-rid hash entries, preallocated backward
		// arrays, morsel-parallel probe.
		jres, err := ops.HashJoinPKFK(left.rel, leftKey, nil, right.rel, node.RightKey, nil, jopts)
		if err != nil {
			return nodeOut{}, err
		}
		out = jres.Out
		if dirs.Backward() {
			lBW, rBW = lineage.NewOneToOne(jres.BuildBW), lineage.NewOneToOne(jres.ProbeBW)
		}
		if dirs.Forward() {
			lFW, rFW = lineage.NewOneToMany(jres.BuildFW), lineage.NewOneToOne(jres.ProbeFW)
		}
	} else {
		variant := ops.MNInject
		if opts.Mode == ops.Defer {
			variant = ops.MNDefer
		}
		jres, err := ops.HashJoinMN(left.rel, leftKey, right.rel, node.RightKey, variant, jopts)
		if err != nil {
			return nodeOut{}, err
		}
		out = jres.Out
		if dirs.Backward() {
			lBW, rBW = lineage.NewOneToOne(jres.LeftBW), lineage.NewOneToOne(jres.RightBW)
		}
		if dirs.Forward() {
			lFW, rFW = lineage.NewOneToMany(jres.LeftFW), lineage.NewOneToMany(jres.RightFW)
		}
	}

	res := nodeOut{rel: out, bw: map[string]*lineage.Index{}, fw: map[string]*lineage.Index{}}
	for name, ix := range left.bw {
		setOrMerge(res.bw, name, lineage.Compose(lBW, ix))
	}
	for name, ix := range right.bw {
		setOrMerge(res.bw, name, lineage.Compose(rBW, ix))
	}
	for name, ix := range left.fw {
		setOrMerge(res.fw, name, lineage.Compose(ix, lFW))
	}
	for name, ix := range right.fw {
		setOrMerge(res.fw, name, lineage.Compose(ix, rFW))
	}
	return res, nil
}

// resolveJoinKey maps a logical join-key reference to the physical column
// name of the (possibly join-materialized) left relation. A name that
// collided during prefix materialization was renamed "source.col": try the
// plain name, then the qualified name, then a unique ".col" suffix match.
func resolveJoinKey(rel *storage.Relation, key, qual string) (string, error) {
	if rel.Schema.Col(key) >= 0 {
		return key, nil
	}
	if qual != "" {
		if q := qual + "." + key; rel.Schema.Col(q) >= 0 {
			return q, nil
		}
	}
	match := ""
	for _, f := range rel.Schema {
		if strings.HasSuffix(f.Name, "."+key) {
			if match != "" {
				return "", fmt.Errorf("exec: join key %q is ambiguous in %s; qualify it", key, rel.Name)
			}
			match = f.Name
		}
	}
	if match == "" {
		return "", fmt.Errorf("exec: join key %q not found in %s", key, rel.Name)
	}
	return match, nil
}

func runUnion(node plan.Union, opts PlanOpts) (nodeOut, error) {
	left, err := runNode(node.Left, opts)
	if err != nil {
		return nodeOut{}, err
	}
	right, err := runNode(node.Right, opts)
	if err != nil {
		return nodeOut{}, err
	}
	dirs := localDirs(&left, &right)
	// The plan's mode names the union's capture algorithm; with no direction
	// to capture, the plain operator runs.
	mode := opts.Mode
	if dirs == 0 {
		mode = ops.None
	}
	ures, err := ops.SetUnion(left.rel, node.Attrs, right.rel, node.Attrs,
		mode, dirs, opts.Workers, opts.Pool)
	if err != nil {
		return nodeOut{}, err
	}
	res := nodeOut{rel: ures.Out, bw: map[string]*lineage.Index{}, fw: map[string]*lineage.Index{}}
	var aBW, bBW, aFW, bFW *lineage.Index
	if dirs.Backward() {
		aBW, bBW = lineage.NewOneToMany(ures.ABW), lineage.NewOneToMany(ures.BBW)
	}
	if dirs.Forward() {
		aFW, bFW = lineage.NewOneToOne(ures.AFW), lineage.NewOneToOne(ures.BFW)
	}
	for name, ix := range left.bw {
		setOrMerge(res.bw, name, lineage.Compose(aBW, ix))
	}
	for name, ix := range right.bw {
		setOrMerge(res.bw, name, lineage.Compose(bBW, ix))
	}
	for name, ix := range left.fw {
		setOrMerge(res.fw, name, lineage.Compose(ix, aFW))
	}
	for name, ix := range right.fw {
		setOrMerge(res.fw, name, lineage.Compose(ix, bFW))
	}
	return res, nil
}

// runOrderBy stably sorts the child's rows. Sorting permutes rids, so local
// lineage is the permutation (backward) and its inverse (forward).
func runOrderBy(node plan.OrderBy, opts PlanOpts) (nodeOut, error) {
	child, err := runNode(node.Child, opts)
	if err != nil {
		return nodeOut{}, err
	}
	rel := child.rel
	type sortCol struct {
		c    int
		desc bool
	}
	cols := make([]sortCol, len(node.Keys))
	for i, k := range node.Keys {
		c := rel.Schema.Col(k.Col)
		if c < 0 {
			return nodeOut{}, fmt.Errorf("exec: order-by column %q not found", k.Col)
		}
		cols[i] = sortCol{c: c, desc: k.Desc}
	}
	perm := make([]lineage.Rid, rel.N)
	for i := range perm {
		perm[i] = lineage.Rid(i)
	}
	sort.SliceStable(perm, func(a, b int) bool {
		ra, rb := int(perm[a]), int(perm[b])
		for _, sc := range cols {
			var cmp int
			switch rel.Schema[sc.c].Type {
			case storage.TInt:
				va, vb := rel.Cols[sc.c].Ints[ra], rel.Cols[sc.c].Ints[rb]
				cmp = compareOrdered(va, vb)
			case storage.TFloat:
				va, vb := rel.Cols[sc.c].Floats[ra], rel.Cols[sc.c].Floats[rb]
				cmp = compareOrdered(va, vb)
			case storage.TString:
				va, vb := rel.Cols[sc.c].Strs[ra], rel.Cols[sc.c].Strs[rb]
				cmp = compareOrdered(va, vb)
			}
			if cmp != 0 {
				if sc.desc {
					return cmp > 0
				}
				return cmp < 0
			}
		}
		return false
	})

	dirs := localDirs(&child)
	var localBW, localFW *lineage.Index
	if dirs.Backward() {
		localBW = lineage.NewOneToOne(perm)
	}
	if dirs.Forward() {
		inv := make([]lineage.Rid, rel.N)
		for o, r := range perm {
			inv[r] = lineage.Rid(o)
		}
		localFW = lineage.NewOneToOne(inv)
	}
	res := composeAll(child, localBW, localFW)
	res.rel = rel.Gather(rel.Name+"_o", perm)
	if child.counts != nil {
		res.counts = make([]int64, len(perm))
		for o, r := range perm {
			res.counts[o] = child.counts[r]
		}
	}
	return res, nil
}

func compareOrdered[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// runLimit keeps the child's first N rows (a zero-copy column-prefix view).
func runLimit(node plan.Limit, opts PlanOpts) (nodeOut, error) {
	child, err := runNode(node.Child, opts)
	if err != nil {
		return nodeOut{}, err
	}
	n := node.N
	if n < 0 {
		n = 0
	}
	if n > child.rel.N {
		n = child.rel.N
	}
	dirs := localDirs(&child)
	var localBW, localFW *lineage.Index
	if dirs.Backward() {
		bw := make([]lineage.Rid, n)
		for i := range bw {
			bw[i] = lineage.Rid(i)
		}
		localBW = lineage.NewOneToOne(bw)
	}
	if dirs.Forward() {
		fw := make([]lineage.Rid, child.rel.N)
		for i := range fw {
			if i < n {
				fw[i] = lineage.Rid(i)
			} else {
				fw[i] = -1
			}
		}
		localFW = lineage.NewOneToOne(fw)
	}
	res := composeAll(child, localBW, localFW)
	res.rel = prefixRelation(child.rel, n)
	if child.counts != nil {
		res.counts = child.counts[:n]
	}
	return res, nil
}

// prefixRelation is a zero-copy view of rel's first n rows.
func prefixRelation(rel *storage.Relation, n int) *storage.Relation {
	out := &storage.Relation{Name: rel.Name + "_l", Schema: rel.Schema,
		Cols: make([]storage.Column, len(rel.Cols)), N: n}
	for c := range rel.Cols {
		switch {
		case rel.Cols[c].Ints != nil:
			out.Cols[c].Ints = rel.Cols[c].Ints[:n]
		case rel.Cols[c].Floats != nil:
			out.Cols[c].Floats = rel.Cols[c].Floats[:n]
		case rel.Cols[c].Strs != nil:
			out.Cols[c].Strs = rel.Cols[c].Strs[:n]
		}
	}
	return out
}

// runSPJANode lowers a fused block onto the block executor. Scan inputs feed
// the executor directly (zero composition, per-name
// direction pruning, in-executor compression); subplan inputs run first, are
// registered under a synthetic name, and their end-to-end indexes compose
// with the block's capture afterwards.
func runSPJANode(node plan.SPJA, opts PlanOpts) (nodeOut, error) {
	k := len(node.Inputs)
	spec := Spec{Tables: make([]TableRef, k)}
	tdirs := make([]ops.Directions, k)
	children := make([]nodeOut, k)
	isScan := make([]bool, k)
	allScan := true
	for t, in := range node.Inputs {
		filter := node.Filters[t]
		if sc, ok := in.(plan.Scan); ok {
			isScan[t] = true
			f := filter
			if sc.Filter != nil {
				if f == nil {
					f = sc.Filter
				} else {
					f = expr.And{L: sc.Filter, R: f}
				}
			}
			spec.Tables[t] = TableRef{Rel: sc.Rel, Filter: f}
			tdirs[t] = opts.dirsFor(sc.Table)
			continue
		}
		allScan = false
		co, err := runNode(in, opts)
		if err != nil {
			return nodeOut{}, err
		}
		children[t] = co
		// Shallow-rename the intermediate so the block's capture keys are
		// collision-free; composition below consumes them immediately.
		relCopy := *co.rel
		relCopy.Name = fmt.Sprintf("__spja_in%d", t)
		spec.Tables[t] = TableRef{Rel: &relCopy, Filter: filter}
		tdirs[t] = localDirs(&co)
	}
	for _, je := range node.Joins {
		spec.Joins = append(spec.Joins, JoinEdge{LeftTable: je.LeftInput, LeftCol: je.LeftCol, RightCol: je.RightCol})
	}
	for _, kr := range node.Keys {
		spec.Keys = append(spec.Keys, KeyRef{Table: kr.Input, Col: kr.Col})
	}
	for _, a := range node.Aggs {
		spec.Aggs = append(spec.Aggs, AggRef{Fn: a.Fn, Table: a.Input, Arg: a.Arg, Filter: a.Filter, Name: a.Name})
	}

	eres, err := Run(spec, Opts{
		Mode: opts.Mode, TableDirs: tdirs, Params: opts.Params,
		Workers: opts.Workers, Pool: opts.Pool,
		Compress: opts.Compress && allScan,
	})
	if err != nil {
		return nodeOut{}, err
	}
	out := nodeOut{rel: eres.Out, counts: eres.GroupCounts,
		bw: map[string]*lineage.Index{}, fw: map[string]*lineage.Index{}}
	for t := 0; t < k; t++ {
		name := spec.Tables[t].Rel.Name
		if isScan[t] {
			if eres.Capture.HasBackward(name) {
				ix, _ := eres.Capture.BackwardIndex(name)
				setOrMerge(out.bw, name, ix)
			}
			if eres.Capture.HasForward(name) {
				ix, _ := eres.Capture.ForwardIndex(name)
				setOrMerge(out.fw, name, ix)
			}
			continue
		}
		if eres.Capture.HasBackward(name) {
			blockBW, _ := eres.Capture.BackwardIndex(name)
			for base, cbw := range children[t].bw {
				setOrMerge(out.bw, base, lineage.Compose(blockBW, cbw))
			}
		}
		if eres.Capture.HasForward(name) {
			blockFW, _ := eres.Capture.ForwardIndex(name)
			for base, cfw := range children[t].fw {
				setOrMerge(out.fw, base, lineage.Compose(cfw, blockFW))
			}
		}
	}
	return out, nil
}
