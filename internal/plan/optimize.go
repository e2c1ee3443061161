package plan

import (
	"smoke/internal/expr"
	"smoke/internal/ops"
	"smoke/internal/storage"
)

// Opts configures the optimizer.
type Opts struct {
	// Catalog supplies primary-key metadata for pk-fk join detection; the
	// rule falls back to scanning the key column for uniqueness when the
	// catalog is nil or silent.
	Catalog *storage.Catalog
	// NoFusion disables the SPJA fusion rule, forcing every block onto the
	// generic runner. The differential harness and the plan benchmark use it
	// to compare the fused path against the generic path.
	NoFusion bool
	// Siblings are the executed results the forward-scatter rule may read a
	// forward index of (RewriteForwardScatter); none leaves the rule idle.
	Siblings []Sibling
}

// Trace records one optimizer rule application that changed the plan.
type Trace struct {
	Rule string
	Plan string // Format(plan) after the rule fired
}

// Rules returns the pass pipeline in application order.
func rules(o Opts) []struct {
	name  string
	apply func(Node, Opts) Node
} {
	rs := []struct {
		name  string
		apply func(Node, Opts) Node
	}{
		{"predicate-pushdown", func(n Node, _ Opts) Node { return pushdownNode(n) }},
		{"trace-rewrite", func(n Node, _ Opts) Node { return rewriteTraces(n) }},
		{"pkfk-detect", detectPKFK},
		{"fuse-spja", func(n Node, _ Opts) Node { return fuseNode(n) }},
		{"prune-projections", func(n Node, _ Opts) Node { return pruneNode(n, nil) }},
		{"forward-scatter", func(n Node, o Opts) Node { return RewriteForwardScatter(n, o.Siblings) }},
	}
	if o.NoFusion {
		out := rs[:0:0]
		for _, r := range rs {
			if r.name != "fuse-spja" {
				out = append(out, r)
			}
		}
		return out
	}
	return rs
}

// Optimize runs the rule pipeline over n and returns the rewritten plan plus
// a trace entry for every rule that changed it. The change detection renders
// the plan after every rule (Format string diffing), which EXPLAIN wants but
// the execution path does not — hot callers use OptimizeNoTrace.
func Optimize(n Node, o Opts) (Node, []Trace) {
	var traces []Trace
	before := Format(n)
	for _, r := range rules(o) {
		n = r.apply(n, o)
		if after := Format(n); after != before {
			traces = append(traces, Trace{Rule: r.name, Plan: after})
			before = after
		}
	}
	return n, traces
}

// OptimizeNoTrace runs the same rule pipeline without recording the
// per-rule EXPLAIN trace, skipping the per-rule plan renders. Interactive
// consuming queries (one small plan per interaction) care about this fixed
// overhead.
func OptimizeNoTrace(n Node, o Opts) Node {
	for _, r := range rules(o) {
		n = r.apply(n, o)
	}
	return n
}

// --- predicate pushdown ------------------------------------------------------

// pushdownNode moves Filter predicates toward the scans: each conjunct sinks
// through projections, joins (into whichever side covers its columns), and
// group-bys (when it references group keys only), and is absorbed into
// Scan.Filter when it reaches a base relation. Conjuncts that cannot sink stay
// where they are.
func pushdownNode(n Node) Node {
	switch node := n.(type) {
	case Filter:
		child := pushdownNode(node.Child)
		var rest []expr.Expr
		for _, conj := range conjuncts(node.Pred) {
			if nc, ok := pushInto(child, conj); ok {
				child = nc
			} else {
				rest = append(rest, conj)
			}
		}
		if len(rest) == 0 {
			return child
		}
		return Filter{Child: child, Pred: expr.AndE(rest...)}
	case Project:
		return Project{Child: pushdownNode(node.Child), Cols: node.Cols}
	case Join:
		node.Left = pushdownNode(node.Left)
		node.Right = pushdownNode(node.Right)
		return node
	case GroupBy:
		node.Child = pushdownNode(node.Child)
		return node
	case Union:
		node.Left = pushdownNode(node.Left)
		node.Right = pushdownNode(node.Right)
		return node
	case OrderBy:
		node.Child = pushdownNode(node.Child)
		return node
	case Limit:
		node.Child = pushdownNode(node.Child)
		return node
	case Backward:
		if node.Source != nil {
			node.Source = pushdownNode(node.Source)
		}
		return node
	case Forward:
		if node.Source != nil {
			node.Source = pushdownNode(node.Source)
		}
		return node
	}
	return n
}

// pushInto tries to sink one conjunct into n, returning the rewritten node.
func pushInto(n Node, conj expr.Expr) (Node, bool) {
	cols := expr.Columns(conj)
	switch node := n.(type) {
	case Scan:
		for _, c := range cols {
			if node.Rel.Schema.Col(c) < 0 {
				return n, false
			}
		}
		if node.Filter == nil {
			node.Filter = conj
		} else {
			node.Filter = expr.And{L: node.Filter, R: conj}
		}
		return node, true
	case Filter:
		if nc, ok := pushInto(node.Child, conj); ok {
			node.Child = nc
			return node, true
		}
		// Stuck at the same height: merge into this filter.
		node.Pred = expr.And{L: node.Pred, R: conj}
		return node, true
	case Project:
		for _, c := range cols {
			if !containsStr(node.Cols, c) {
				return n, false
			}
		}
		if nc, ok := pushInto(node.Child, conj); ok {
			node.Child = nc
			return node, true
		}
		return n, false
	case Join:
		inLeft, inRight := true, true
		for _, c := range cols {
			l, r := resolveCount(node.Left, c), resolveCount(node.Right, c)
			if l != 1 || r != 0 {
				inLeft = false
			}
			if r != 1 || l != 0 {
				inRight = false
			}
		}
		if inLeft {
			if nc, ok := pushInto(node.Left, conj); ok {
				node.Left = nc
				return node, true
			}
			node.Left = Filter{Child: node.Left, Pred: conj}
			return node, true
		}
		if inRight {
			if nc, ok := pushInto(node.Right, conj); ok {
				node.Right = nc
				return node, true
			}
			node.Right = Filter{Child: node.Right, Pred: conj}
			return node, true
		}
		return n, false
	case GroupBy:
		// A predicate over group keys only commutes with the aggregation:
		// filtering the groups out equals filtering their input rows out.
		for _, c := range cols {
			if !containsStr(node.Keys, c) {
				return n, false
			}
		}
		if nc, ok := pushInto(node.Child, conj); ok {
			node.Child = nc
			return node, true
		}
		node.Child = Filter{Child: node.Child, Pred: conj}
		return node, true
	case Backward:
		// The trace's output rows ARE base rows of Rel, so a consuming
		// predicate over base columns commutes with the trace: it sinks into
		// the node's expansion filter and rows failing it never materialize.
		for _, c := range cols {
			if node.Rel.Schema.Col(c) < 0 {
				return n, false
			}
		}
		node.Filter = andWith(node.Filter, conj)
		return node, true
	case Forward:
		// Forward output rows are a subset of the source's output rows:
		// filtering after the trace equals dropping failing rids during
		// expansion.
		srcSchema, err := OutSchema(node)
		if err != nil {
			return n, false
		}
		for _, c := range cols {
			if srcSchema.Col(c) < 0 {
				return n, false
			}
		}
		node.Filter = andWith(node.Filter, conj)
		return node, true
	}
	return n, false
}

// andWith conjoins e onto base (nil base yields e).
func andWith(base, e expr.Expr) expr.Expr {
	if base == nil {
		return e
	}
	return expr.And{L: base, R: e}
}

// conjuncts flattens a conjunction tree.
func conjuncts(e expr.Expr) []expr.Expr {
	if a, ok := e.(expr.And); ok {
		return append(conjuncts(a.L), conjuncts(a.R)...)
	}
	return []expr.Expr{e}
}

// --- trace rewriting ---------------------------------------------------------

// rewriteTraces rewrites trace-then-query subtrees (Lin et al.-style predicate
// pushdown through lineage): when a Backward trace's seed predicate references
// only the group-by keys of a single-scan aggregation source, the trace is
// provably equivalent to scanning the base relation with (scan filter ∧ seed
// predicate ∧ consuming filter) — each base row feeds exactly one group, so
// tracing the selected groups selects exactly the rows whose key satisfies
// the predicate.
//
// Unbound traces (no captured instance to reuse) rewrite to that Scan
// outright: it skips executing the source aggregation entirely. Bound traces
// keep the index — the capture already exists — but carry the equivalent
// Scan as an annotation so the physical layer can choose scan-and-filter over
// index-trace when the seeds select most of the output (a near-full trace
// touches nearly every base row anyway, and a sequential predicate scan beats
// scattered rid-list expansion).
func rewriteTraces(n Node) Node {
	switch node := n.(type) {
	case Filter:
		node.Child = rewriteTraces(node.Child)
		return node
	case Project:
		node.Child = rewriteTraces(node.Child)
		return node
	case Join:
		node.Left = rewriteTraces(node.Left)
		node.Right = rewriteTraces(node.Right)
		return node
	case GroupBy:
		node.Child = rewriteTraces(node.Child)
		return node
	case Union:
		node.Left = rewriteTraces(node.Left)
		node.Right = rewriteTraces(node.Right)
		return node
	case OrderBy:
		node.Child = rewriteTraces(node.Child)
		return node
	case Limit:
		node.Child = rewriteTraces(node.Child)
		return node
	case Backward:
		if node.Source != nil {
			node.Source = rewriteTraces(node.Source)
		}
		sc, ok := TraceScanEquiv(node)
		if !ok {
			return node
		}
		if node.Bound == nil {
			// No capture to reuse: the filtered scan IS the trace.
			return sc
		}
		node.ScanEquiv = &sc
		return node
	case Forward:
		if node.Source != nil {
			node.Source = rewriteTraces(node.Source)
		}
		return node
	}
	return n
}

// TraceScanEquiv derives the scan-and-filter equivalent of a Backward trace,
// when one exists. Explicit rid seeds never qualify — they address output
// rows the rewrite cannot name — so the trace must be seeded with nil or a
// predicate, over one of two source shapes:
//
//   - a group-by over a single scan of the traced relation, with the seed
//     predicate referencing group keys only: each base row feeds exactly one
//     group, so tracing the selected groups selects exactly the rows whose
//     key satisfies the predicate;
//   - a bare (possibly filtered) scan of the traced relation: its backward
//     lineage is the selection itself, so a seed predicate over the output
//     columns is a predicate over the surviving base rows verbatim.
//
// A source filter that reads a query parameter never qualifies: the source
// ran under the capture's parameters, and the scan would run under the
// trace query's own, selecting other rows than the captured lineage holds.
func TraceScanEquiv(node Backward) (Scan, bool) {
	if node.SeedRids != nil {
		return Scan{}, false
	}
	sc, pred, keys, grouped, ok := scanEquivSource(node.Source)
	if !ok || sc.Table != node.Table || sc.Rel != node.Rel || readsParam(sc.Filter) || readsParam(pred) {
		return Scan{}, false
	}
	if node.SeedPred != nil {
		// Seed predicates must translate verbatim onto base columns: for a
		// grouped source that means group keys only; for a scan-shaped
		// source every output column is already a base column.
		for _, c := range expr.Columns(node.SeedPred) {
			if grouped && !containsStr(keys, c) {
				return Scan{}, false
			}
			if node.Rel.Schema.Col(c) < 0 {
				return Scan{}, false
			}
		}
	}
	for _, e := range []expr.Expr{pred, node.SeedPred, node.Filter} {
		if e != nil {
			if sc.Filter == nil {
				sc.Filter = e
			} else {
				sc.Filter = expr.And{L: sc.Filter, R: e}
			}
		}
	}
	return sc, true
}

// readsParam reports whether e reads a query parameter.
func readsParam(e expr.Expr) bool {
	found := false
	expr.Walk(e, func(x expr.Expr) {
		if _, ok := x.(expr.Param); ok {
			found = true
		}
	})
	return found
}

// scanEquivThresholdNum/Den: a scan-equivalent, pred-seeded trace answers
// with its filtered scan when the seeds cover at least half the source
// output. The choice depends only on the plan and the data, never on worker
// count, index encoding or placement, so every capture variant of a plan —
// and a scatter/gather coordinator counting seeds over the merged output —
// makes the same choice and stays element-identical.
const (
	scanEquivThresholdNum = 1
	scanEquivThresholdDen = 2
)

// ScanBeatsIndex reports whether a trace the optimizer proved
// scan-equivalent (Backward.ScanEquiv) should run as its filtered scan rather
// than expand the captured index: seeds selecting most of the outRows-row
// source output touch nearly every base row anyway, and one sequential
// predicate scan beats scattered rid-list expansion.
func ScanBeatsIndex(seeds, outRows int) bool {
	return outRows > 0 && seeds*scanEquivThresholdDen >= outRows*scanEquivThresholdNum
}

// scanEquivSource matches the source shapes TraceScanEquiv (and the strategy
// chooser via ProfileTrace) understands: an optional group-by over an
// optional filter over a scan. keys/grouped carry the group-by context;
// pred is the intermediate filter, folded into the returned scan's filter by
// the caller. A group-by carrying capture push-downs never matches: its
// lineage is what the push-downs captured (a selection push-down keeps only
// the passing rows), not every row of its groups.
func scanEquivSource(src Node) (sc Scan, pred expr.Expr, keys []string, grouped bool, ok bool) {
	if gb, isGB := src.(GroupBy); isGB {
		if gb.Pushdown != nil {
			return sc, nil, nil, false, false
		}
		keys, grouped = gb.Keys, true
		src = gb.Child
	}
	if f, isFilter := src.(Filter); isFilter {
		pred = f.Pred
		src = f.Child
	}
	sc, ok = src.(Scan)
	return sc, pred, keys, grouped, ok
}

// TraceProfile summarizes the plan features the capture-strategy chooser
// (core's Strategy = Auto) costs against.
type TraceProfile struct {
	// MultiInput: re-executing the plan for a lazy trace replays a join or
	// union — the expensive shape, where capturing at least the backward
	// direction eagerly (hybrid) amortizes better than recompute.
	MultiInput bool
	// ScanRewritable: a predicate-seeded backward trace over this plan
	// collapses to one filtered scan (no re-execution of the aggregation at
	// all) — the shape where lazy is nearly free.
	ScanRewritable bool
}

// ProfileTrace inspects an optimized plan for the strategy chooser.
func ProfileTrace(n Node) TraceProfile {
	_, _, _, _, rewritable := scanEquivSource(n)
	return TraceProfile{MultiInput: hasMultiInput(n), ScanRewritable: rewritable}
}

// hasMultiInput reports whether the plan combines more than one input
// anywhere: a Join, a Union, or a fused SPJA block with multiple inputs.
func hasMultiInput(n Node) bool {
	switch node := n.(type) {
	case Join, Union:
		return true
	case SPJA:
		if len(node.Inputs) > 1 {
			return true
		}
		for _, in := range node.Inputs {
			if hasMultiInput(in) {
				return true
			}
		}
	case Filter:
		return hasMultiInput(node.Child)
	case Project:
		return hasMultiInput(node.Child)
	case GroupBy:
		return hasMultiInput(node.Child)
	case OrderBy:
		return hasMultiInput(node.Child)
	case Limit:
		return hasMultiInput(node.Child)
	case Backward:
		return node.Source != nil && hasMultiInput(node.Source)
	case Forward:
		return node.Source != nil && hasMultiInput(node.Source)
	}
	return false
}

// --- pk-fk join detection ----------------------------------------------------

// detectPKFK marks joins whose left (build) key is provably unique: declared
// as a primary key in the catalog, the single group-by key of an aggregation
// output, or verified unique by scanning an integer base column. The physical
// layer then runs the pk-fk specialization, and the fusion rule treats the
// join as part of an SPJA chain.
func detectPKFK(n Node, o Opts) Node {
	switch node := n.(type) {
	case Join:
		node.Left = detectPKFK(node.Left, o)
		node.Right = detectPKFK(node.Right, o)
		if !node.PKFK && keyUnique(node.Left, node.LeftKey, o.Catalog) {
			node.PKFK = true
		}
		return node
	case Filter:
		node.Child = detectPKFK(node.Child, o)
		return node
	case Project:
		node.Child = detectPKFK(node.Child, o)
		return node
	case GroupBy:
		node.Child = detectPKFK(node.Child, o)
		return node
	case Union:
		node.Left = detectPKFK(node.Left, o)
		node.Right = detectPKFK(node.Right, o)
		return node
	case OrderBy:
		node.Child = detectPKFK(node.Child, o)
		return node
	case Limit:
		node.Child = detectPKFK(node.Child, o)
		return node
	case Backward:
		if node.Source != nil {
			node.Source = detectPKFK(node.Source, o)
		}
		return node
	case Forward:
		if node.Source != nil {
			node.Source = detectPKFK(node.Source, o)
		}
		return node
	}
	return n
}

// keyUnique reports whether col is unique in n's output.
func keyUnique(n Node, col string, cat *storage.Catalog) bool {
	switch node := n.(type) {
	case Scan:
		if cat != nil {
			if cat.PrimaryKey(node.Table) == col {
				return true
			}
			// Memoized per (relation, column): the verification scan runs
			// once, not on every optimize call.
			return cat.UniqueIntColumn(node.Rel, col)
		}
		return storage.IntColumnUnique(node.Rel, col)
	case Filter:
		// A filter only removes rows; uniqueness is preserved.
		return keyUnique(node.Child, col, cat)
	case Project:
		if !containsStr(node.Cols, col) {
			return false
		}
		return keyUnique(node.Child, col, cat)
	case GroupBy:
		// The single group-by key is the output's identity.
		return len(node.Keys) == 1 && node.Keys[0] == col
	case SPJA:
		return len(node.Keys) == 1 && node.Keys[0].Col == col
	case OrderBy:
		return keyUnique(node.Child, col, cat)
	case Limit:
		return keyUnique(node.Child, col, cat)
	}
	return false
}

// --- SPJA fusion -------------------------------------------------------------

// fuseNode rewrites fusible GroupBy-over-pk-fk-join-chain subtrees into SPJA
// nodes (bottom-up, so inner blocks fuse before outer ones). Preconditions:
// at least two inputs, every chain join pk-fk with integer keys, no
// COUNT(DISTINCT) (the fused aggregation does not implement it), no capture
// push-downs (the block has no place for them), and every group key and
// aggregate argument resolving to exactly one input.
func fuseNode(n Node) Node {
	switch node := n.(type) {
	case Filter:
		node.Child = fuseNode(node.Child)
		return node
	case Project:
		node.Child = fuseNode(node.Child)
		return node
	case Join:
		node.Left = fuseNode(node.Left)
		node.Right = fuseNode(node.Right)
		return node
	case Union:
		node.Left = fuseNode(node.Left)
		node.Right = fuseNode(node.Right)
		return node
	case OrderBy:
		node.Child = fuseNode(node.Child)
		return node
	case Limit:
		node.Child = fuseNode(node.Child)
		return node
	case GroupBy:
		node.Child = fuseNode(node.Child)
		if fused, ok := tryFuse(node); ok {
			return fused
		}
		return node
	case Backward:
		if node.Source != nil {
			node.Source = fuseNode(node.Source)
		}
		return node
	case Forward:
		if node.Source != nil {
			node.Source = fuseNode(node.Source)
		}
		return node
	}
	return n
}

func tryFuse(g GroupBy) (Node, bool) {
	if g.Pushdown != nil {
		return nil, false
	}
	inputs, filters, joins, ok := collectChain(g.Child)
	if !ok || len(inputs) < 2 {
		return nil, false
	}
	// Two inputs sharing a base relation would make per-output lineage
	// contribution order diverge between the fused (per-input) and generic
	// (per-join-row) lowerings; keep such blocks on the generic runner.
	seenBase := map[*storage.Relation]bool{}
	for _, in := range inputs {
		for _, b := range Bases(in, nil) {
			if seenBase[b] {
				return nil, false
			}
			seenBase[b] = true
		}
	}
	schemas := make([]storage.Schema, len(inputs))
	for i, in := range inputs {
		s, err := OutSchema(in)
		if err != nil {
			return nil, false
		}
		schemas[i] = s
	}
	// Join keys must be integer columns of their inputs.
	for j, je := range joins {
		lc := schemas[je.LeftInput].Col(je.LeftCol)
		rc := schemas[j+1].Col(je.RightCol)
		if lc < 0 || schemas[je.LeftInput][lc].Type != storage.TInt {
			return nil, false
		}
		if rc < 0 || schemas[j+1][rc].Type != storage.TInt {
			return nil, false
		}
	}
	resolve := func(col string) (int, bool) {
		found := -1
		for i, s := range schemas {
			if s.Col(col) >= 0 {
				if found >= 0 {
					return 0, false
				}
				found = i
			}
		}
		if found < 0 {
			return 0, false
		}
		return found, true
	}
	spja := SPJA{Inputs: inputs, Filters: filters, Joins: joins}
	for _, k := range g.Keys {
		t, ok := resolve(k)
		if !ok {
			return nil, false
		}
		spja.Keys = append(spja.Keys, SPJAKey{Input: t, Col: k})
	}
	for i, a := range g.Aggs {
		if a.Fn == ops.CountDistinct {
			return nil, false
		}
		t := len(inputs) - 1 // COUNT(*) folds with the probe-side (fact) input
		cols := append(expr.Columns(a.Arg), expr.Columns(a.Filter)...)
		for _, c := range cols {
			ct, ok := resolve(c)
			if !ok {
				return nil, false
			}
			t = ct
		}
		// All referenced columns must live in one input.
		for _, c := range cols {
			if schemas[t].Col(c) < 0 {
				return nil, false
			}
		}
		spja.Aggs = append(spja.Aggs, SPJAAgg{Fn: a.Fn, Input: t, Arg: a.Arg, Filter: a.Filter, Name: a.OutName(i)})
	}
	return spja, true
}

// collectChain flattens a left-deep pk-fk join chain into SPJA inputs: joins
// recurse on the left, each right side (and the chain's leftmost leaf)
// becomes one input with its wrapping filters peeled into the block's
// pipelined filter list. Non-pk-fk joins and all other nodes terminate the
// chain and become opaque single inputs.
func collectChain(n Node) (inputs []Node, filters []expr.Expr, joins []SPJAJoin, ok bool) {
	if j, isJoin := n.(Join); isJoin && j.PKFK {
		ins, fs, js, ok := collectChain(j.Left)
		if !ok {
			return nil, nil, nil, false
		}
		// Resolve the prefix-side key to the one input providing it; an
		// explicit qualifier names the owning base scan directly.
		li := -1
		if j.LeftQual != "" {
			for i, in := range ins {
				if sc, ok := in.(Scan); ok && sc.Table == j.LeftQual && sc.Rel.Schema.Col(j.LeftKey) >= 0 {
					li = i
					break
				}
			}
		}
		if li < 0 {
			for i, in := range ins {
				switch resolveCount(in, j.LeftKey) {
				case 1:
					if li >= 0 {
						return nil, nil, nil, false
					}
					li = i
				case 2:
					return nil, nil, nil, false
				}
			}
		}
		if li < 0 {
			return nil, nil, nil, false
		}
		rNode, rFilter := peelFilters(j.Right)
		return append(ins, rNode), append(fs, rFilter),
			append(js, SPJAJoin{LeftInput: li, LeftCol: j.LeftKey, RightCol: j.RightKey}), true
	}
	node, f := peelFilters(n)
	return []Node{node}, []expr.Expr{f}, nil, true
}

// peelFilters strips Filter wrappers (and a Scan's own pushed-down filter)
// off an input, returning the bare input and the conjunction of the peeled
// predicates — the block's pipelined filter for that input.
func peelFilters(n Node) (Node, expr.Expr) {
	var pred expr.Expr
	for {
		switch node := n.(type) {
		case Filter:
			if pred == nil {
				pred = node.Pred
			} else {
				pred = expr.And{L: node.Pred, R: pred}
			}
			n = node.Child
			continue
		case Scan:
			if node.Filter != nil {
				if pred == nil {
					pred = node.Filter
				} else {
					pred = expr.And{L: node.Filter, R: pred}
				}
				node.Filter = nil
				n = node
			}
		}
		return n, pred
	}
}

// --- projection pruning ------------------------------------------------------

// pruneNode removes identity projections and annotates generic joins with the
// column set their ancestors actually read (need == nil means "all columns").
// The physical join then materializes only those columns. SPJA blocks prune
// inherently (they never materialize a join), so their inputs restart the
// analysis from the block's own column uses.
func pruneNode(n Node, need []string) Node {
	switch node := n.(type) {
	case Scan:
		return node
	case Filter:
		node.Child = pruneNode(node.Child, unionCols(need, expr.Columns(node.Pred)))
		return node
	case Project:
		child := pruneNode(node.Child, append([]string(nil), node.Cols...))
		if cs, err := OutSchema(child); err == nil && len(cs) == len(node.Cols) {
			identity := true
			for i, c := range node.Cols {
				if cs[i].Name != c {
					identity = false
					break
				}
			}
			if identity {
				return child
			}
		}
		node.Child = child
		return node
	case Join:
		if need != nil {
			if cols, ok := prunableJoinCols(node, need); ok {
				node.Cols = cols
			}
		}
		leftNeed, rightNeed := splitJoinNeed(node, need)
		node.Left = pruneNode(node.Left, leftNeed)
		node.Right = pruneNode(node.Right, rightNeed)
		return node
	case GroupBy:
		childNeed := append([]string(nil), node.Keys...)
		for _, a := range node.Aggs {
			childNeed = unionCols(childNeed, expr.Columns(a.Arg))
			childNeed = unionCols(childNeed, expr.Columns(a.Filter))
		}
		node.Child = pruneNode(node.Child, childNeed)
		return node
	case Union:
		node.Left = pruneNode(node.Left, append([]string(nil), node.Attrs...))
		node.Right = pruneNode(node.Right, append([]string(nil), node.Attrs...))
		return node
	case OrderBy:
		cn := need
		if cn != nil {
			for _, k := range node.Keys {
				cn = unionCols(cn, []string{k.Col})
			}
		}
		node.Child = pruneNode(node.Child, cn)
		return node
	case Limit:
		node.Child = pruneNode(node.Child, need)
		return node
	case SPJA:
		for i := range node.Inputs {
			inNeed := spjaInputNeed(node, i)
			node.Inputs[i] = pruneNode(node.Inputs[i], inNeed)
		}
		return node
	case Backward:
		// The trace reads the source's lineage, not its columns: restart the
		// analysis below it (the source's own uses decide what it keeps).
		if node.Source != nil {
			node.Source = pruneNode(node.Source, nil)
		}
		return node
	case Forward:
		if node.Source != nil {
			node.Source = pruneNode(node.Source, nil)
		}
		return node
	}
	return n
}

// prunableJoinCols validates that every needed column resolves in exactly one
// side of the join; if so, the join can materialize just those columns.
func prunableJoinCols(j Join, need []string) ([]string, bool) {
	for _, c := range need {
		l, r := resolveCount(j.Left, c), resolveCount(j.Right, c)
		if l+r != 1 {
			return nil, false
		}
	}
	return need, true
}

// splitJoinNeed distributes the join's needed columns to its children, always
// including each side's join key.
func splitJoinNeed(j Join, need []string) (left, right []string) {
	if need == nil {
		return nil, nil
	}
	left = []string{j.LeftKey}
	right = []string{j.RightKey}
	for _, c := range need {
		if resolveCount(j.Left, c) == 1 && resolveCount(j.Right, c) == 0 {
			left = unionCols(left, []string{c})
		} else if resolveCount(j.Right, c) == 1 && resolveCount(j.Left, c) == 0 {
			right = unionCols(right, []string{c})
		} else {
			// Unresolvable or ambiguous: stop pruning below this join.
			return nil, nil
		}
	}
	return left, right
}

// spjaInputNeed collects the columns an SPJA block reads from input i.
func spjaInputNeed(s SPJA, i int) []string {
	var need []string
	for _, k := range s.Keys {
		if k.Input == i {
			need = unionCols(need, []string{k.Col})
		}
	}
	for _, a := range s.Aggs {
		if a.Input == i {
			need = unionCols(need, expr.Columns(a.Arg))
			need = unionCols(need, expr.Columns(a.Filter))
		}
	}
	for j, je := range s.Joins {
		if je.LeftInput == i {
			need = unionCols(need, []string{je.LeftCol})
		}
		if j+1 == i {
			need = unionCols(need, []string{je.RightCol})
		}
	}
	if s.Filters[i] != nil {
		need = unionCols(need, expr.Columns(s.Filters[i]))
	}
	return need
}

func unionCols(dst []string, add []string) []string {
	for _, c := range add {
		if !containsStr(dst, c) {
			dst = append(dst, c)
		}
	}
	return dst
}
