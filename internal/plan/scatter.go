package plan

import (
	"reflect"

	"smoke/internal/expr"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/storage"
)

// ForwardScatter is the paper's BT+FT (§6.5.1, Listing 1) as a plan node: a
// capture-off COUNT group-by over a bound backward trace, answered through a
// retained sibling result's forward index instead of a hash table. Each rid
// the trace expands maps straight to its group — the sibling's output row —
// and the node counts per row, emitting groups in first-touch order with
// their keys read from the sibling's output. First touch over the expansion
// is the order the hash group-by discovers its groups in over the same rids,
// so rows, row order and group counts match the GroupBy it replaces.
//
// Only the forward-scatter rule (RewriteForwardScatter) builds it, and only
// when every traced row provably maps to a sibling row (see the rule).
type ForwardScatter struct {
	Trace   Backward // the bound trace whose expanded rids are counted
	Key     string   // the one group key, the sibling's own
	Aggs    []AggDef // COUNT(*) aggregates: each reads its group's row count
	Sibling Sibling
}

func (ForwardScatter) isNode() {}

// Sibling is an executed result offered to the forward-scatter rule: the
// optimized plan that produced it, its output rows and its captured lineage.
// Name is how EXPLAIN names it (the server passes the session's result
// name).
type Sibling struct {
	Name    string
	Plan    Node
	Out     *storage.Relation
	Capture *lineage.Capture
}

// RewriteForwardScatter is the forward-scatter rule. It rewrites a root
// GroupBy([k], COUNT(*)…) over a bound Backward trace into a ForwardScatter
// reading the first sibling, in the order given, that qualifies:
//
//   - the traced result A and the sibling B were both produced by a
//     GroupBy over a Scan of the same *storage.Relation, with structurally
//     equal scan filters that read no parameter, and neither group-by
//     carries a capture push-down — so A's lineage covers exactly the rows
//     passing the filter, and B's forward index maps each of them to a row;
//   - B groups by k alone, and holds a one-to-one forward index over the
//     whole traced relation;
//   - the trace has no consuming filter and no set semantics, and every
//     aggregate is an unfiltered COUNT(*).
//
// Any other shape, or no qualifying sibling, returns n unchanged. The rule
// knows nothing of capture: the consuming query must run capture-off, which
// its caller (core.Query.Run) checks, because the node captures no lineage.
func RewriteForwardScatter(n Node, sibs []Sibling) Node {
	gb, ok := n.(GroupBy)
	if !ok || len(sibs) == 0 || gb.Pushdown != nil || len(gb.Keys) != 1 || len(gb.Aggs) == 0 {
		return n
	}
	for _, a := range gb.Aggs {
		if a.Fn != ops.Count || a.Arg != nil || a.Filter != nil {
			return n
		}
	}
	bt, ok := gb.Child.(Backward)
	if !ok || bt.Bound == nil || bt.Filter != nil || bt.Distinct {
		return n
	}
	_, traced, ok := groupedScan(bt.Source)
	if !ok || traced.Rel != bt.Rel || traced.Table != bt.Table {
		return n
	}
	key := gb.Keys[0]
	for _, s := range sibs {
		if siblingQualifies(s, key, traced) {
			return ForwardScatter{Trace: bt, Key: key, Aggs: gb.Aggs, Sibling: s}
		}
	}
	return n
}

// groupedScan matches the one producing-plan shape the rule reads lineage
// of: a group-by without capture push-downs directly over a scan whose
// filter reads no parameter (a parameter binds per result, so two equal
// filter trees need not select the same rows).
func groupedScan(n Node) (GroupBy, Scan, bool) {
	gb, ok := n.(GroupBy)
	if !ok || gb.Pushdown != nil {
		return GroupBy{}, Scan{}, false
	}
	sc, ok := gb.Child.(Scan)
	if !ok || hasParam(sc.Filter) {
		return GroupBy{}, Scan{}, false
	}
	return gb, sc, true
}

// siblingQualifies reports whether s can answer a COUNT group-by on key over
// rows of traced: same relation and filter, grouped by key alone, with a
// one-to-one forward index over every row of the relation.
func siblingQualifies(s Sibling, key string, traced Scan) bool {
	gb, sc, ok := groupedScan(s.Plan)
	if !ok || len(gb.Keys) != 1 || gb.Keys[0] != key ||
		sc.Rel != traced.Rel || sc.Table != traced.Table || !reflect.DeepEqual(sc.Filter, traced.Filter) {
		return false
	}
	if s.Out == nil || s.Capture == nil || s.Out.Schema.Col(key) < 0 {
		return false
	}
	fw, err := s.Capture.ForwardIndex(traced.Table)
	if err != nil || fw.Len() != traced.Rel.N {
		return false
	}
	switch fw.Kind {
	case lineage.OneToOne, lineage.EncodedOne, lineage.SparseOne:
		return true
	}
	return false
}

// hasParam reports whether e references a query parameter.
func hasParam(e expr.Expr) (found bool) {
	expr.Walk(e, func(x expr.Expr) {
		_, p := x.(expr.Param)
		found = found || p
	})
	return found
}
