package plan

import "smoke/internal/ops"

// Fence is why a statement, or a trace of a scattered result, cannot be
// answered by scatter/gather element-identically to one node. The zero value
// admits. Codes are stable: the coordinator counts fences by code on
// /healthz and names the code in its 422 reply.
type Fence uint8

// The fence codes, stated in full by the fences table. The codes from
// FenceRetain on are request-level: the coordinator raises them for bound
// traces of a scattered result, whatever its plan.
const (
	Admit Fence = iota
	FenceMultiSharded
	FenceBuildSide
	FenceJoinSource
	FenceCountDistinct
	FenceHaving
	FenceOrderLimit
	FenceInnerGroupBy
	FenceForward
	FenceBackward
	FenceRetain
	FenceConsumingForward
	FenceAutoOrder
	FenceReplicatedTrace
	NumFences // bounds the codes: an array index for per-code counters
)

// fences is the one table of reason codes: the stable code and the reason a
// 422 states.
var fences = [NumFences]struct{ code, reason string }{
	Admit:                 {"admit", "admitted"},
	FenceMultiSharded:     {"multi_sharded", "the statement reads more than one sharded source; at most one is supported"},
	FenceBuildSide:        {"build_side", "the sharded table must be the LAST join input (the probe side); write FROM <replicated> JOIN ... JOIN <sharded>"},
	FenceJoinSource:       {"join_source", "join inputs other than the sharded table must be plain replicated tables"},
	FenceCountDistinct:    {"count_distinct", "COUNT(DISTINCT) does not decompose across shards"},
	FenceHaving:           {"having", "HAVING on an aggregate over a sharded table filters partial aggregates (a HAVING on group keys only is admitted)"},
	FenceOrderLimit:       {"order_limit", "ORDER BY / LIMIT over a sharded table cut before the merge"},
	FenceInnerGroupBy:     {"inner_group_by", "the sharded table must feed the statement's root group-by directly; a subquery over it aggregates partial rows"},
	FenceForward:          {"forward", "LINEAGE FORWARD over a sharded table needs the traced output whole"},
	FenceBackward:         {"backward", "LINEAGE BACKWARD under sharding must collapse to a scan of the sharded table (a single-table traced query seeded on group keys); traced joins expand in per-shard order"},
	FenceRetain:           {"retain", "retaining a trace of a scattered result is not supported; re-run the consuming query as a retained base query"},
	FenceConsumingForward: {"consuming_forward", "consuming forward traces of a scattered result are not supported"},
	FenceAutoOrder:        {"auto_order", "this trace's row order depends on strategy auto's per-node cost decision; request an explicit strategy or seed fewer rows"},
	FenceReplicatedTrace:  {"replicated_trace", "traces against a scattered result must address the sharded table, not a replicated one"},
}

// String is the fence's stable reason code.
func (f Fence) String() string { return fences[f].code }

// Reason is the fence's human-readable explanation.
func (f Fence) Reason() string { return fences[f].reason }

// Scatter is the merge recipe of a plan admitted for scatter/gather: the one
// sharded table it reads, and the root group-by's keys and aggregate
// functions in output order (keys first, then aggregates — OutSchema's
// contract). Table is "" when the plan reads no sharded table: any one shard
// holds its whole input.
type Scatter struct {
	Table string
	Keys  []string
	Aggs  []ops.AggFn
}

// Distribute is the plan layer's answer to a scatter/gather coordinator
// (internal/shard) that splits some base tables by rid range across shards
// and replicates the rest: can every shard run the optimized plan n over its
// slice, and the partial outputs fold into exactly the single node's output —
// the same rows in the same order? It is a pure function of the plan and the
// set of sharded tables. A shard slice is a very large morsel, so the
// admitted shape is the one whose merge is concatenation in partition order:
// a root GroupBy or SPJA whose input reads the one sharded table as its last
// (probe) input. Both join kernels build on the left and probe the right, so
// output order and every per-group lineage list follow the probe scan, and
// the shards' rid-contiguous slices concatenate into the single node's
// order. Filters the optimizer could not sink below the root group-by (HAVING
// on an aggregate), ORDER BY/LIMIT, and traces it did not collapse to scans
// are fenced.
func Distribute(n Node, sharded func(table string) bool) (Scatter, Fence) {
	switch refs := shardedRefs(n, sharded); {
	case refs == 0:
		return Scatter{}, Admit
	case refs > 1:
		return Scatter{}, FenceMultiSharded
	}
	var s Scatter
	var probe Node
	switch root := n.(type) {
	case OrderBy, Limit:
		return Scatter{}, FenceOrderLimit
	case ForwardScatter:
		// A bound trace regrouped through a sibling result: like any trace
		// the optimizer did not collapse to a scan, it expands in per-shard
		// order.
		return Scatter{}, FenceBackward
	case Filter:
		return Scatter{}, FenceHaving
	case GroupBy:
		s.Keys = root.Keys
		for _, a := range root.Aggs {
			if a.Fn == ops.CountDistinct {
				return Scatter{}, FenceCountDistinct
			}
			s.Aggs = append(s.Aggs, a.Fn)
		}
		probe = root.Child
	case SPJA:
		for _, k := range root.Keys {
			s.Keys = append(s.Keys, k.Col)
		}
		for _, a := range root.Aggs {
			s.Aggs = append(s.Aggs, a.Fn)
		}
		last := len(root.Inputs) - 1
		for _, in := range root.Inputs[:last] {
			if f := buildInput(in, sharded); f != Admit {
				return Scatter{}, f
			}
		}
		probe = root.Inputs[last]
	default:
		return Scatter{}, FenceInnerGroupBy
	}
	table, f := probeInput(probe, sharded)
	if f != Admit {
		return Scatter{}, f
	}
	s.Table = table
	return s, Admit
}

// probeInput checks the input of the root group-by — a (filtered) scan of
// the sharded table, or a join chain whose build inputs are plain replicated
// tables and whose last probe input is that scan — and names the table.
// Distribute has counted exactly one sharded source, so once the build
// inputs are clear of it the scan the probe spine ends in is the sharded one.
func probeInput(n Node, sharded func(string) bool) (string, Fence) {
	switch node := n.(type) {
	case Scan:
		return node.Table, Admit
	case Filter:
		return probeInput(node.Child, sharded)
	case Project:
		return probeInput(node.Child, sharded)
	case Join:
		if f := buildInput(node.Left, sharded); f != Admit {
			return "", f
		}
		return probeInput(node.Right, sharded)
	case Backward:
		return "", FenceBackward
	case Forward:
		return "", FenceForward
	}
	return "", FenceInnerGroupBy
}

// buildInput checks one build-side input: it must not touch the sharded
// table, and it must be a plain table (scans, filters and joins of them) —
// subqueries and traces on the build side stay fenced.
func buildInput(n Node, sharded func(string) bool) Fence {
	if shardedRefs(n, sharded) > 0 {
		return FenceBuildSide
	}
	switch node := n.(type) {
	case Scan:
		return Admit
	case Filter:
		return buildInput(node.Child, sharded)
	case Project:
		return buildInput(node.Child, sharded)
	case Join:
		if f := buildInput(node.Left, sharded); f != Admit {
			return f
		}
		return buildInput(node.Right, sharded)
	}
	return FenceJoinSource
}

// shardedRefs counts the sources under n that read a sharded table: each
// scan of one, and each trace touching one (a trace is one source, whatever
// its traced query reads).
func shardedRefs(n Node, sharded func(string) bool) int {
	switch node := n.(type) {
	case Scan:
		if sharded(node.Table) {
			return 1
		}
	case Filter:
		return shardedRefs(node.Child, sharded)
	case Project:
		return shardedRefs(node.Child, sharded)
	case Join:
		return shardedRefs(node.Left, sharded) + shardedRefs(node.Right, sharded)
	case GroupBy:
		return shardedRefs(node.Child, sharded)
	case Union:
		return shardedRefs(node.Left, sharded) + shardedRefs(node.Right, sharded)
	case OrderBy:
		return shardedRefs(node.Child, sharded)
	case Limit:
		return shardedRefs(node.Child, sharded)
	case SPJA:
		refs := 0
		for _, in := range node.Inputs {
			refs += shardedRefs(in, sharded)
		}
		return refs
	case Backward:
		return traceRefs(node.Table, node.Source, sharded)
	case ForwardScatter:
		return traceRefs(node.Trace.Table, node.Trace.Source, sharded)
	case Forward:
		return traceRefs(node.Table, node.Source, sharded)
	}
	return 0
}

func traceRefs(table string, source Node, sharded func(string) bool) int {
	if sharded(table) || (source != nil && shardedRefs(source, sharded) > 0) {
		return 1
	}
	return 0
}
