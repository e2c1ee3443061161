package core

import (
	"slices"

	"smoke/internal/lineage"
	"smoke/internal/plan"
	"smoke/internal/storage"
)

// RestoreResult reassembles a Result from its persisted parts (the disk
// tier's exchange shape): the output relation, group counts, the captured
// lineage indexes, and the base-relation snapshots the capture's rids
// address. The restored result serves bound traces exactly like the original
// — Backward/Forward, distinct variants, and ConsumeGroupBy when the capture
// spans a single base. The segment holds no plan: a caller that kept the
// original's (ProducingPlan) gives it back with AttachPlan, and until then
// optimizer reasoning over scan equivalence — the forward-scatter rule, a
// scan-equivalent trace — is unavailable.
func RestoreResult(db *DB, out *storage.Relation, groupCounts []int64,
	capture *lineage.Capture, bases map[string]*storage.Relation) *Result {
	if capture == nil {
		capture = lineage.NewCapture()
	}
	res := &Result{
		Out: out, GroupCounts: groupCounts,
		db: db, capture: capture, bases: bases,
	}
	if len(bases) == 1 {
		for _, rel := range bases {
			res.baseRel = rel
		}
	}
	return res
}

// RestoreView reassembles a segment-backed trace view: the same wiring as
// RestoreResult, but flagged as a view. The server's registry answers small
// bound traces straight off a view — the encoded indexes alias the mapped
// segment, so a trace touching few groups faults in only the pages its seed
// lists need — without charging the memory budget or taking an LRU slot.
// A view becomes a regular retained result by simply being retained (the
// flag records provenance, not a capability difference), and takes back its
// plan like any restored result (AttachPlan).
func RestoreView(db *DB, out *storage.Relation, groupCounts []int64,
	capture *lineage.Capture, bases map[string]*storage.Relation) *Result {
	res := RestoreResult(db, out, groupCounts, capture, bases)
	res.view = true
	return res
}

// IsView reports whether the result was restored as a transient
// segment-backed trace view (RestoreView) rather than promoted into memory.
func (r *Result) IsView() bool { return r.view }

// ProducingPlan returns the optimized plan that produced the result, for a
// caller that keeps it across a demotion to give back to the restored copy
// (AttachPlan). It is nil when the result has none (restored and
// ConsumeGroupBy results), when it ran bound to query parameters — a
// restored result carries no bindings — and when the plan reads another
// result's lineage: kept past a demotion, its bound trace would hold that
// result's indexes in memory uncharged.
func (r *Result) ProducingPlan() plan.Node {
	if r.plan == nil || len(r.params) > 0 || bindsLineage(r.plan) {
		return nil
	}
	return r.plan
}

// AttachPlan gives a restored result (RestoreResult, RestoreView) the plan
// its original ran (ProducingPlan), so the optimizer reasons over it as it
// did over the original: it qualifies for the forward-scatter rule as the
// traced result and as a sibling, and a predicate-seeded trace may run as
// its scan equivalent. The plan is attached only when every relation it
// scans is, pointer for pointer, the restored base snapshot of that name:
// the rows the plan names are then the rows the capture's rids address.
// Reports whether it was attached; a result that already has a plan keeps
// it.
func (r *Result) AttachPlan(p plan.Node) bool {
	if p == nil || r.plan != nil || r.bases == nil {
		return false
	}
	for _, rel := range plan.Bases(p, nil) {
		if r.bases[rel.Name] != rel {
			return false
		}
	}
	r.plan = p
	return true
}

// bindsLineage reports whether n traces a captured result (a bound
// Backward or Forward).
func bindsLineage(n plan.Node) bool {
	switch node := n.(type) {
	case plan.Backward:
		return node.Bound != nil || node.Source != nil && bindsLineage(node.Source)
	case plan.Forward:
		return node.Bound != nil || node.Source != nil && bindsLineage(node.Source)
	case plan.Filter:
		return bindsLineage(node.Child)
	case plan.Project:
		return bindsLineage(node.Child)
	case plan.GroupBy:
		return bindsLineage(node.Child)
	case plan.OrderBy:
		return bindsLineage(node.Child)
	case plan.Limit:
		return bindsLineage(node.Child)
	case plan.Join:
		return bindsLineage(node.Left) || bindsLineage(node.Right)
	case plan.Union:
		return bindsLineage(node.Left) || bindsLineage(node.Right)
	case plan.SPJA:
		return slices.ContainsFunc(node.Inputs, bindsLineage)
	}
	return false
}

// TraceCost estimates what a backward trace with the given seeds against
// table would touch: trace is the summed encoded bytes of the seeds' rid
// lists (the pages an in-situ trace faults in), restore is the bytes a full
// promotion would re-retain (MemBytes). ok is false when the cost is
// unknowable — no encoded backward index for table, or a seed out of range —
// and the caller should fall back to promotion (whose own validation turns a
// bad seed into a client error).
func (r *Result) TraceCost(table string, seeds []lineage.Rid) (trace, restore int64, ok bool) {
	if r.capture == nil {
		return 0, 0, false
	}
	ix, err := r.capture.BackwardIndex(table)
	if err != nil || ix.Kind != lineage.EncodedMany || ix.Enc == nil {
		return 0, 0, false
	}
	n := ix.Enc.Len()
	for _, s := range seeds {
		if int(s) < 0 || int(s) >= n {
			return 0, 0, false
		}
		trace += int64(len(ix.Enc.ListBytes(int(s))))
	}
	return trace, r.MemBytes(), true
}

// Bases returns the base-relation snapshots a result's capture addresses,
// keyed by table name — what the disk tier persists alongside the indexes so
// forward seeds still resolve after a restart. Results carry explicit
// restored bases after RestoreResult; live results walk their plan.
func (r *Result) Bases() map[string]*storage.Relation {
	if r.bases != nil {
		return r.bases
	}
	out := map[string]*storage.Relation{}
	if r.baseRel != nil {
		out[r.baseRel.Name] = r.baseRel
	}
	if r.plan != nil {
		for _, rel := range plan.Bases(r.plan, nil) {
			out[rel.Name] = rel
		}
	}
	return out
}
