package exec

import (
	"strings"
	"testing"

	"smoke/internal/expr"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/plan"
	"smoke/internal/serr"
)

// TestForwardScatterUnmappedRidIsInternal hands the lowering a sibling whose
// filter is narrower than the traced view's — a shape the rule never builds
// — and requires the traced rids with no sibling row to fail the query with
// serr.Internal instead of dropping silently out of the counts.
func TestForwardScatterUnmappedRidIsInternal(t *testing.T) {
	rel := traceTestRel()
	view := baseGroupBy(rel)
	a, err := RunPlan(view, PlanOpts{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	narrow := plan.GroupBy{
		Child: plan.Scan{Table: "sales", Rel: rel, Filter: expr.LtE(expr.C("amount"), expr.F(50))},
		Keys:  []string{"region"},
		Aggs:  []plan.AggDef{{Fn: ops.Count, Name: "c"}},
	}
	b, err := RunPlan(narrow, PlanOpts{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	n := plan.ForwardScatter{
		Trace: plan.Backward{Source: view, Table: "sales", Rel: rel, SeedRids: []lineage.Rid{1},
			Bound: &plan.BoundTrace{Out: a.Out, Capture: a.Capture}},
		Key:     "region",
		Aggs:    []plan.AggDef{{Fn: ops.Count, Name: "n"}},
		Sibling: plan.Sibling{Name: "narrow", Plan: narrow, Out: b.Out, Capture: b.Capture},
	}
	_, err = RunPlan(n, PlanOpts{})
	if serr.KindOf(err) != serr.Internal || !strings.Contains(err.Error(), "narrow") {
		t.Fatalf("got %v, want an Internal error naming the sibling", err)
	}
}
