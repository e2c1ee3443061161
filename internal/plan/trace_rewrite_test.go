package plan

import (
	"strings"
	"testing"

	"smoke/internal/cube"
	"smoke/internal/expr"
	"smoke/internal/ops"
)

// The generalized scan-equivalence seam: an unbound predicate-seeded
// Backward over a bare filtered scan (no aggregation) rewrites to a single
// filtered scan, conjoining the base filter and the seed predicate.
func TestTraceRewriteBareFilteredScan(t *testing.T) {
	_, fact := dimFact()
	n := rewriteTraces(Backward{
		Source:   Scan{Table: "fact", Rel: fact, Filter: expr.LtE(expr.C("v"), expr.F(5))},
		Table:    "fact",
		Rel:      fact,
		SeedPred: expr.EqE(expr.C("k"), expr.I(3)),
	})
	s := Format(n)
	if strings.Contains(s, "Backward") {
		t.Fatalf("bare filtered scan not rewritten:\n%s", s)
	}
	if !strings.Contains(s, "Scan fact") || !strings.Contains(s, "(v < 5)") || !strings.Contains(s, "(k = 3)") {
		t.Fatalf("rewrite lost a conjunct:\n%s", s)
	}
}

// A grouped source still rewrites only when the seed predicate is over the
// grouping keys; an aggregate-column seed keeps the trace node.
func TestTraceRewriteRequiresKeySeed(t *testing.T) {
	_, fact := dimFact()
	grouped := GroupBy{
		Child: Scan{Table: "fact", Rel: fact},
		Keys:  []string{"k"},
		Aggs:  []AggDef{{Fn: ops.Count, Name: "c"}},
	}
	keySeed := rewriteTraces(Backward{
		Source: grouped, Table: "fact", Rel: fact,
		SeedPred: expr.EqE(expr.C("k"), expr.I(1)),
	})
	if strings.Contains(Format(keySeed), "Backward") {
		t.Fatalf("key-predicate seed over grouped source should rewrite:\n%s", Format(keySeed))
	}
	aggSeed := rewriteTraces(Backward{
		Source: grouped, Table: "fact", Rel: fact,
		SeedPred: expr.GeE(expr.C("c"), expr.I(2)),
	})
	if !strings.Contains(Format(aggSeed), "Backward") {
		t.Fatalf("aggregate-column seed must keep the trace node:\n%s", Format(aggSeed))
	}
}

// ProfileTrace drives Auto's plan-shape choice: join plans report
// MultiInput, single-input chains do not.
func TestProfileTraceMultiInput(t *testing.T) {
	dim, fact := dimFact()
	join := joinQuery(dim, fact, []AggDef{{Fn: ops.Count, Name: "c"}})
	if !ProfileTrace(join).MultiInput {
		t.Fatal("join plan should profile as multi-input")
	}
	single := GroupBy{
		Child: Scan{Table: "fact", Rel: fact, Filter: expr.LtE(expr.C("v"), expr.F(5))},
		Keys:  []string{"k"},
		Aggs:  []AggDef{{Fn: ops.Count, Name: "c"}},
	}
	if ProfileTrace(single).MultiInput {
		t.Fatal("single-table plan should not profile as multi-input")
	}
}

// A group-by carrying capture push-downs (§4.2) keeps only what they
// captured, so it is never scan-equivalent and never fuses; EXPLAIN prints
// the annotation and every push-down changes the fingerprint.
func TestPushdownAnnotatedGroupBy(t *testing.T) {
	dim, fact := dimFact()
	plain := GroupBy{
		Child: Scan{Table: "fact", Rel: fact},
		Keys:  []string{"k"},
		Aggs:  []AggDef{{Fn: ops.Count, Name: "c"}},
	}
	annotated := plain
	annotated.Pushdown = &Pushdown{Filter: expr.LtE(expr.C("v"), expr.F(5)), PartitionBy: []string{"v"}}

	if s := Format(rewriteTraces(Backward{Source: annotated, Table: "fact", Rel: fact})); !strings.Contains(s, "Backward") {
		t.Fatalf("unbound trace over a push-down group-by rewritten to a scan:\n%s", s)
	}
	if b := rewriteTraces(Backward{Source: annotated, Table: "fact", Rel: fact, Bound: &BoundTrace{}}).(Backward); b.ScanEquiv != nil {
		t.Fatal("bound trace over a push-down group-by annotated scan-equivalent")
	}
	if ProfileTrace(annotated).ScanRewritable {
		t.Fatal("push-down group-by profiled scan-rewritable")
	}

	if s := Format(annotated); !strings.Contains(s, "pushdown=[filter=(v < 5) partition=[v]]") {
		t.Fatalf("EXPLAIN lacks the annotation:\n%s", s)
	}
	if s := Format(plain) + Fingerprint(plain); strings.Contains(s, "pushdown") {
		t.Fatalf("unannotated plan mentions push-downs:\n%s", s)
	}
	seen := map[string]bool{Fingerprint(plain): true}
	for i, pd := range []*Pushdown{
		{Filter: expr.LtE(expr.C("v"), expr.F(5))},
		{Filter: expr.LtE(expr.C("v"), expr.F(6))},
		{PartitionBy: []string{"v"}},
		{CountsByKey: []int32{1, 2}},
		{CountsByKey: []int32{1, 3}},
		{Cube: &cube.Spec{Dims: []string{"v"}, Aggs: []cube.AggDef{{Fn: ops.Count, Name: "c"}}}},
	} {
		g := plain
		g.Pushdown = pd
		fp := Fingerprint(g)
		if seen[fp] {
			t.Errorf("push-down %d fingerprints like an earlier plan: %s", i, fp)
		}
		seen[fp] = true
	}

	join := joinQuery(dim, fact, []AggDef{{Fn: ops.Count, Name: "c"}}).(GroupBy)
	join.Pushdown = &Pushdown{PartitionBy: []string{"v"}}
	if s := Format(OptimizeNoTrace(join, Opts{})); strings.Contains(s, "SPJA") || !strings.Contains(s, "pushdown=") {
		t.Fatalf("push-down group-by over a pk-fk join fused or lost its annotation:\n%s", s)
	}
}
