package plan

import (
	"strings"
	"testing"

	"smoke/internal/expr"
	"smoke/internal/lineage"
	"smoke/internal/ops"
)

// scatterFixture is a consuming COUNT over a bound trace of a view grouped
// by k, and a sibling view grouped by v over the same filtered scan.
func scatterFixture() (GroupBy, Sibling) {
	rel := fpRel("t", 4)
	filter := expr.LtE(expr.C("k"), expr.I(9))
	view := func(key string) GroupBy {
		return GroupBy{Child: Scan{Table: "t", Rel: rel, Filter: filter}, Keys: []string{key},
			Aggs: []AggDef{{Fn: ops.Count, Name: "cnt"}}}
	}
	capture := lineage.NewCapture()
	capture.SetForward("t", lineage.NewOneToOne([]lineage.Rid{0, 1, 0, -1}))
	sib := Sibling{Name: "byv", Plan: view("v"), Out: fpRel("out", 2), Capture: capture}
	sib.Out.Schema[0].Name = "v"
	q := GroupBy{
		Child: Backward{Source: view("k"), Table: "t", Rel: rel, SeedRids: []lineage.Rid{0},
			Bound: &BoundTrace{Out: rel, Capture: lineage.NewCapture()}},
		Keys: []string{"v"},
		Aggs: []AggDef{{Fn: ops.Count, Name: "n"}},
	}
	return q, sib
}

func TestForwardScatterRule(t *testing.T) {
	q, sib := scatterFixture()
	got, traces := Optimize(q, Opts{Siblings: []Sibling{sib}})
	fs, ok := got.(ForwardScatter)
	if !ok || fs.Sibling.Name != "byv" {
		t.Fatalf("rule did not fire: %s", Format(got))
	}
	if last := traces[len(traces)-1]; last.Rule != "forward-scatter" || !strings.Contains(last.Plan, "sibling=byv") {
		t.Fatalf("EXPLAIN does not name the rewrite and its sibling: %+v", last)
	}
	if Fingerprint(got) == Fingerprint(q) {
		t.Fatal("the rewritten plan fingerprints like the hash path")
	}
	other := sib
	other.Capture = lineage.NewCapture()
	fw, _ := sib.Capture.ForwardIndex("t")
	other.Capture.SetForward("t", fw)
	if Fingerprint(RewriteForwardScatter(q, []Sibling{other})) == Fingerprint(got) {
		t.Fatal("rewrites through different sibling captures fingerprint equal")
	}
	if s, err := OutSchema(got); err != nil || len(s) != 2 || s[0].Name != "v" || s[1].Name != "n" {
		t.Fatalf("OutSchema = %v, %v", s, err)
	}

	refuse := map[string]func(q GroupBy, s Sibling) (GroupBy, Sibling){
		"sum aggregate": func(q GroupBy, s Sibling) (GroupBy, Sibling) {
			q.Aggs = append(q.Aggs, AggDef{Fn: ops.Sum, Arg: expr.C("v")})
			return q, s
		},
		"two keys": func(q GroupBy, s Sibling) (GroupBy, Sibling) {
			q.Keys = []string{"v", "k"}
			return q, s
		},
		"unbound trace": func(q GroupBy, s Sibling) (GroupBy, Sibling) {
			bt := q.Child.(Backward)
			bt.Bound = nil
			q.Child = bt
			return q, s
		},
		"distinct trace": func(q GroupBy, s Sibling) (GroupBy, Sibling) {
			bt := q.Child.(Backward)
			bt.Distinct = true
			q.Child = bt
			return q, s
		},
		"parameterized filter": func(q GroupBy, s Sibling) (GroupBy, Sibling) {
			p := expr.LtE(expr.C("k"), expr.P("hi"))
			bt := q.Child.(Backward)
			src := bt.Source.(GroupBy)
			sc := src.Child.(Scan)
			sc.Filter = p
			src.Child = sc
			bt.Source = src
			q.Child = bt
			sb := s.Plan.(GroupBy)
			ssc := sb.Child.(Scan)
			ssc.Filter = p
			sb.Child = ssc
			s.Plan = sb
			return q, s
		},
		"sibling grouped by another key": func(q GroupBy, s Sibling) (GroupBy, Sibling) {
			sb := s.Plan.(GroupBy)
			sb.Keys = []string{"k"}
			s.Plan = sb
			return q, s
		},
		"sibling without a forward index": func(q GroupBy, s Sibling) (GroupBy, Sibling) {
			s.Capture = lineage.NewCapture()
			return q, s
		},
	}
	for name, mutate := range refuse {
		q, s := mutate(scatterFixture())
		if _, ok := RewriteForwardScatter(q, []Sibling{s}).(ForwardScatter); ok {
			t.Errorf("%s: the rule fired", name)
		}
	}
}

// TestDistributeFencesForwardScatter: the coordinator plans without
// siblings, so it never sees the node; if it did, the trace is fenced like
// any backward trace of a sharded table.
func TestDistributeFencesForwardScatter(t *testing.T) {
	q, sib := scatterFixture()
	n := RewriteForwardScatter(q, []Sibling{sib})
	if _, f := Distribute(n, func(table string) bool { return table == "t" }); f != FenceBackward {
		t.Fatalf("fence = %v, want %v", f, FenceBackward)
	}
}
