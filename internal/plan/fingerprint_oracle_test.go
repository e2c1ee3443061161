package plan

import (
	"fmt"
	"strings"
	"testing"

	"smoke/internal/cube"
	"smoke/internal/expr"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/storage"
)

// The fmt-based fingerprint the appending one replaced, kept as the oracle:
// fingerprints key the server's result cache, so the rewrite must not move
// them by a byte. The ForwardScatter case is the node's form in the same
// idiom.

func fingerprintFmt(b *strings.Builder, n Node) {
	switch node := n.(type) {
	case Scan:
		fmt.Fprintf(b, "scan(%s,n=%d,rel=%p", node.Table, node.Rel.N, node.Rel)
		if node.Filter != nil {
			fmt.Fprintf(b, ",filter=%s", node.Filter)
		}
		b.WriteByte(')')
	case Filter:
		fmt.Fprintf(b, "filter(%s,", node.Pred)
		fingerprintFmt(b, node.Child)
		b.WriteByte(')')
	case Project:
		fmt.Fprintf(b, "project(%s,", strings.Join(node.Cols, "|"))
		fingerprintFmt(b, node.Child)
		b.WriteByte(')')
	case Join:
		fmt.Fprintf(b, "join(%s=%s,qual=%s,pkfk=%t,cols=%s,",
			node.LeftKey, node.RightKey, node.LeftQual, node.PKFK, strings.Join(node.Cols, "|"))
		fingerprintFmt(b, node.Left)
		b.WriteByte(',')
		fingerprintFmt(b, node.Right)
		b.WriteByte(')')
	case GroupBy:
		fmt.Fprintf(b, "groupby(keys=%s,aggs=%s,", strings.Join(node.Keys, "|"), formatAggsFmt(node.Aggs))
		if node.Pushdown != nil {
			fmt.Fprintf(b, "pushdown=%s,", pushdownFmt(node.Pushdown))
		}
		fingerprintFmt(b, node.Child)
		b.WriteByte(')')
	case Union:
		fmt.Fprintf(b, "union(attrs=%s,", strings.Join(node.Attrs, "|"))
		fingerprintFmt(b, node.Left)
		b.WriteByte(',')
		fingerprintFmt(b, node.Right)
		b.WriteByte(')')
	case OrderBy:
		b.WriteString("orderby(")
		for i, k := range node.Keys {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(k.Col)
			if k.Desc {
				b.WriteString(" desc")
			}
		}
		b.WriteByte(',')
		fingerprintFmt(b, node.Child)
		b.WriteByte(')')
	case Limit:
		fmt.Fprintf(b, "limit(%d,", node.N)
		fingerprintFmt(b, node.Child)
		b.WriteByte(')')
	case SPJA:
		b.WriteString("spja(keys=")
		for i, k := range node.Keys {
			if i > 0 {
				b.WriteByte('|')
			}
			fmt.Fprintf(b, "in%d.%s", k.Input, k.Col)
		}
		b.WriteString(",aggs=")
		for i, a := range node.Aggs {
			if i > 0 {
				b.WriteByte('|')
			}
			arg := "*"
			if a.Arg != nil {
				arg = a.Arg.String()
			}
			fmt.Fprintf(b, "%s(in%d.%s)", a.Fn, a.Input, arg)
			if a.Filter != nil {
				fmt.Fprintf(b, " if %s", a.Filter)
			}
			fmt.Fprintf(b, " as %s", a.Name)
		}
		b.WriteString(",joins=")
		for i, j := range node.Joins {
			if i > 0 {
				b.WriteByte('|')
			}
			fmt.Fprintf(b, "in%d.%s=%s", j.LeftInput, j.LeftCol, j.RightCol)
		}
		for i, in := range node.Inputs {
			b.WriteByte(',')
			if node.Filters[i] != nil {
				fmt.Fprintf(b, "[%s]", node.Filters[i])
			}
			fingerprintFmt(b, in)
		}
		b.WriteByte(')')
	case Backward:
		fmt.Fprintf(b, "backward(%s,rel=%p,%s", node.Table, node.Rel,
			traceFingerprintFmt(node.SeedRids, node.SeedPred, node.Filter, node.Distinct, node.Bound))
		if node.Source != nil {
			b.WriteByte(',')
			fingerprintFmt(b, node.Source)
		}
		b.WriteByte(')')
	case Forward:
		fmt.Fprintf(b, "forward(%s,rel=%p,%s", node.Table, node.Rel,
			traceFingerprintFmt(node.SeedRids, node.SeedPred, node.Filter, node.Distinct, node.Bound))
		if node.Source != nil {
			b.WriteByte(',')
			fingerprintFmt(b, node.Source)
		}
		b.WriteByte(')')
	case ForwardScatter:
		fmt.Fprintf(b, "fwscatter(key=%s,aggs=%s,sibling=%p,", node.Key, formatAggsFmt(node.Aggs), node.Sibling.Capture)
		fingerprintFmt(b, node.Trace)
		b.WriteByte(')')
	default:
		fmt.Fprintf(b, "?%T", n)
	}
}

// traceFingerprint canonicalizes the attributes shared by the two trace
// nodes. Seed rid lists are content-hashed: two traces with the same seeds
// fingerprint equal, and a million-rid seed set does not inline a
// million-entry string.
func traceFingerprintFmt(rids []lineage.Rid, seedPred, filter expr.Expr,
	distinct bool, bound *BoundTrace) string {
	var b strings.Builder
	switch {
	case rids != nil:
		fmt.Fprintf(&b, "seeds=rids:%d:%x", len(rids), hashRids(rids))
	case seedPred != nil:
		fmt.Fprintf(&b, "seeds=pred:%s", seedPred)
	default:
		b.WriteString("seeds=all")
	}
	if filter != nil {
		fmt.Fprintf(&b, ",filter=%s", filter)
	}
	if distinct {
		b.WriteString(",distinct")
	}
	if bound != nil {
		fmt.Fprintf(&b, ",bound=%p", bound.Capture)
	}
	return b.String()
}

// formatAggsFmt and pushdownFmt are the fmt renderings the fingerprint used.
func formatAggsFmt(aggs []AggDef) string {
	parts := make([]string, len(aggs))
	for i, a := range aggs {
		arg := "*"
		if a.Arg != nil {
			arg = a.Arg.String()
		}
		s := fmt.Sprintf("%s(%s)", a.Fn, arg)
		if a.Filter != nil {
			s += fmt.Sprintf(" filter=%s", a.Filter)
		}
		name := a.Name
		if name == "" {
			name = fmt.Sprintf("%s_%d", a.Fn, i)
		}
		parts[i] = s + " AS " + name
	}
	return strings.Join(parts, ", ")
}

func pushdownFmt(p *Pushdown) string {
	var parts []string
	if p.CountsByKey != nil {
		parts = append(parts, fmt.Sprintf("counts=%d:%x", len(p.CountsByKey), hashRids(p.CountsByKey)))
	}
	if p.Filter != nil {
		parts = append(parts, fmt.Sprintf("filter=%s", p.Filter))
	}
	if p.PartitionBy != nil {
		parts = append(parts, fmt.Sprintf("partition=[%s]", strings.Join(p.PartitionBy, ", ")))
	}
	if p.Cube != nil {
		aggs := make([]AggDef, len(p.Cube.Aggs))
		for i, a := range p.Cube.Aggs {
			aggs[i] = AggDef{Fn: a.Fn, Arg: a.Arg, Name: a.Name}
		}
		parts = append(parts, fmt.Sprintf("cube=[%s; %s]", strings.Join(p.Cube.Dims, ", "), formatAggsFmt(aggs)))
	}
	return strings.Join(parts, " ")
}

// TestFingerprintMatchesFmtOracle renders one plan of every node kind —
// filters, push-downs, default aggregate names, rid- and predicate-seeded
// traces, bound and unbound — and requires the appending fingerprint to be
// byte-identical to the fmt oracle.
func TestFingerprintMatchesFmtOracle(t *testing.T) {
	rel := fpRel("t", 100)
	dim := storage.NewRelation("d", storage.Schema{{Name: "g", Type: storage.TInt}, {Name: "w", Type: storage.TFloat}}, 7)
	scan := Scan{Table: "t", Rel: rel, Filter: expr.AndE(expr.GeE(expr.C("k"), expr.I(-3)), expr.LtE(expr.C("v"), expr.F(2.5)))}
	aggs := []AggDef{
		{Fn: ops.Count, Name: "n"},
		{Fn: ops.Sum, Arg: expr.C("v")},
		{Fn: ops.Count, Filter: expr.EqE(expr.C("k"), expr.I(1))},
		{Fn: ops.Max, Arg: expr.MulE(expr.C("v"), expr.F(0.5)), Name: "mx"},
	}
	gb := GroupBy{Child: scan, Keys: []string{"k"}, Aggs: aggs}
	bound := &BoundTrace{Out: rel, Capture: lineage.NewCapture()}
	bw := Backward{Source: gb, Table: "t", Rel: rel, SeedRids: []lineage.Rid{3, 1, 3},
		Filter: expr.GtE(expr.C("v"), expr.F(1)), Distinct: true, Bound: bound}
	plans := []Node{
		Scan{Table: "t", Rel: rel},
		scan,
		Filter{Child: scan, Pred: expr.Not{E: expr.EqE(expr.C("k"), expr.I(0))}},
		Project{Child: scan, Cols: []string{"k", "v"}},
		Join{Left: Scan{Table: "d", Rel: dim}, Right: scan, LeftKey: "g", RightKey: "k", LeftQual: "d", PKFK: true, Cols: []string{"g", "v"}},
		gb,
		GroupBy{Child: Scan{Table: "t", Rel: rel}, Keys: []string{"k", "v"}, Aggs: aggs[:2], Pushdown: &Pushdown{
			CountsByKey: []int32{4, 0, 9}, Filter: expr.LtE(expr.C("k"), expr.P("p")), PartitionBy: []string{"v", "k"},
			Cube: &cube.Spec{Dims: []string{"k"}, Aggs: []cube.AggDef{{Fn: ops.Avg, Arg: expr.C("v"), Name: "a"}}},
		}},
		Union{Left: scan, Right: Scan{Table: "t", Rel: rel}, Attrs: []string{"k"}},
		OrderBy{Child: gb, Keys: []SortKey{{Col: "k", Desc: true}, {Col: "n"}}},
		Limit{Child: gb, N: 12},
		SPJA{
			Inputs:  []Node{Scan{Table: "d", Rel: dim}, Scan{Table: "t", Rel: rel}},
			Filters: []expr.Expr{nil, expr.GtE(expr.C("v"), expr.F(0))},
			Joins:   []SPJAJoin{{LeftInput: 0, LeftCol: "g", RightCol: "k"}},
			Keys:    []SPJAKey{{Input: 0, Col: "g"}},
			Aggs:    []SPJAAgg{{Fn: ops.Sum, Input: 1, Arg: expr.C("v"), Filter: expr.EqE(expr.C("k"), expr.I(2)), Name: "s"}, {Fn: ops.Count, Input: 1}},
		},
		bw,
		Backward{Source: gb, Table: "t", Rel: rel, SeedPred: expr.GeE(expr.C("n"), expr.I(2))},
		Backward{Source: gb, Table: "t", Rel: rel},
		Forward{Source: gb, Table: "t", Rel: rel, SeedRids: []lineage.Rid{}, Bound: bound},
		Forward{Source: gb, Table: "t", Rel: rel, SeedPred: expr.LtE(expr.C("k"), expr.I(4)), Filter: expr.GtE(expr.C("n"), expr.I(1))},
		ForwardScatter{Trace: Backward{Source: gb, Table: "t", Rel: rel, SeedRids: []lineage.Rid{0}, Bound: bound},
			Key: "k", Aggs: []AggDef{{Fn: ops.Count, Name: "cnt"}, {Fn: ops.Count}},
			Sibling: Sibling{Name: "v1", Plan: gb, Out: rel, Capture: lineage.NewCapture()}},
	}
	for _, p := range plans {
		var want strings.Builder
		fingerprintFmt(&want, p)
		if got := Fingerprint(p); got != want.String() {
			t.Errorf("%T: fingerprint\n got %s\nwant %s", p, got, want.String())
		}
	}
}

// BenchmarkFingerprint fingerprints the plan of a served crossfilter brush:
// a COUNT group-by over a bound, rid-seeded backward trace of a filtered
// group-by view.
func BenchmarkFingerprint(b *testing.B) {
	rel := fpRel("ontime", 1000)
	view := GroupBy{
		Child: Scan{Table: "ontime", Rel: rel, Filter: expr.AndE(
			expr.GeE(expr.C("date"), expr.I(120)), expr.LtE(expr.C("date"), expr.I(620)), expr.LtE(expr.C("delay"), expr.I(1007)))},
		Keys: []string{"k"},
		Aggs: []AggDef{{Fn: ops.Count, Name: "cnt"}},
	}
	n := GroupBy{
		Child: Backward{Source: view, Table: "ontime", Rel: rel, SeedRids: []lineage.Rid{3},
			Bound: &BoundTrace{Out: rel, Capture: lineage.NewCapture()}},
		Keys: []string{"v"},
		Aggs: []AggDef{{Fn: ops.Count, Name: "cnt"}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Fingerprint(n)
	}
}
