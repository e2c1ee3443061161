package core_test

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"smoke/internal/core"
	"smoke/internal/cube"
	"smoke/internal/datagen"
	"smoke/internal/expr"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/serr"
	"smoke/internal/tpch"
)

func openZipf(t *testing.T) (*core.DB, int) {
	t.Helper()
	db := core.Open()
	t.Cleanup(db.Close)
	rel := datagen.Zipf("zipf", 1.0, 2000, 10, 1)
	db.Register(rel)
	return db, rel.N
}

func microQuery(db *core.DB) *core.Query {
	return db.Query().From("zipf", nil).
		GroupBy("z").
		Agg(ops.Count, nil, "cnt").
		Agg(ops.Sum, expr.C("v"), "sum_v")
}

func TestSingleTableQueryAndLineage(t *testing.T) {
	db, n := openZipf(t)
	res, err := microQuery(db).Run(core.CaptureOptions{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	if res.Out.N != 10 {
		t.Fatalf("groups = %d", res.Out.N)
	}
	total := 0
	for o := 0; o < res.Out.N; o++ {
		rids, err := res.Backward("zipf", []core.Rid{core.Rid(o)})
		if err != nil {
			t.Fatal(err)
		}
		total += len(rids)
		// Forward of any lineage rid returns the same output.
		fw, err := res.Forward("zipf", rids[:1])
		if err != nil {
			t.Fatal(err)
		}
		if len(fw) != 1 || fw[0] != core.Rid(o) {
			t.Fatalf("forward(backward(o)) != o for group %d", o)
		}
	}
	if total != n {
		t.Fatalf("lineage covers %d rids, want %d", total, n)
	}
}

func TestQueryWithFilterKeepsBaseRids(t *testing.T) {
	db, _ := openZipf(t)
	res, err := db.Query().From("zipf", expr.LtE(expr.C("v"), expr.F(30))).
		GroupBy("z").Agg(ops.Count, nil, "cnt").
		Run(core.CaptureOptions{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := db.Table("zipf")
	vcol := rel.Schema.MustCol("v")
	for o := 0; o < res.Out.N; o++ {
		rids, _ := res.Backward("zipf", []core.Rid{core.Rid(o)})
		for _, r := range rids {
			if rel.Float(vcol, int(r)) >= 30 {
				t.Fatal("lineage rid violates base filter")
			}
		}
	}
}

// TestFilteredAggregateSingleTable runs filtered aggregates through the
// public builder on one table, on the plan path and on the push-down path,
// against a naive fold over the base rows.
func TestFilteredAggregateSingleTable(t *testing.T) {
	db, _ := openZipf(t)
	rel, _ := db.Table("zipf")
	zcol, vcol := rel.Schema.MustCol("z"), rel.Schema.MustCol("v")
	pass := expr.LtE(expr.C("v"), expr.F(30))
	type fold struct {
		cnt, passed int64
		sum         float64
	}
	want := map[int64]*fold{}
	for r := 0; r < rel.N; r++ {
		f := want[rel.Int(zcol, r)]
		if f == nil {
			f = &fold{}
			want[rel.Int(zcol, r)] = f
		}
		f.cnt++
		if v := rel.Float(vcol, r); v < 30 {
			f.passed++
			f.sum += v
		}
	}
	for _, opts := range []core.CaptureOptions{
		{Mode: ops.Inject},
		{Mode: ops.Inject, PushdownFilter: pass},
	} {
		res, err := db.Query().From("zipf", nil).GroupBy("z").
			Agg(ops.Count, nil, "cnt").
			AggFiltered(ops.Count, nil, pass, "c").
			AggFiltered(ops.Avg, expr.C("v"), pass, "a").
			Run(opts)
		if err != nil {
			t.Fatalf("push-down %v: %v", opts.PushdownFilter != nil, err)
		}
		if res.Out.N != len(want) {
			t.Fatalf("groups = %d, want %d", res.Out.N, len(want))
		}
		for o := 0; o < res.Out.N; o++ {
			w := want[res.Out.Int(0, o)]
			avg := 0.0
			if w.passed > 0 {
				avg = w.sum / float64(w.passed)
			}
			if res.Out.Int(1, o) != w.cnt || res.Out.Int(2, o) != w.passed || math.Abs(res.Out.Float(3, o)-avg) > 1e-9 {
				t.Fatalf("push-down %v group z=%d: (%d, %d, %v), want (%d, %d, %v)", opts.PushdownFilter != nil,
					res.Out.Int(0, o), res.Out.Int(1, o), res.Out.Int(2, o), res.Out.Float(3, o), w.cnt, w.passed, avg)
			}
			// An aggregate's filter does not touch lineage; the push-down
			// filter restricts it to the rows passing it.
			rids, err := res.Backward("zipf", []core.Rid{core.Rid(o)})
			if err != nil {
				t.Fatal(err)
			}
			wantN := w.cnt
			if opts.PushdownFilter != nil {
				wantN = w.passed
			}
			if int64(len(rids)) != wantN {
				t.Fatalf("push-down %v group %d: %d lineage rids, want %d", opts.PushdownFilter != nil, o, len(rids), wantN)
			}
		}
	}
}

func TestSPJAQueryThroughFacade(t *testing.T) {
	tp := tpch.Generate(0.002, 42)
	db := core.Open()
	defer db.Close()
	db.Register(tp.Customer)
	db.Register(tp.Orders)
	db.Register(tp.Lineitem)
	res, err := db.Query().
		From("customer", expr.EqE(expr.C("c_mktsegment"), expr.S("BUILDING"))).
		Join("orders", nil, "customer", "c_custkey", "o_custkey").
		Join("lineitem", nil, "orders", "o_orderkey", "l_orderkey").
		GroupBy("o_orderkey").
		Agg(ops.Sum, expr.MulE(expr.C("l_extendedprice"), expr.SubE(expr.F(1), expr.C("l_discount"))), "revenue").
		Run(core.CaptureOptions{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	if res.Out.N == 0 {
		t.Fatal("no groups")
	}
	rids, err := res.Backward("customer", []core.Rid{0})
	if err != nil || len(rids) == 0 {
		t.Fatalf("customer backward = %v, %v", rids, err)
	}
	seg := tp.Customer.Schema.MustCol("c_mktsegment")
	for _, r := range rids {
		if tp.Customer.Str(seg, int(r)) != "BUILDING" {
			t.Fatal("backward lineage violates customer filter")
		}
	}
}

func TestDataSkippingThroughFacade(t *testing.T) {
	tp := tpch.Generate(0.001, 7)
	db := core.Open()
	defer db.Close()
	db.Register(tp.Lineitem)
	res, err := db.Query().From("lineitem", nil).
		GroupBy("l_returnflag", "l_linestatus").
		Agg(ops.Count, nil, "cnt").
		Run(core.CaptureOptions{Mode: ops.Inject, PartitionBy: []string{"l_shipmode", "l_shipinstruct"}})
	if err != nil {
		t.Fatal(err)
	}
	part, err := res.BackwardPartition(0, []any{"MAIL", "NONE"})
	if err != nil {
		t.Fatal(err)
	}
	mc := tp.Lineitem.Schema.MustCol("l_shipmode")
	ic := tp.Lineitem.Schema.MustCol("l_shipinstruct")
	for _, r := range part {
		if tp.Lineitem.Str(mc, int(r)) != "MAIL" || tp.Lineitem.Str(ic, int(r)) != "NONE" {
			t.Fatal("partition returned wrong rids")
		}
	}
	// All partitions together equal the full backward lineage.
	all, err := res.Backward("lineitem", []core.Rid{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != int(res.GroupCounts[0]) {
		t.Fatalf("partitioned backward covers %d, want %d", len(all), res.GroupCounts[0])
	}
	// Distinct variant over partitioned index.
	dist, err := res.BackwardDistinct("lineitem", []core.Rid{0, 0})
	if err != nil || len(dist) != len(all) {
		t.Fatalf("distinct over partitioned = %d rids, want %d", len(dist), len(all))
	}
	// Bad arguments are structured Invalid errors, never panics.
	for name, call := range map[string]struct {
		outRid core.Rid
		vals   []any
	}{
		"outRid past the groups": {99, []any{"MAIL", "NONE"}},
		"negative outRid":        {-1, []any{"MAIL", "NONE"}},
		"too few values":         {0, nil},
	} {
		if _, err := res.BackwardPartition(call.outRid, call.vals); serr.KindOf(err) != serr.Invalid {
			t.Fatalf("%s: err = %v, want an Invalid error", name, err)
		}
	}
}

func TestCubePushdownThroughFacade(t *testing.T) {
	db, _ := openZipf(t)
	res, err := microQuery(db).Run(core.CaptureOptions{
		Mode: ops.Inject,
		Cube: &cube.Spec{Dims: []string{"id"}, Aggs: []cube.AggDef{{Fn: ops.Count, Name: "c"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cube() == nil {
		t.Fatal("cube missing")
	}
	ans, err := res.Cube().Query(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Sum of cube counts for group 0 equals the group's cardinality.
	total := int64(0)
	cc := ans.Schema.MustCol("c")
	for i := 0; i < ans.N; i++ {
		total += ans.Int(cc, i)
	}
	if total != res.GroupCounts[0] {
		t.Fatalf("cube counts sum to %d, want %d", total, res.GroupCounts[0])
	}
}

func TestConsumeGroupByActsAsBaseQuery(t *testing.T) {
	db, _ := openZipf(t)
	base, err := microQuery(db).Run(core.CaptureOptions{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	rids, _ := base.Backward("zipf", []core.Rid{0})
	// Consuming query: re-aggregate the lineage subset by id buckets,
	// itself captured so it can serve further lineage queries.
	consumed, err := base.ConsumeGroupBy(rids, ops.GroupBySpec{
		Keys: []string{"z"},
		Aggs: []ops.AggSpec{{Fn: ops.Count, Name: "c"}},
	}, core.CaptureOptions{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	if consumed.Out.N != 1 {
		t.Fatalf("lineage of one group re-grouped by z must give 1 group, got %d", consumed.Out.N)
	}
	// Its backward lineage equals the original rid set.
	back, err := consumed.Backward("zipf", []core.Rid{0})
	if err != nil {
		t.Fatal(err)
	}
	sortRids(back)
	sortRids(rids)
	if !reflect.DeepEqual(back, rids) {
		t.Fatal("consuming query lineage differs from its input rid set")
	}
}

func TestPruningThroughFacade(t *testing.T) {
	db, _ := openZipf(t)
	res, err := microQuery(db).Run(core.CaptureOptions{
		Mode:      ops.Inject,
		TableDirs: map[string]ops.Directions{"zipf": ops.CaptureBackward},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Forward("zipf", []core.Rid{0}); err == nil {
		t.Fatal("pruned forward direction should error")
	}
	if _, err := res.Backward("zipf", []core.Rid{0}); err != nil {
		t.Fatal("backward should be available")
	}
}

// The builder lowers straight onto plan nodes, so a second From has no
// join edge to attach to: it is rejected rather than silently dropped.
func TestSecondFromIsInvalid(t *testing.T) {
	db, _ := openZipf(t)
	db.Register(datagen.Gids("gids", 8, 1))
	_, err := db.Query().From("gids", nil).From("zipf", nil).GroupBy("z").Agg(ops.Count, nil, "c").
		Run(core.CaptureOptions{Mode: ops.Inject})
	if serr.KindOf(err) != serr.Invalid {
		t.Fatalf("second From: err = %v, want Invalid", err)
	}
}

func TestQueryBuilderErrors(t *testing.T) {
	db, _ := openZipf(t)
	if _, err := db.Query().From("nope", nil).GroupBy("z").Agg(ops.Count, nil, "c").Run(core.CaptureOptions{}); err == nil {
		t.Error("unknown table should error")
	}
	if _, err := db.Query().From("zipf", nil).GroupBy("nope").Agg(ops.Count, nil, "c").Run(core.CaptureOptions{}); err == nil {
		t.Error("unknown column should error")
	}
	if _, err := db.Query().From("zipf", nil).Agg(ops.Count, nil, "c").Run(core.CaptureOptions{}); err == nil {
		t.Error("missing GroupBy should error")
	}
	if _, err := db.Query().Run(core.CaptureOptions{}); err == nil {
		t.Error("empty query should error")
	}
	if _, err := db.Query().From("zipf", nil).Join("zipf", nil, "other", "id", "id").
		GroupBy("z").Agg(ops.Count, nil, "c").Run(core.CaptureOptions{}); err == nil {
		t.Error("join to unknown prefix table should error")
	}
	// Push-downs rejected for multi-table blocks.
	tp := tpch.Generate(0.001, 3)
	db2 := core.Open()
	defer db2.Close()
	db2.Register(tp.Orders)
	db2.Register(tp.Lineitem)
	q := db2.Query().From("orders", nil).
		Join("lineitem", nil, "orders", "o_orderkey", "l_orderkey").
		GroupBy("l_shipmode").Agg(ops.Count, nil, "c")
	if _, err := q.Run(core.CaptureOptions{Mode: ops.Inject, PartitionBy: []string{"l_tax"}}); err == nil {
		t.Error("multi-table push-down should error")
	}
}

func sortRids(r []lineage.Rid) {
	sort.Slice(r, func(i, j int) bool { return r[i] < r[j] })
}
