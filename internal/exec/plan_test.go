package exec

import (
	"reflect"
	"sort"
	"testing"

	"smoke/internal/cube"
	"smoke/internal/datagen"
	"smoke/internal/expr"
	"smoke/internal/ops"
	"smoke/internal/plan"
	"smoke/internal/serr"
	"smoke/internal/storage"
)

func TestPlanFilterThenGroupBy(t *testing.T) {
	rel := datagen.Zipf("zipf", 1.0, 2000, 10, 5)
	p := plan.GroupBy{
		Child: plan.Filter{Child: plan.Scan{Table: "zipf", Rel: rel}, Pred: expr.LtE(expr.C("v"), expr.F(50))},
		Keys:  []string{"z"},
		Aggs:  []plan.AggDef{{Fn: ops.Count, Name: "c"}},
	}
	res, err := RunPlan(p, PlanOpts{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	// End-to-end lineage must point at *base* rids: every rid in a group's
	// lineage must satisfy the filter and carry the group's key.
	bw, err := res.Capture.BackwardIndex("zipf")
	if err != nil {
		t.Fatal(err)
	}
	vcol := rel.Schema.MustCol("v")
	zcol := rel.Schema.MustCol("z")
	total := 0
	for o := 0; o < res.Out.N; o++ {
		key := res.Out.Int(0, o)
		rids := bw.TraceOne(int32(o), nil)
		total += len(rids)
		for _, r := range rids {
			if rel.Float(vcol, int(r)) >= 50 {
				t.Fatalf("group %d lineage includes filtered-out rid %d", o, r)
			}
			if rel.Int(zcol, int(r)) != key {
				t.Fatalf("group %d lineage includes rid with wrong key", o)
			}
		}
	}
	want := 0
	for i := 0; i < rel.N; i++ {
		if rel.Float(vcol, i) < 50 {
			want++
		}
	}
	if total != want {
		t.Fatalf("lineage covers %d rids, want %d", total, want)
	}
	// Forward: every selected base rid maps to the group holding its key.
	fw, err := res.Capture.ForwardIndex("zipf")
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < int32(rel.N); i++ {
		outs := fw.TraceOne(i, nil)
		if rel.Float(vcol, int(i)) >= 50 {
			if len(outs) != 0 {
				t.Fatalf("filtered rid %d has forward lineage", i)
			}
			continue
		}
		if len(outs) != 1 {
			t.Fatalf("selected rid %d maps to %d groups", i, len(outs))
		}
		if res.Out.Int(0, int(outs[0])) != rel.Int(zcol, int(i)) {
			t.Fatalf("rid %d forward lineage points at wrong group", i)
		}
	}
}

func TestPlanJoinComposesBothSides(t *testing.T) {
	gids := datagen.Gids("gids", 20, 1)
	zipf := datagen.Zipf("zipf", 1.0, 500, 20, 2)
	p := plan.GroupBy{
		Child: plan.Join{
			Left:     plan.Scan{Table: "gids", Rel: gids},
			Right:    plan.Filter{Child: plan.Scan{Table: "zipf", Rel: zipf}, Pred: expr.LtE(expr.C("v"), expr.F(40))},
			LeftKey:  "id",
			RightKey: "z",
		},
		// "id" exists on both sides, so the join qualifies it with the
		// relation name.
		Keys: []string{"gids.id"},
		Aggs: []plan.AggDef{{Fn: ops.Count, Name: "c"}},
	}
	res, err := RunPlan(p, PlanOpts{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	zbw, err := res.Capture.BackwardIndex("zipf")
	if err != nil {
		t.Fatal(err)
	}
	gbw, err := res.Capture.BackwardIndex("gids")
	if err != nil {
		t.Fatal(err)
	}
	zcol := zipf.Schema.MustCol("z")
	vcol := zipf.Schema.MustCol("v")
	for o := 0; o < res.Out.N; o++ {
		key := res.Out.Int(0, o)
		// zipf lineage: matching z, passing filter.
		for _, r := range zbw.TraceOne(int32(o), nil) {
			if zipf.Int(zcol, int(r)) != key || zipf.Float(vcol, int(r)) >= 40 {
				t.Fatalf("group %d: bad zipf lineage rid %d", o, r)
			}
		}
		// gids lineage: the single matching dimension row (duplicated per join row).
		grids := gbw.TraceOne(int32(o), nil)
		for _, r := range grids {
			if gids.Int(0, int(r)) != key {
				t.Fatalf("group %d: bad gids lineage", o)
			}
		}
		if len(grids) != len(zbw.TraceOne(int32(o), nil)) {
			t.Fatalf("group %d: per-table lineage cardinalities differ", o)
		}
	}
}

func TestPlanProjectPreservesLineage(t *testing.T) {
	rel := datagen.Zipf("zipf", 1.0, 100, 5, 9)
	p := plan.Project{
		Child: plan.Filter{Child: plan.Scan{Table: "zipf", Rel: rel}, Pred: expr.LtE(expr.C("v"), expr.F(50))},
		Cols:  []string{"z"},
	}
	res, err := RunPlan(p, PlanOpts{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Out.Schema) != 1 || res.Out.Schema[0].Name != "z" {
		t.Fatal("projection schema wrong")
	}
	bw, err := res.Capture.BackwardIndex("zipf")
	if err != nil {
		t.Fatal(err)
	}
	// Output row i's lineage must carry the same z value.
	for i := 0; i < res.Out.N; i++ {
		rids := bw.TraceOne(int32(i), nil)
		if len(rids) != 1 {
			t.Fatalf("projection row %d has %d lineage rids", i, len(rids))
		}
		if rel.Int(rel.Schema.MustCol("z"), int(rids[0])) != res.Out.Int(0, i) {
			t.Fatal("projection lineage mismatched")
		}
	}
}

func TestPlanUnionLineage(t *testing.T) {
	a := storage.NewEmpty("a", storage.Schema{{Name: "k", Type: storage.TInt}})
	for _, v := range []int{1, 2, 2} {
		a.AppendRow(v)
	}
	b := storage.NewEmpty("b", storage.Schema{{Name: "k", Type: storage.TInt}})
	for _, v := range []int{2, 3} {
		b.AppendRow(v)
	}
	p := plan.Union{Left: plan.Scan{Table: "a", Rel: a}, Right: plan.Scan{Table: "b", Rel: b}, Attrs: []string{"k"}}
	res, err := RunPlan(p, PlanOpts{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	vals := append([]int64(nil), res.Out.Cols[0].Ints...)
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	if !reflect.DeepEqual(vals, []int64{1, 2, 3}) {
		t.Fatalf("union = %v", vals)
	}
	abw, err := res.Capture.BackwardIndex("a")
	if err != nil {
		t.Fatal(err)
	}
	for o := 0; o < res.Out.N; o++ {
		if res.Out.Int(0, o) == 2 {
			rids := append([]int32(nil), abw.TraceOne(int32(o), nil)...)
			sort.Slice(rids, func(i, j int) bool { return rids[i] < rids[j] })
			if !reflect.DeepEqual(rids, []int32{1, 2}) {
				t.Fatalf("lineage of 2 in a = %v", rids)
			}
		}
	}
}

func TestPlanOrderByLimitLineage(t *testing.T) {
	rel := datagen.Zipf("zipf", 1.0, 500, 10, 3)
	p := plan.Limit{
		N: 3,
		Child: plan.OrderBy{
			Keys: []plan.SortKey{{Col: "c", Desc: true}, {Col: "z"}},
			Child: plan.GroupBy{
				Child: plan.Scan{Table: "zipf", Rel: rel},
				Keys:  []string{"z"},
				Aggs:  []plan.AggDef{{Fn: ops.Count, Name: "c"}},
			},
		},
	}
	res, err := RunPlan(p, PlanOpts{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	if res.Out.N != 3 {
		t.Fatalf("limit kept %d rows", res.Out.N)
	}
	cc := res.Out.Schema.MustCol("c")
	for i := 1; i < res.Out.N; i++ {
		if res.Out.Int(cc, i) > res.Out.Int(cc, i-1) {
			t.Fatal("not sorted desc by count")
		}
	}
	if len(res.GroupCounts) != 3 {
		t.Fatalf("group counts not threaded through order/limit: %v", res.GroupCounts)
	}
	// Row 0 is the biggest group; its lineage must carry its key and have
	// cardinality equal to its count.
	bw, err := res.Capture.BackwardIndex("zipf")
	if err != nil {
		t.Fatal(err)
	}
	zcol := rel.Schema.MustCol("z")
	for o := 0; o < res.Out.N; o++ {
		rids := bw.TraceOne(int32(o), nil)
		if int64(len(rids)) != res.Out.Int(cc, o) {
			t.Fatalf("row %d lineage cardinality %d != count %d", o, len(rids), res.Out.Int(cc, o))
		}
		for _, r := range rids {
			if rel.Int(zcol, int(r)) != res.Out.Int(0, o) {
				t.Fatalf("row %d lineage rid %d has wrong key", o, r)
			}
		}
	}
	// Forward lineage of a base rid in a cut-off group is empty.
	fw, err := res.Capture.ForwardIndex("zipf")
	if err != nil {
		t.Fatal(err)
	}
	kept := map[int64]int{}
	for o := 0; o < res.Out.N; o++ {
		kept[res.Out.Int(0, o)] = o
	}
	for i := 0; i < rel.N; i++ {
		outs := fw.TraceOne(int32(i), nil)
		if o, ok := kept[rel.Int(zcol, i)]; ok {
			if len(outs) != 1 || int(outs[0]) != o {
				t.Fatalf("rid %d forward = %v, want [%d]", i, outs, o)
			}
		} else if len(outs) != 0 {
			t.Fatalf("rid %d of a cut-off group has forward lineage %v", i, outs)
		}
	}
}

func TestPlanNoCapture(t *testing.T) {
	rel := datagen.Zipf("zipf", 1.0, 100, 5, 9)
	p := plan.GroupBy{
		Child: plan.Scan{Table: "zipf", Rel: rel},
		Keys:  []string{"z"},
		Aggs:  []plan.AggDef{{Fn: ops.Count, Name: "c"}},
	}
	res, err := RunPlan(p, PlanOpts{Mode: ops.None})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Capture.Relations()) != 0 {
		t.Fatal("capture disabled but indexes present")
	}
	if res.Out.N != 5 {
		t.Fatalf("groups = %d", res.Out.N)
	}
}

func TestPlanErrors(t *testing.T) {
	rel := datagen.Zipf("zipf", 1.0, 10, 2, 1)
	if _, err := RunPlan(plan.Project{Child: plan.Scan{Table: "zipf", Rel: rel}, Cols: []string{"nope"}}, PlanOpts{}); err == nil {
		t.Error("bad projection should error")
	}
	if _, err := RunPlan(plan.Filter{Child: plan.Scan{Table: "zipf", Rel: rel}, Pred: expr.C("z")}, PlanOpts{}); err == nil {
		t.Error("non-boolean filter should error")
	}
	// A filtered aggregate outside a fusible block folds through the same
	// group state as the fused one.
	res, err := RunPlan(plan.GroupBy{
		Child: plan.Scan{Table: "zipf", Rel: rel},
		Keys:  []string{"z"},
		Aggs:  []plan.AggDef{{Fn: ops.Count, Filter: expr.LtE(expr.C("v"), expr.F(50)), Name: "c"}},
	}, PlanOpts{})
	if err != nil {
		t.Fatalf("filtered aggregate over a scan: %v", err)
	}
	want := map[int64]int64{}
	for r := 0; r < rel.N; r++ {
		if _, ok := want[rel.Int(1, r)]; !ok {
			want[rel.Int(1, r)] = 0
		}
		if rel.Float(2, r) < 50 {
			want[rel.Int(1, r)]++
		}
	}
	if res.Out.N != len(want) {
		t.Fatalf("groups = %d, want %d", res.Out.N, len(want))
	}
	for o := 0; o < res.Out.N; o++ {
		if got, w := res.Out.Int(1, o), want[res.Out.Int(0, o)]; got != w {
			t.Errorf("z=%d: filtered count %d, want %d", res.Out.Int(0, o), got, w)
		}
	}
}

// TestPlanSPJAOverSubplan runs a fused block whose first input is itself an
// aggregation (the multi-block shape): the block's capture must compose with
// the subplan's end-to-end indexes.
func TestPlanSPJAOverSubplan(t *testing.T) {
	gids := datagen.Gids("gids", 20, 1)
	zipf := datagen.Zipf("zipf", 1.0, 500, 20, 2)
	inner := plan.GroupBy{
		Child: plan.Scan{Table: "zipf", Rel: zipf},
		Keys:  []string{"z"},
		Aggs:  []plan.AggDef{{Fn: ops.Count, Name: "cnt"}},
	}
	p := plan.SPJA{
		Inputs:  []plan.Node{inner, plan.Scan{Table: "gids", Rel: gids}},
		Filters: []expr.Expr{nil, nil},
		Joins:   []plan.SPJAJoin{{LeftInput: 0, LeftCol: "z", RightCol: "id"}},
		Keys:    []plan.SPJAKey{{Input: 1, Col: "id"}},
		Aggs:    []plan.SPJAAgg{{Fn: ops.Sum, Input: 0, Arg: expr.C("cnt"), Name: "total"}},
	}
	res, err := RunPlan(p, PlanOpts{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	// Backward lineage of every output must reach the zipf *base* rows whose
	// z equals the output's id.
	bw, err := res.Capture.BackwardIndex("zipf")
	if err != nil {
		t.Fatal(err)
	}
	zcol := zipf.Schema.MustCol("z")
	total := 0
	for o := 0; o < res.Out.N; o++ {
		id := res.Out.Int(0, o)
		rids := bw.TraceOne(int32(o), nil)
		total += len(rids)
		for _, r := range rids {
			if zipf.Int(zcol, int(r)) != id {
				t.Fatalf("output %d (id=%d): lineage rid %d has wrong z", o, id, r)
			}
		}
		// SUM(cnt) equals the number of base rows traced.
		if got := res.Out.Float(1, o); got != float64(len(rids)) {
			t.Fatalf("output %d: total=%v but %d base rows", o, got, len(rids))
		}
	}
	if total != zipf.N {
		t.Fatalf("composed lineage covers %d of %d base rows", total, zipf.N)
	}
	// Forward: base row -> the single output of its group.
	fw, err := res.Capture.ForwardIndex("zipf")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < zipf.N; i++ {
		outs := fw.TraceOne(int32(i), nil)
		if len(outs) != 1 || res.Out.Int(0, int(outs[0])) != zipf.Int(zcol, i) {
			t.Fatalf("rid %d forward lineage wrong: %v", i, outs)
		}
	}
	// gids is a direct scan input: its capture must be keyed by base name.
	if !res.Capture.HasBackward("gids") || !res.Capture.HasForward("gids") {
		t.Fatal("scan input capture missing")
	}
}

// A group-by's capture push-downs lower into its hash aggregation when its
// input rids are base rids, producing the data-skipping directory over the
// captured backward index and the cube beside the capture. Over any other
// child they would address intermediate rids: that is a structured
// Unsupported error, never a silent drop.
func TestPlanGroupByPushdowns(t *testing.T) {
	rel := datagen.Zipf("zipf", 1.0, 2000, 10, 5)
	pass := expr.LtE(expr.C("v"), expr.F(50))
	gb := plan.GroupBy{
		Child: plan.Scan{Table: "zipf", Rel: rel},
		Keys:  []string{"z"},
		Aggs:  []plan.AggDef{{Fn: ops.Count, Name: "c"}},
		Pushdown: &plan.Pushdown{Filter: pass, PartitionBy: []string{"z"},
			Cube: &cube.Spec{Dims: []string{"z"}, Aggs: []cube.AggDef{{Fn: ops.Count, Name: "c"}}}},
	}
	for _, workers := range []int{1, 3} {
		res, err := RunPlan(gb, PlanOpts{Mode: ops.Inject, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.BWPart == nil || res.Cube == nil {
			t.Fatalf("workers=%d: push-down outputs missing (BWPart %v, Cube %v)", workers, res.BWPart != nil, res.Cube != nil)
		}
		if ix, err := res.Capture.BackwardIndex("zipf"); err != nil || ix.Many != res.BWPart.Index().Many {
			t.Fatalf("workers=%d: the capture must hold the index the data-skipping directory addresses (%v)", workers, err)
		}
		vcol, zcol := rel.Schema.MustCol("v"), rel.Schema.MustCol("z")
		for o := 0; o < res.Out.N; o++ {
			key := res.Out.Int(0, o)
			var want []int32
			for r := 0; r < rel.N; r++ {
				if rel.Int(zcol, r) == key && rel.Float(vcol, r) < 50 {
					want = append(want, int32(r))
				}
			}
			if got := res.BWPart.Partition(o, key); !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d group %d: partition rids %v, want %v", workers, o, got, want)
			}
			ans, err := res.Cube.Query(int32(o), nil)
			if err != nil {
				t.Fatal(err)
			}
			if c := ans.Int(ans.Schema.MustCol("c"), 0); c != res.GroupCounts[o] {
				t.Fatalf("workers=%d group %d: cube count %d, want %d", workers, o, c, res.GroupCounts[o])
			}
		}
	}

	generic := gb
	generic.Child = plan.Filter{Child: plan.Scan{Table: "zipf", Rel: rel}, Pred: pass}
	if _, err := RunPlan(generic, PlanOpts{Mode: ops.Inject}); serr.KindOf(err) != serr.Unsupported {
		t.Fatalf("push-downs over a filter: err = %v, want Unsupported", err)
	}
}
