package baselines

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"smoke/internal/datagen"
	"smoke/internal/expr"
	"smoke/internal/ops"
	"smoke/internal/pool"
)

func microSpec() ops.GroupBySpec {
	return ops.GroupBySpec{
		Keys: []string{"z"},
		Aggs: []ops.AggSpec{
			{Fn: ops.Count, Name: "cnt"},
			{Fn: ops.Sum, Arg: expr.C("v"), Name: "sum_v"},
		},
	}
}

func sortRids(r []Rid) { sort.Slice(r, func(i, j int) bool { return r[i] < r[j] }) }

func TestLazyBackwardMatchesSmoke(t *testing.T) {
	rel := datagen.Zipf("zipf", 1.0, 3000, 20, 5)
	smoke, err := ops.HashAgg(rel, nil, microSpec(), ops.AggOpts{Mode: ops.Inject, Dirs: ops.CaptureBoth})
	if err != nil {
		t.Fatal(err)
	}
	for o := 0; o < smoke.Out.N; o++ {
		lazy, err := LazyBackward(rel, []string{"z"}, smoke.Out, o, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]Rid(nil), smoke.BW.List(o)...)
		sortRids(want)
		sortRids(lazy)
		if !reflect.DeepEqual(lazy, want) {
			t.Fatalf("group %d: lazy backward differs from Smoke index", o)
		}
	}
}

func TestLazyBackwardWithBaseFilter(t *testing.T) {
	rel := datagen.Zipf("zipf", 1.0, 2000, 10, 7)
	filter := expr.LtE(expr.C("v"), expr.F(50))
	pred, _ := expr.CompilePred(filter, rel, nil)
	sel := ops.Select(rel.N, pred, ops.SelectOpts{Mode: ops.None})
	smoke, err := ops.HashAgg(rel, sel.OutRids, microSpec(), ops.AggOpts{Mode: ops.Inject, Dirs: ops.CaptureBoth})
	if err != nil {
		t.Fatal(err)
	}
	for o := 0; o < smoke.Out.N; o++ {
		lazy, err := LazyBackward(rel, []string{"z"}, smoke.Out, o, filter, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]Rid(nil), smoke.BW.List(o)...)
		sortRids(want)
		sortRids(lazy)
		if !reflect.DeepEqual(lazy, want) {
			t.Fatalf("group %d: filtered lazy backward differs", o)
		}
	}
}

func TestGroupByLogicalRid(t *testing.T) {
	rel := datagen.Zipf("zipf", 1.0, 1000, 10, 3)
	ann, err := GroupByLogical(rel, nil, microSpec(), LogicRid, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Denormalized: one annotated row per input record.
	if ann.Annotated.N != rel.N {
		t.Fatalf("annotated N = %d, want %d", ann.Annotated.N, rel.N)
	}
	// Annotated width: out columns + oid + rid.
	if len(ann.Annotated.Schema) != len(ann.Out.Schema)+2 {
		t.Fatalf("annotated width = %d", len(ann.Annotated.Schema))
	}
	// Consistency: each annotated row's z must equal its output group's z.
	zc := ann.Annotated.Schema.MustCol("z")
	oc := ann.Annotated.Schema.MustCol("oid")
	rc := ann.Annotated.Schema.MustCol("rid")
	relz := rel.Schema.MustCol("z")
	for i := 0; i < ann.Annotated.N; i++ {
		oid := ann.Annotated.Int(oc, i)
		rid := ann.Annotated.Int(rc, i)
		if ann.Annotated.Int(zc, i) != ann.Out.Int(ann.Out.Schema.MustCol("z"), int(oid)) {
			t.Fatal("annotated group key mismatch")
		}
		if rel.Int(relz, int(rid)) != ann.Annotated.Int(zc, i) {
			t.Fatal("annotated rid points at wrong input row")
		}
	}
}

func TestGroupByLogicalTup(t *testing.T) {
	rel := datagen.Zipf("zipf", 1.0, 500, 5, 3)
	ann, err := GroupByLogical(rel, nil, microSpec(), LogicTup, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Tuple annotation: input columns appear with in_ prefix.
	if ann.Annotated.Schema.Col("in_z") < 0 || ann.Annotated.Schema.Col("in_v") < 0 {
		t.Fatal("tuple annotation columns missing")
	}
	vc := ann.Annotated.Schema.MustCol("in_v")
	relv := rel.Schema.MustCol("v")
	// The i-th annotated row corresponds to input row i (no filter).
	for i := 0; i < 100; i++ {
		if ann.Annotated.Float(vc, i) != rel.Float(relv, i) {
			t.Fatal("tuple annotation values wrong")
		}
	}
}

// TestGroupByLogicIdxMatchesSmoke uses Logic-Idx — lineage re-derived by
// joining the output back to the input — as a reference independent of the
// capture code: at every partition count, under both capture modes, raw
// and compressed, and over the whole input, a selection's rid subset and an
// unsorted rid bag with duplicates (a consuming query's input), Smoke's
// decoded backward lists and forward array must equal it element for
// element, order included.
func TestGroupByLogicIdxMatchesSmoke(t *testing.T) {
	rel := datagen.Zipf("zipf", 1.0, 2000, 15, 9)
	var sub, bag []Rid
	for i := Rid(0); i < Rid(rel.N); i++ {
		if i%3 != 0 {
			sub = append(sub, i)
		}
		bag = append(bag, (i*7)%Rid(rel.N/2)) // every rid below N/2 twice
	}
	p := pool.New(4)
	defer p.Close()
	for ri, inRids := range [][]Rid{nil, sub, bag} {
		_, bw, fw, err := GroupByLogicIdx(rel, inRids, microSpec(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []ops.CaptureMode{ops.Inject, ops.Defer} {
			for _, compress := range []bool{false, true} {
				for _, workers := range []int{1, 2, 4, 7} {
					tag := fmt.Sprintf("mode=%v input=%d compress=%v w=%d", mode, ri, compress, workers)
					smoke, err := ops.HashAgg(rel, inRids, microSpec(), ops.AggOpts{
						Mode: mode, Dirs: ops.CaptureBoth, Workers: workers, Pool: p,
						Compress: compress, DupRids: ri == 2})
					if err != nil {
						t.Fatal(err)
					}
					if compress != (smoke.BWEnc != nil) {
						t.Fatalf("%s: encoded backward index = %v", tag, smoke.BWEnc != nil)
					}
					if !reflect.DeepEqual(fw, smoke.ForwardIndex().DenseForward(rel.N)) {
						t.Fatalf("%s: Logic-Idx forward differs from Smoke", tag)
					}
					sbw := smoke.BackwardIndex()
					if bw.Len() != sbw.Len() {
						t.Fatalf("%s: %d groups, Logic-Idx has %d", tag, sbw.Len(), bw.Len())
					}
					for o := 0; o < bw.Len(); o++ {
						if got := sbw.TraceOne(Rid(o), nil); !reflect.DeepEqual(bw.List(o), got) {
							t.Fatalf("%s: Logic-Idx backward differs at group %d: %v, want %v", tag, o, got, bw.List(o))
						}
					}
				}
			}
		}
	}
}

func TestBackwardFromAnnotated(t *testing.T) {
	rel := datagen.Zipf("zipf", 1.0, 1000, 10, 11)
	smoke, _ := ops.HashAgg(rel, nil, microSpec(), ops.AggOpts{Mode: ops.Inject, Dirs: ops.CaptureBoth})
	ann, err := GroupByLogical(rel, nil, microSpec(), LogicRid, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Logical group order may differ from Smoke's; match groups by key.
	zOut := ann.Out.Schema.MustCol("z")
	for o := 0; o < ann.Out.N; o++ {
		got := BackwardFromAnnotated(&ann, Rid(o))
		// find smoke group with same key
		var want []Rid
		for so := 0; so < smoke.Out.N; so++ {
			if smoke.Out.Int(0, so) == ann.Out.Int(zOut, o) {
				want = append([]Rid(nil), smoke.BW.List(so)...)
			}
		}
		sortRids(got)
		sortRids(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("annotated-scan backward differs at group %d", o)
		}
	}
}

func TestPhysMemMatchesSmoke(t *testing.T) {
	rel := datagen.Zipf("zipf", 1.0, 2000, 10, 13)
	smoke, _ := ops.HashAgg(rel, nil, microSpec(), ops.AggOpts{Mode: ops.Inject, Dirs: ops.CaptureBoth})
	sink := NewMemSink(rel.N)
	res, err := GroupByPhysical(rel, microSpec(), sink, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Out.N != smoke.Out.N {
		t.Fatal("group counts differ")
	}
	if !reflect.DeepEqual(sink.FW, smoke.FW) {
		t.Fatal("Phys-Mem forward differs")
	}
	ix := sink.Index()
	for o := 0; o < smoke.BW.Len(); o++ {
		if !reflect.DeepEqual(ix.List(o), smoke.BW.List(o)) {
			t.Fatalf("Phys-Mem backward differs at group %d", o)
		}
	}
}

func TestPhysBdbMatchesSmoke(t *testing.T) {
	rel := datagen.Zipf("zipf", 1.0, 1500, 8, 17)
	smoke, _ := ops.HashAgg(rel, nil, microSpec(), ops.AggOpts{Mode: ops.Inject, Dirs: ops.CaptureBoth})
	sink := NewBdbSink()
	if _, err := GroupByPhysical(rel, microSpec(), sink, nil); err != nil {
		t.Fatal(err)
	}
	for o := 0; o < smoke.BW.Len(); o++ {
		got := sink.Backward(Rid(o), nil)
		want := append([]Rid(nil), smoke.BW.List(o)...)
		sortRids(got)
		sortRids(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Phys-Bdb backward differs at group %d", o)
		}
	}
	// Forward queries through cursors.
	for rid := Rid(0); rid < 100; rid++ {
		got := sink.Forward(rid, nil)
		if len(got) != 1 || got[0] != smoke.FW[rid] {
			t.Fatalf("Phys-Bdb forward at rid %d = %v, want %d", rid, got, smoke.FW[rid])
		}
	}
}

func TestJoinLogicIdxMatchesSmoke(t *testing.T) {
	gids := datagen.Gids("gids", 30, 1)
	zipf := datagen.Zipf("zipf", 1.0, 1000, 30, 2)
	smoke, err := ops.HashJoinPKFK(gids, "id", nil, zipf, "z", nil, ops.JoinOpts{Dirs: ops.CaptureBoth})
	if err != nil {
		t.Fatal(err)
	}
	logic, err := JoinLogicIdx(gids, "id", zipf, "z")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(logic.BuildBW, smoke.BuildBW) || !reflect.DeepEqual(logic.ProbeBW, smoke.ProbeBW) {
		t.Fatal("Logic-Idx join backward differs")
	}
	if !reflect.DeepEqual(logic.ProbeFW, smoke.ProbeFW) {
		t.Fatal("Logic-Idx join probe forward differs")
	}
	for b := 0; b < gids.N; b++ {
		if !reflect.DeepEqual(logic.BuildFW.List(b), smoke.BuildFW.List(b)) {
			t.Fatalf("Logic-Idx join build forward differs at %d", b)
		}
	}
	// Annotated output: join columns plus two rid columns.
	if logic.Annotated.Schema.Col("build_rid") < 0 || logic.Annotated.Schema.Col("probe_rid") < 0 {
		t.Fatal("annotation columns missing")
	}
	if logic.Annotated.N != smoke.OutN {
		t.Fatal("annotated cardinality wrong")
	}
}
