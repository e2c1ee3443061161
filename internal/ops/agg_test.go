package ops

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"smoke/internal/datagen"
	"smoke/internal/expr"
	"smoke/internal/lineage"
	"smoke/internal/storage"
)

// microSpec is the paper's group-by microbenchmark query (§6.1.1):
// SELECT z, COUNT(*), SUM(v), SUM(v*v), SUM(sqrt(v)), MIN(v), MAX(v) GROUP BY z.
func microSpec() GroupBySpec {
	return GroupBySpec{
		Keys: []string{"z"},
		Aggs: []AggSpec{
			{Fn: Count, Name: "cnt"},
			{Fn: Sum, Arg: expr.C("v"), Name: "sum_v"},
			{Fn: Sum, Arg: expr.MulE(expr.C("v"), expr.C("v")), Name: "sum_vv"},
			{Fn: Sum, Arg: expr.Sqrt{E: expr.C("v")}, Name: "sum_sqrt"},
			{Fn: Min, Arg: expr.C("v"), Name: "min_v"},
			{Fn: Max, Arg: expr.C("v"), Name: "max_v"},
		},
	}
}

// naiveGroupBy computes reference results with plain maps.
type refGroup struct {
	count              int64
	sumV, sumVV, sumSq float64
	minV, maxV         float64
	rids               []Rid
}

func naiveGroupBy(rel *storage.Relation) map[int64]*refGroup {
	z := rel.Cols[rel.Schema.MustCol("z")].Ints
	v := rel.Cols[rel.Schema.MustCol("v")].Floats
	ref := map[int64]*refGroup{}
	for i := 0; i < rel.N; i++ {
		g, ok := ref[z[i]]
		if !ok {
			g = &refGroup{minV: math.Inf(1), maxV: math.Inf(-1)}
			ref[z[i]] = g
		}
		g.count++
		g.sumV += v[i]
		g.sumVV += v[i] * v[i]
		g.sumSq += math.Sqrt(v[i])
		if v[i] < g.minV {
			g.minV = v[i]
		}
		if v[i] > g.maxV {
			g.maxV = v[i]
		}
		g.rids = append(g.rids, Rid(i))
	}
	return ref
}

func checkAggAgainstNaive(t *testing.T, rel *storage.Relation, res AggResult, wantLineage bool) {
	t.Helper()
	ref := naiveGroupBy(rel)
	out := res.Out
	if out.N != len(ref) {
		t.Fatalf("got %d groups, want %d", out.N, len(ref))
	}
	zc := out.Schema.MustCol("z")
	for slot := 0; slot < out.N; slot++ {
		key := out.Int(zc, slot)
		g, ok := ref[key]
		if !ok {
			t.Fatalf("unexpected group %d", key)
		}
		if got := out.Int(out.Schema.MustCol("cnt"), slot); got != g.count {
			t.Errorf("group %d: count = %d, want %d", key, got, g.count)
		}
		for _, c := range []struct {
			col  string
			want float64
		}{{"sum_v", g.sumV}, {"sum_vv", g.sumVV}, {"sum_sqrt", g.sumSq}, {"min_v", g.minV}, {"max_v", g.maxV}} {
			if got := out.Float(out.Schema.MustCol(c.col), slot); math.Abs(got-c.want) > 1e-6*(1+math.Abs(c.want)) {
				t.Errorf("group %d: %s = %v, want %v", key, c.col, got, c.want)
			}
		}
		if wantLineage {
			got := append([]Rid(nil), res.BW.List(slot)...)
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if !reflect.DeepEqual(got, g.rids) {
				t.Errorf("group %d: backward rids = %v, want %v", key, got, g.rids)
			}
		}
	}
	if wantLineage {
		// Forward/backward consistency: fw[rid] = slot iff rid in bw[slot].
		for slot := 0; slot < out.N; slot++ {
			for _, rid := range res.BW.List(slot) {
				if res.FW[rid] != Rid(slot) {
					t.Fatalf("fw[%d] = %d, want %d", rid, res.FW[rid], slot)
				}
			}
		}
		if res.BW.Cardinality() != rel.N {
			t.Fatalf("backward lists cover %d rids, want %d (partition invariant)", res.BW.Cardinality(), rel.N)
		}
	}
}

func TestHashAggBaseline(t *testing.T) {
	rel := datagen.Zipf("zipf", 1.0, 5000, 40, 2)
	res, err := HashAgg(rel, nil, microSpec(), AggOpts{Mode: None})
	if err != nil {
		t.Fatal(err)
	}
	if res.BW != nil || res.FW != nil {
		t.Fatal("baseline must not capture lineage")
	}
	checkAggAgainstNaive(t, rel, res, false)
}

func TestHashAggInject(t *testing.T) {
	rel := datagen.Zipf("zipf", 1.0, 5000, 40, 2)
	res, err := HashAgg(rel, nil, microSpec(), AggOpts{Mode: Inject, Dirs: CaptureBoth})
	if err != nil {
		t.Fatal(err)
	}
	checkAggAgainstNaive(t, rel, res, true)
}

func TestHashAggDefer(t *testing.T) {
	rel := datagen.Zipf("zipf", 1.0, 5000, 40, 2)
	res, err := HashAgg(rel, nil, microSpec(), AggOpts{Mode: Defer, Dirs: CaptureBoth})
	if err != nil {
		t.Fatal(err)
	}
	checkAggAgainstNaive(t, rel, res, true)
}

func TestHashAggInjectDeferEquivalence(t *testing.T) {
	rel := datagen.Zipf("zipf", 0.8, 3000, 25, 9)
	inj, err := HashAgg(rel, nil, microSpec(), AggOpts{Mode: Inject, Dirs: CaptureBoth})
	if err != nil {
		t.Fatal(err)
	}
	def, err := HashAgg(rel, nil, microSpec(), AggOpts{Mode: Defer, Dirs: CaptureBoth})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inj.FW, def.FW) {
		t.Fatal("Inject and Defer forward indexes differ")
	}
	if inj.BW.Len() != def.BW.Len() {
		t.Fatal("group counts differ")
	}
	for slot := 0; slot < inj.BW.Len(); slot++ {
		if !reflect.DeepEqual(inj.BW.List(slot), def.BW.List(slot)) {
			t.Fatalf("backward lists differ at group %d", slot)
		}
	}
}

func TestHashAggCardinalityStats(t *testing.T) {
	rel := datagen.Zipf("zipf", 1.0, 5000, 40, 2)
	counts := datagen.GroupCounts(rel, "z", 40)
	res, err := HashAgg(rel, nil, microSpec(), AggOpts{Mode: Inject, Dirs: CaptureBoth, CountsByKey: counts})
	if err != nil {
		t.Fatal(err)
	}
	checkAggAgainstNaive(t, rel, res, true)
	// Exact preallocation: every list's capacity equals its length.
	for slot := 0; slot < res.BW.Len(); slot++ {
		l := res.BW.List(slot)
		if cap(l) != len(l) {
			t.Fatalf("group %d: cap %d != len %d (stats should preallocate exactly)", slot, cap(l), len(l))
		}
	}
}

func TestHashAggDirectionPruning(t *testing.T) {
	rel := datagen.Zipf("zipf", 1.0, 2000, 10, 3)
	bwOnly, err := HashAgg(rel, nil, microSpec(), AggOpts{Mode: Inject, Dirs: CaptureBackward})
	if err != nil {
		t.Fatal(err)
	}
	if bwOnly.FW != nil {
		t.Fatal("forward should be pruned")
	}
	if bwOnly.BW == nil || bwOnly.BW.Cardinality() != rel.N {
		t.Fatal("backward missing or incomplete")
	}
	fwOnly, err := HashAgg(rel, nil, microSpec(), AggOpts{Mode: Defer, Dirs: CaptureForward})
	if err != nil {
		t.Fatal(err)
	}
	if fwOnly.BW != nil {
		t.Fatal("backward should be pruned")
	}
	if fwOnly.FW == nil {
		t.Fatal("forward missing")
	}
}

func TestHashAggSubsetInput(t *testing.T) {
	rel := datagen.Zipf("zipf", 1.0, 2000, 10, 3)
	sub := []Rid{5, 10, 15, 20, 700, 800, 900}
	res, err := HashAgg(rel, sub, GroupBySpec{Keys: []string{"z"}, Aggs: []AggSpec{{Fn: Count, Name: "cnt"}}},
		AggOpts{Mode: Inject, Dirs: CaptureBoth})
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	cc := res.Out.Schema.MustCol("cnt")
	for i := 0; i < res.Out.N; i++ {
		total += res.Out.Int(cc, i)
	}
	if total != int64(len(sub)) {
		t.Fatalf("subset aggregation counted %d rows, want %d", total, len(sub))
	}
	// A rid subset captures the sparse forward form; entries outside the
	// subset read -1, entries inside it their group.
	if res.FW != nil || res.FWSparse == nil {
		t.Fatalf("subset forward lineage: FW nil=%v, FWSparse nil=%v; want only the sparse form",
			res.FW == nil, res.FWSparse == nil)
	}
	if _, _, bits, _, vals := res.FWSparse.Parts(); bits != 32 || len(vals) != 4*len(sub) {
		t.Fatalf("sparse forward holds %d bytes at %d bits, want %d 32-bit rids", len(vals), bits, len(sub))
	}
	inSub := map[Rid]bool{}
	for _, r := range sub {
		inSub[r] = true
	}
	fw := res.ForwardIndex().DenseForward(rel.N)
	for rid, o := range fw {
		if inSub[Rid(rid)] == (o == -1) {
			t.Fatalf("fw[%d] = %d inconsistent with subset membership", rid, o)
		}
	}
	for slot := 0; slot < res.BW.Len(); slot++ {
		for _, rid := range res.BW.List(slot) {
			if fw[rid] != Rid(slot) {
				t.Fatalf("fw[%d] = %d, want group %d", rid, fw[rid], slot)
			}
		}
	}
}

func TestHashAggStringKey(t *testing.T) {
	rel := storage.NewEmpty("t", storage.Schema{
		{Name: "flag", Type: storage.TString},
		{Name: "x", Type: storage.TFloat},
	})
	rel.AppendRow("A", 1.0)
	rel.AppendRow("B", 2.0)
	rel.AppendRow("A", 3.0)
	res, err := HashAgg(rel, nil, GroupBySpec{
		Keys: []string{"flag"},
		Aggs: []AggSpec{{Fn: Sum, Arg: expr.C("x"), Name: "s"}, {Fn: Avg, Arg: expr.C("x"), Name: "a"}},
	}, AggOpts{Mode: Inject, Dirs: CaptureBoth})
	if err != nil {
		t.Fatal(err)
	}
	if res.Out.N != 2 {
		t.Fatalf("groups = %d", res.Out.N)
	}
	fc, sc, ac := res.Out.Schema.MustCol("flag"), res.Out.Schema.MustCol("s"), res.Out.Schema.MustCol("a")
	for i := 0; i < 2; i++ {
		switch res.Out.Str(fc, i) {
		case "A":
			if res.Out.Float(sc, i) != 4.0 || res.Out.Float(ac, i) != 2.0 {
				t.Errorf("group A: sum=%v avg=%v", res.Out.Float(sc, i), res.Out.Float(ac, i))
			}
			if got := res.BW.List(i); !reflect.DeepEqual(got, []Rid{0, 2}) {
				t.Errorf("group A rids = %v", got)
			}
		case "B":
			if res.Out.Float(sc, i) != 2.0 {
				t.Errorf("group B: sum=%v", res.Out.Float(sc, i))
			}
		default:
			t.Errorf("unexpected group %q", res.Out.Str(fc, i))
		}
	}
}

func TestHashAggCompositeKey(t *testing.T) {
	rel := storage.NewEmpty("t", storage.Schema{
		{Name: "a", Type: storage.TString},
		{Name: "b", Type: storage.TInt},
		{Name: "x", Type: storage.TFloat},
	})
	rel.AppendRow("p", 1, 10.0)
	rel.AppendRow("p", 2, 20.0)
	rel.AppendRow("p", 1, 30.0)
	rel.AppendRow("q", 1, 40.0)
	res, err := HashAgg(rel, nil, GroupBySpec{
		Keys: []string{"a", "b"},
		Aggs: []AggSpec{{Fn: Count, Name: "c"}},
	}, AggOpts{Mode: Defer, Dirs: CaptureBoth})
	if err != nil {
		t.Fatal(err)
	}
	if res.Out.N != 3 {
		t.Fatalf("composite groups = %d, want 3", res.Out.N)
	}
	// (p,1) must have count 2 and rids {0,2}.
	ac, bc, cc := res.Out.Schema.MustCol("a"), res.Out.Schema.MustCol("b"), res.Out.Schema.MustCol("c")
	found := false
	for i := 0; i < res.Out.N; i++ {
		if res.Out.Str(ac, i) == "p" && res.Out.Int(bc, i) == 1 {
			found = true
			if res.Out.Int(cc, i) != 2 {
				t.Errorf("(p,1) count = %d", res.Out.Int(cc, i))
			}
			if got := res.BW.List(i); !reflect.DeepEqual(got, []Rid{0, 2}) {
				t.Errorf("(p,1) rids = %v", got)
			}
		}
	}
	if !found {
		t.Fatal("group (p,1) missing")
	}
}

func TestHashAggCountDistinct(t *testing.T) {
	rel := storage.NewEmpty("t", storage.Schema{
		{Name: "k", Type: storage.TInt},
		{Name: "s", Type: storage.TString},
		{Name: "n", Type: storage.TInt},
	})
	rel.AppendRow(1, "x", 5)
	rel.AppendRow(1, "y", 5)
	rel.AppendRow(1, "x", 7)
	rel.AppendRow(2, "z", 9)
	res, err := HashAgg(rel, nil, GroupBySpec{
		Keys: []string{"k"},
		Aggs: []AggSpec{
			{Fn: CountDistinct, Arg: expr.C("s"), Name: "ds"},
			{Fn: CountDistinct, Arg: expr.C("n"), Name: "dn"},
		},
	}, AggOpts{Mode: Inject, Dirs: CaptureBoth})
	if err != nil {
		t.Fatal(err)
	}
	kc, dsc, dnc := res.Out.Schema.MustCol("k"), res.Out.Schema.MustCol("ds"), res.Out.Schema.MustCol("dn")
	for i := 0; i < res.Out.N; i++ {
		switch res.Out.Int(kc, i) {
		case 1:
			if res.Out.Int(dsc, i) != 2 || res.Out.Int(dnc, i) != 2 {
				t.Errorf("group 1: distinct = %d, %d", res.Out.Int(dsc, i), res.Out.Int(dnc, i))
			}
		case 2:
			if res.Out.Int(dsc, i) != 1 || res.Out.Int(dnc, i) != 1 {
				t.Errorf("group 2: distinct = %d, %d", res.Out.Int(dsc, i), res.Out.Int(dnc, i))
			}
		}
	}
}

func TestHashAggErrors(t *testing.T) {
	rel := datagen.Zipf("zipf", 1.0, 10, 2, 1)
	if _, err := HashAgg(rel, nil, GroupBySpec{}, AggOpts{}); err == nil {
		t.Error("empty key list should error")
	}
	if _, err := HashAgg(rel, nil, GroupBySpec{Keys: []string{"nope"}}, AggOpts{}); err == nil {
		t.Error("unknown key should error")
	}
	if _, err := HashAgg(rel, nil, GroupBySpec{Keys: []string{"z"}, Aggs: []AggSpec{{Fn: Sum}}}, AggOpts{}); err == nil {
		t.Error("SUM without argument should error")
	}
	if _, err := HashAgg(rel, nil, GroupBySpec{Keys: []string{"z"}, Aggs: []AggSpec{{Fn: CountDistinct}}}, AggOpts{}); err == nil {
		t.Error("COUNT DISTINCT without argument should error")
	}
}

func TestHashAggLineageIsPartition(t *testing.T) {
	// Property: for any skew, the backward lists partition [0, N): disjoint,
	// complete, and consistent with the forward array.
	for _, theta := range []float64{0, 0.5, 1.0, 1.6} {
		rel := datagen.Zipf("zipf", theta, 4000, 30, 17)
		res, err := HashAgg(rel, nil, GroupBySpec{Keys: []string{"z"}, Aggs: []AggSpec{{Fn: Count, Name: "c"}}},
			AggOpts{Mode: Inject, Dirs: CaptureBoth})
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, rel.N)
		for slot := 0; slot < res.BW.Len(); slot++ {
			for _, rid := range res.BW.List(slot) {
				if seen[rid] {
					t.Fatalf("theta=%v: rid %d appears in two groups", theta, rid)
				}
				seen[rid] = true
				if res.FW[rid] != Rid(slot) {
					t.Fatalf("theta=%v: fw/bw inconsistent at rid %d", theta, rid)
				}
			}
		}
		for rid, ok := range seen {
			if !ok {
				t.Fatalf("theta=%v: rid %d missing from lineage", theta, rid)
			}
		}
	}
}

func TestGroupCountsMatchLineage(t *testing.T) {
	rel := datagen.Zipf("zipf", 1.0, 3000, 15, 4)
	res, err := HashAgg(rel, nil, microSpec(), AggOpts{Mode: Inject, Dirs: CaptureBoth})
	if err != nil {
		t.Fatal(err)
	}
	for slot, c := range res.GroupCounts {
		if int(c) != len(res.BW.List(slot)) {
			t.Fatalf("group %d: count %d != lineage size %d", slot, c, len(res.BW.List(slot)))
		}
	}
	_ = lineage.Rid(0)
}

// TestKeyByteFormat pins the key byte format behind composite group keys,
// set-op keys and data-skipping codes: an int as 8 little-endian bytes, a
// float as its IEEE-754 bits in the same layout, a string followed by a NUL.
// The NUL is what keeps ("ab", "c") and ("a", "bc") apart.
func TestKeyByteFormat(t *testing.T) {
	rel := storage.NewEmpty("t", storage.Schema{
		{Name: "a", Type: storage.TString},
		{Name: "b", Type: storage.TString},
		{Name: "i", Type: storage.TInt},
		{Name: "f", Type: storage.TFloat},
	})
	rel.AppendRow("ab", "c", int64(-2), 0.5)
	rel.AppendRow("a", "bc", int64(-2), 0.5)
	var got []byte
	for _, c := range []string{"a", "b", "i", "f"} {
		kc, err := compileKeyCol(rel, 0, c)
		if err != nil {
			t.Fatal(err)
		}
		got = kc.appendKey(got, 0)
	}
	want := []byte("ab\x00c\x00")
	want = append(want, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff) // int64(-2)
	want = append(want, 0, 0, 0, 0, 0, 0, 0xe0, 0x3f)                   // 0.5
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("key bytes = %x, want %x", got, want)
	}
	res, err := HashAgg(rel, nil, GroupBySpec{Keys: []string{"a", "b"}, Aggs: []AggSpec{{Fn: Count, Name: "c"}}}, AggOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Out.N != 2 {
		t.Fatalf("(ab, c) and (a, bc) folded into %d group(s), want 2", res.Out.N)
	}
}
