package ops

import (
	"fmt"
	"runtime"
	"testing"

	"smoke/internal/datagen"
	"smoke/internal/expr"
	"smoke/internal/pool"
	"smoke/internal/storage"
)

// Selection microbenchmarks: the two-pass bitmap kernel with a compiled
// column kernel vs the same two-pass harness driven by a row-at-a-time
// compiled predicate (the fallback when no kernel form exists).

func benchSelInputs(b *testing.B) (n int, pred expr.Pred, kern expr.BitKernel) {
	b.Helper()
	rel := datagen.Zipf("zipf", 0.5, 1<<20, 100, 1)
	filter := expr.LtE(expr.C("v"), expr.F(50))
	pred, err := expr.CompilePred(filter, rel, nil)
	if err != nil {
		b.Fatal(err)
	}
	kern = expr.CompileBitKernel(filter, rel, nil)
	if kern == nil {
		b.Fatal("filter should compile to a bit kernel")
	}
	return rel.N, pred, kern
}

func BenchmarkSelectBitmapKernel(b *testing.B) {
	b.ReportAllocs()
	n, pred, kern := benchSelInputs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Select(n, pred, SelectOpts{Kernel: kern})
	}
}

func BenchmarkSelectPredFallback(b *testing.B) {
	b.ReportAllocs()
	n, pred, _ := benchSelInputs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Select(n, pred, SelectOpts{})
	}
}

func BenchmarkSelectBitmapKernelInject(b *testing.B) {
	b.ReportAllocs()
	n, pred, kern := benchSelInputs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Select(n, pred, SelectOpts{Kernel: kern, Mode: Inject, Dirs: CaptureBoth})
	}
}

// Subset aggregation: a capture-on group-by over 1k rids of a 500k-row
// relation — the consuming-query and filtered-view shape. Its forward
// lineage is sparse, so what it allocates follows the 1k rids it aggregates
// (plus a bitmap of one bit per relation row), not the relation.

const subsetAggRows, subsetAggRids = 500_000, 1000

func subsetAggInputs() (*storage.Relation, []Rid, GroupBySpec) {
	rel := datagen.Zipf("zipf", 1.0, subsetAggRows, 1000, 1)
	rids := make([]Rid, subsetAggRids)
	for i := range rids {
		rids[i] = Rid(i * (subsetAggRows / subsetAggRids))
	}
	return rel, rids, GroupBySpec{Keys: []string{"z"}, Aggs: []AggSpec{
		{Fn: Count, Name: "cnt"}, {Fn: Sum, Arg: expr.C("v"), Name: "sv"}}}
}

func BenchmarkHashAggSubsetCapture(b *testing.B) {
	b.ReportAllocs()
	rel, rids, spec := subsetAggInputs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HashAgg(rel, rids, spec, AggOpts{Mode: Inject, Dirs: CaptureBoth, DupRids: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHashAggSubsetAllocatesNoRelationSizedArray pins the bound the benchmark
// above reports: under 256 KB allocated per call, where one forward entry
// per relation row alone would be 2 MB.
func TestHashAggSubsetAllocatesNoRelationSizedArray(t *testing.T) {
	rel, rids, spec := subsetAggInputs()
	run := func() {
		if _, err := HashAgg(rel, rids, spec, AggOpts{Mode: Inject, Dirs: CaptureBoth, DupRids: true}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the scratch pools
	const reps = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / reps; per >= 256<<10 {
		t.Fatalf("capture-on group-by over %d of %d rows allocates %d bytes per call, want < 256 KB",
			subsetAggRids, subsetAggRows, per)
	}
}

// Set-union and M:N join capture through their one driver: every capture
// mode (M:N variant) at one and at two partitions. The union is 200k ∪ 200k
// rows over 1,000 keys; the join is Figure 7's skewed 1,000 × 10,000 cell
// without materialization.

func BenchmarkSetUnion(b *testing.B) {
	x := datagen.Zipf("a", 1.0, 200_000, 1000, 1)
	y := datagen.Zipf("b", 1.0, 200_000, 1000, 2)
	p := pool.New(2)
	defer p.Close()
	for _, mode := range []CaptureMode{None, Inject, Defer} {
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("%v/w%d", mode, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := SetUnion(x, []string{"z"}, y, []string{"z"}, mode, CaptureBoth, w, p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkMNJoin(b *testing.B) {
	left := datagen.Zipf("zipf1", 1.0, 1000, 10, 3)
	right := datagen.Zipf("zipf2", 1.0, 10_000, 100, 4)
	p := pool.New(2)
	defer p.Close()
	for _, v := range []struct {
		name    string
		variant MNVariant
	}{{"inject", MNInject}, {"deferforw", MNDeferForward}, {"defer", MNDefer}} {
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/w%d", v.name, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := HashJoinMN(left, "z", right, "z", v.variant,
						JoinOpts{Dirs: CaptureBoth, Workers: w, Pool: p}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
