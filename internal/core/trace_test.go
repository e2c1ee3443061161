package core

import (
	"fmt"
	"reflect"
	"testing"

	"smoke/internal/expr"
	"smoke/internal/ops"
	"smoke/internal/serr"
	"smoke/internal/storage"
)

func traceDB(t *testing.T, workers int) (*DB, *storage.Relation) {
	t.Helper()
	rel := storage.NewRelation("orders", storage.Schema{
		{Name: "state", Type: storage.TInt},
		{Name: "cat", Type: storage.TInt},
		{Name: "amount", Type: storage.TFloat},
	}, 60)
	for i := 0; i < 60; i++ {
		rel.Cols[0].Ints[i] = int64(i % 5)
		rel.Cols[1].Ints[i] = int64(i % 4)
		rel.Cols[2].Floats[i] = float64(i)
	}
	db := Open(WithWorkers(workers))
	db.Register(rel)
	return db, rel
}

// TestQueryBackwardMatchesConsumeGroupBy: the plan-level consuming query
// (Query.Trace + GroupBy) must be element-identical to the pre-plan
// Result.Backward + ConsumeGroupBy path — plain, and carrying the §4.2
// selection push-down and data skipping.
func TestQueryBackwardMatchesConsumeGroupBy(t *testing.T) {
	for _, workers := range []int{1, 3} {
		db, _ := traceDB(t, workers)
		defer db.Close()
		base, err := db.Query().From("orders", nil).GroupBy("state").
			Agg(ops.Count, nil, "c").Run(CaptureOptions{Mode: ops.Inject})
		if err != nil {
			t.Fatal(err)
		}
		seeds := []Rid{1, 3, 1} // duplicate seed: consuming semantics
		spec := ops.GroupBySpec{Keys: []string{"cat"},
			Aggs: []ops.AggSpec{{Fn: ops.Count, Name: "n"}, {Fn: ops.Sum, Arg: expr.C("amount"), Name: "s"}}}

		rids, err := base.Backward("orders", seeds)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []CaptureOptions{
			{Mode: ops.Inject},
			{Mode: ops.Inject, PushdownFilter: expr.LtE(expr.C("amount"), expr.F(30)), PartitionBy: []string{"state"}},
		} {
			name := fmt.Sprintf("workers=%d pushdown=%v", workers, opts.PartitionBy != nil)
			wantOpts := opts
			wantOpts.Parallelism = 1
			want, err := base.ConsumeGroupBy(rids, spec, wantOpts)
			if err != nil {
				t.Fatal(err)
			}

			got, err := db.Query().Trace(base, TraceBackward, "orders", Rids(seeds...)).GroupBy("cat").
				Agg(ops.Count, nil, "n").Agg(ops.Sum, expr.C("amount"), "s").
				Run(opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got.Out.N != want.Out.N {
				t.Fatalf("%s: %d groups, want %d", name, got.Out.N, want.Out.N)
			}
			for c := range want.Out.Cols {
				if !reflect.DeepEqual(got.Out.Cols[c], want.Out.Cols[c]) {
					t.Fatalf("%s: output column %d diverges", name, c)
				}
			}
			for o := 0; o < want.Out.N; o++ {
				w, _ := want.Backward("orders", []Rid{Rid(o)})
				g, err := got.Backward("orders", []Rid{Rid(o)})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(w, g) {
					t.Fatalf("%s: group %d backward lineage diverges:\n got %v\nwant %v", name, o, g, w)
				}
				if opts.PartitionBy == nil {
					continue
				}
				for state := int64(0); state < 5; state++ {
					w, err := want.BackwardPartition(Rid(o), []any{state})
					if err != nil {
						t.Fatal(err)
					}
					g, err := got.BackwardPartition(Rid(o), []any{state})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !reflect.DeepEqual(w, g) {
						t.Fatalf("%s: group %d partition state=%d diverges:\n got %v\nwant %v", name, o, state, g, w)
					}
				}
			}
			if opts.PartitionBy != nil {
				continue
			}
			// The consuming result is itself a single-base query: chain
			// another trace off it (Q1b → Q1c).
			chain, err := db.Query().Trace(got, TraceBackward, "orders", Rids(0)).Run(CaptureOptions{Mode: ops.Inject})
			if err != nil {
				t.Fatal(err)
			}
			wantChain, err := got.Backward("orders", []Rid{0})
			if err != nil {
				t.Fatal(err)
			}
			if chain.Out.N != len(wantChain) {
				t.Fatalf("%s: chained trace rows %d, want %d", name, chain.Out.N, len(wantChain))
			}
		}

		// A data-skipping base orders its backward lists by partition code:
		// the bound trace and the lazy re-execution must read them in the
		// order Result.Backward does.
		pbase, err := db.Query().From("orders", nil).GroupBy("state").
			Agg(ops.Count, nil, "c").Run(CaptureOptions{Mode: ops.Inject, PartitionBy: []string{"cat"}})
		if err != nil {
			t.Fatal(err)
		}
		prids, err := pbase.Backward("orders", []Rid{1, 3})
		if err != nil {
			t.Fatal(err)
		}
		want, err := pbase.ConsumeGroupBy(prids, spec, CaptureOptions{Mode: ops.Inject, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, lazy := range []bool{false, true} {
			name := fmt.Sprintf("workers=%d partitioned base lazy=%v", workers, lazy)
			q := db.Query().Trace(pbase, TraceBackward, "orders", Rids(1, 3))
			if lazy {
				q = q.TraceWith(StrategyLazy)
			}
			got, err := q.GroupBy("cat").Agg(ops.Count, nil, "n").Agg(ops.Sum, expr.C("amount"), "s").
				Run(CaptureOptions{Mode: ops.Inject})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got.Out.Cols, want.Out.Cols) {
				t.Fatalf("%s: output diverges:\n got %v\nwant %v", name, got.Out.Cols, want.Out.Cols)
			}
			for o := 0; o < want.Out.N; o++ {
				w, _ := want.Backward("orders", []Rid{Rid(o)})
				g, err := got.Backward("orders", []Rid{Rid(o)})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(w, g) {
					t.Fatalf("%s: group %d backward lineage diverges:\n got %v\nwant %v", name, o, g, w)
				}
			}
		}
	}
}

// TestQueryBackwardWhereSeedsByPredicate seeds the trace with a predicate
// over the base result's output.
func TestQueryBackwardWhereSeedsByPredicate(t *testing.T) {
	db, rel := traceDB(t, 1)
	defer db.Close()
	base, err := db.Query().From("orders", nil).GroupBy("state").
		Agg(ops.Count, nil, "c").Run(CaptureOptions{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query().Trace(base, TraceBackward, "orders", Where(expr.EqE(expr.C("state"), expr.I(2)))).
		Run(CaptureOptions{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < rel.N; i++ {
		if rel.Cols[0].Ints[i] == 2 {
			want++
		}
	}
	if res.Out.N != want {
		t.Fatalf("traced %d rows, want %d", res.Out.N, want)
	}
	for o := 0; o < res.Out.N; o++ {
		if res.Out.Cols[0].Ints[o] != 2 {
			t.Fatalf("row %d has state %d, want 2", o, res.Out.Cols[0].Ints[o])
		}
	}
}

// TestQueryWhereSinksIntoTrace: the consuming predicate drops traced rows
// during expansion, serial and parallel alike.
func TestQueryWhereSinksIntoTrace(t *testing.T) {
	for _, workers := range []int{1, 3} {
		db, rel := traceDB(t, workers)
		defer db.Close()
		base, err := db.Query().From("orders", nil).GroupBy("state").
			Agg(ops.Count, nil, "c").Run(CaptureOptions{Mode: ops.Inject})
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Query().Trace(base, TraceBackward, "orders", Rids(1)).
			Where(expr.LtE(expr.C("amount"), expr.F(30))).
			GroupBy("cat").Agg(ops.Count, nil, "n").
			Run(CaptureOptions{Mode: ops.Inject})
		if err != nil {
			t.Fatal(err)
		}
		total := int64(0)
		for o := 0; o < res.Out.N; o++ {
			total += res.Out.Int(1, o)
		}
		want := int64(0)
		for i := 0; i < rel.N; i++ {
			if rel.Cols[0].Ints[i] == 1 && rel.Cols[2].Floats[i] <= 30 {
				want++
			}
		}
		if total != want {
			t.Fatalf("workers=%d: filtered consuming count %d, want %d", workers, total, want)
		}
	}
	// Where on a non-trace query errors.
	db, _ := traceDB(t, 1)
	defer db.Close()
	if _, err := db.Query().From("orders", nil).Where(expr.LtE(expr.C("amount"), expr.F(1))).
		GroupBy("state").Agg(ops.Count, nil, "c").Run(CaptureOptions{Mode: ops.Inject}); err == nil {
		t.Error("Where on a non-trace query should fail")
	}
}

// TestQueryForward traces forward from base rows into the result's groups.
func TestQueryForward(t *testing.T) {
	db, _ := traceDB(t, 1)
	defer db.Close()
	base, err := db.Query().From("orders", nil).GroupBy("state").
		Agg(ops.Count, nil, "c").Run(CaptureOptions{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query().Trace(base, TraceForward, "orders", Rids(0, 7)).
		Run(CaptureOptions{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	if res.Out.N != 2 {
		t.Fatalf("want 2 dependent groups, got %d", res.Out.N)
	}
	if res.Out.Cols[0].Ints[0] != 0 || res.Out.Cols[0].Ints[1] != 2 {
		t.Fatalf("dependent groups %v %v, want states 0 and 2",
			res.Out.Cols[0].Ints[0], res.Out.Cols[0].Ints[1])
	}
}

// TestTraceQueryErrors pins the builder misuse errors.
func TestTraceQueryErrors(t *testing.T) {
	db, rel := traceDB(t, 1)
	defer db.Close()
	base, err := db.Query().From("orders", nil).GroupBy("state").
		Agg(ops.Count, nil, "c").Run(CaptureOptions{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query().From("orders", nil).Trace(base, TraceBackward, "orders", Rids(0)).
		GroupBy("cat").Agg(ops.Count, nil, "n").Run(CaptureOptions{Mode: ops.Inject}); err == nil {
		t.Error("trace after From should fail")
	}
	if _, err := db.Query().Trace(base, TraceBackward, "orders", Rids(0)).
		From("orders", expr.LtE(expr.C("amount"), expr.F(1))).
		GroupBy("cat").Agg(ops.Count, nil, "n").Run(CaptureOptions{Mode: ops.Inject}); err == nil {
		t.Error("From after a trace should fail (the filter would be silently dropped)")
	}
	if _, err := db.Query().Trace(base, TraceBackward, "nope", Rids(0)).Run(CaptureOptions{}); err == nil {
		t.Error("unknown table should fail")
	}
	// A consuming trace query takes capture push-downs like a base query:
	// the selection push-down keeps only the passing rows' lineage.
	pd, err := db.Query().Trace(base, TraceBackward, "orders", Rids(0)).GroupBy("cat").
		Agg(ops.Count, nil, "n").
		Run(CaptureOptions{Mode: ops.Inject, PushdownFilter: expr.EqE(expr.C("cat"), expr.I(1))})
	if err != nil {
		t.Fatalf("capture push-down on a trace query: %v", err)
	}
	for o := 0; o < pd.Out.N; o++ {
		rids, err := pd.Backward("orders", []Rid{Rid(o)})
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if pd.Out.Int(0, o) == 1 {
			want = int(pd.Out.Int(1, o))
		}
		if len(rids) != want {
			t.Fatalf("group cat=%d: %d lineage rids, want %d", pd.Out.Int(0, o), len(rids), want)
		}
		for _, r := range rids {
			if rel.Cols[1].Ints[r] != 1 {
				t.Fatalf("rid %d fails the push-down filter", r)
			}
		}
	}
	// Pruned capture: tracing a direction that was never captured errors.
	pruned, err := db.Query().From("orders", nil).GroupBy("state").
		Agg(ops.Count, nil, "c").
		Run(CaptureOptions{Mode: ops.Inject, Dirs: ops.CaptureForward})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query().Trace(pruned, TraceBackward, "orders", Rids(0)).Run(CaptureOptions{Mode: ops.Inject}); err == nil {
		t.Error("backward trace over a forward-only capture should fail")
	}
}

// TestPushdownResultTracesRestrictedLineage: a selection push-down result
// holds only the lineage of rows passing the push-down filter. Its group-by
// must not count as scan-equivalent, or an everything-seeded trace — whose
// seeds cover every group — would run the base scan and return every row.
func TestPushdownResultTracesRestrictedLineage(t *testing.T) {
	for _, workers := range []int{1, 3} {
		db, rel := traceDB(t, workers)
		defer db.Close()
		res, err := db.Query().From("orders", nil).GroupBy("state").Agg(ops.Count, nil, "c").
			Run(CaptureOptions{Mode: ops.Inject, PushdownFilter: expr.EqE(expr.C("cat"), expr.I(1))})
		if err != nil {
			t.Fatal(err)
		}
		traced, err := db.Query().Trace(res, TraceBackward, "orders", Where(nil)).Run(CaptureOptions{Mode: ops.Inject})
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for i := 0; i < rel.N; i++ {
			if rel.Cols[1].Ints[i] == 1 {
				want++
			}
		}
		if traced.Out.N != want {
			t.Fatalf("workers=%d: traced %d rows, want the %d passing the push-down", workers, traced.Out.N, want)
		}
		for o := 0; o < traced.Out.N; o++ {
			if traced.Out.Cols[1].Ints[o] != 1 {
				t.Fatalf("workers=%d: traced row %d has cat %d", workers, o, traced.Out.Cols[1].Ints[o])
			}
		}
	}
}

// TestDataSkippingTraceChecksTableAndSeeds: a result captured with
// PartitionBy answers rid-seeded backward traces from its ordered index, and
// must reject an unknown table or an out-of-range seed with the same
// structured error a plain capture gives, never another table's rids or a
// panic.
func TestDataSkippingTraceChecksTableAndSeeds(t *testing.T) {
	db, _ := traceDB(t, 1)
	defer db.Close()
	for _, opts := range []CaptureOptions{{Mode: ops.Inject}, {Mode: ops.Inject, PartitionBy: []string{"cat"}}} {
		res, err := db.Query().From("orders", nil).GroupBy("state").Agg(ops.Count, nil, "c").Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("PartitionBy=%v", opts.PartitionBy)
		if got := res.TraceStrategy("no_such_table", TraceBackward); got != StrategyDefault {
			t.Errorf("%s: TraceStrategy(no_such_table) = %v, want default", name, got)
		}
		for _, distinct := range []bool{false, true} {
			for _, c := range []struct {
				table string
				rids  []Rid
			}{{"orders", []Rid{99}}, {"orders", []Rid{0, -1}}, {"no_such_table", []Rid{0}}} {
				got, err := res.trace(TraceBackward, c.table, Rids(c.rids...), distinct)
				if serr.KindOf(err) != serr.Invalid {
					t.Errorf("%s distinct=%v: Backward(%s, %v) = %v, %v; want a serr.Invalid error",
						name, distinct, c.table, c.rids, got, err)
				}
			}
		}
		if got, err := res.Backward("orders", []Rid{0}); err != nil || len(got) != 12 {
			t.Errorf("%s: Backward(orders, [0]) = %v, %v; want 12 rids", name, got, err)
		}
	}
}

// TestDataSkippingLineageRidesInTheCapture: a PartitionBy result's backward
// lineage is the capture's ordinary backward index, only ordered by
// partition code. So MemBytes charges it, the Capture serves it, and bound
// traces read it in place: two identical trace queries fingerprint alike.
func TestDataSkippingLineageRidesInTheCapture(t *testing.T) {
	for _, workers := range []int{1, 3} {
		db, _ := traceDB(t, workers)
		defer db.Close()
		run := func(opts CaptureOptions) *Result {
			t.Helper()
			opts.Mode, opts.Dirs = ops.Inject, ops.CaptureBackward
			res, err := db.Query().From("orders", nil).GroupBy("state").Agg(ops.Count, nil, "c").Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		plain, part := run(CaptureOptions{}), run(CaptureOptions{PartitionBy: []string{"cat"}})
		name := fmt.Sprintf("workers=%d", workers)
		if got, want := part.MemBytes(), plain.MemBytes(); got < want {
			t.Errorf("%s: MemBytes = %d, below the plain capture's %d: the backward lineage is not charged", name, got, want)
		}
		fp := func() string {
			t.Helper()
			f, err := db.Query().Trace(part, TraceBackward, "orders", Rids(1)).
				GroupBy("cat").Agg(ops.Count, nil, "n").Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		if a, b := fp(), fp(); a != b {
			t.Errorf("%s: identical trace queries fingerprint differently:\n%s\n%s", name, a, b)
		}
		if _, err := part.Capture().BackwardIndex("orders"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for o := 0; o < part.Out.N; o++ {
			want, err := part.Backward("orders", []Rid{Rid(o)})
			if err != nil {
				t.Fatal(err)
			}
			got, err := part.Capture().Backward("orders", []Rid{Rid(o)})
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s group %d: Capture().Backward = %v, %v; want Result.Backward's %v", name, o, got, err, want)
			}
		}
	}
}

// TestParameterizedCaptureTrace: a consuming trace of a result captured
// under a query parameter, seeded by a key predicate, reads the captured
// lineage whatever parameters the trace query runs under — the scan
// equivalent would re-evaluate the source filter under the trace's own. A
// lazy result has only its plan to re-run, so its trace query is refused.
func TestParameterizedCaptureTrace(t *testing.T) {
	rel := storage.NewRelation("t", storage.Schema{{Name: "k", Type: storage.TInt}, {Name: "v", Type: storage.TInt}}, 100)
	for i := 0; i < 100; i++ {
		rel.Cols[0].Ints[i], rel.Cols[1].Ints[i] = int64(i%7), int64(i)
	}
	db := Open()
	defer db.Close()
	db.Register(rel)
	run := func(mode ops.CaptureMode, s Strategy) *Result {
		res, err := db.Query().From("t", expr.GeE(expr.C("v"), expr.P("x"))).GroupBy("k").Agg(ops.Count, nil, "c").
			Run(CaptureOptions{Mode: mode, Strategy: s, Params: expr.Params{"x": int64(50)}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seed := Where(expr.GeE(expr.C("k"), expr.I(0)))
	eager := run(ops.Inject, StrategyEager)
	want, err := eager.Trace(TraceBackward, "t", seed)
	if err != nil || len(want) != 50 {
		t.Fatalf("Result.Trace = %d rids (%v), want the 50 captured", len(want), err)
	}
	for _, params := range []expr.Params{nil, {"x": int64(90)}} {
		got, err := db.Query().Trace(eager, TraceBackward, "t", seed).Run(CaptureOptions{Params: params})
		if err != nil {
			t.Fatalf("params %v: %v", params, err)
		}
		if !reflect.DeepEqual(got.Out.Cols[1].Ints, rel.Gather("", want).Cols[1].Ints) {
			t.Fatalf("params %v: traced v = %v, want the captured %v", params, got.Out.Cols[1].Ints, rel.Gather("", want).Cols[1].Ints)
		}
	}
	lazy := run(ops.None, StrategyLazy)
	if _, err := db.Query().Trace(lazy, TraceBackward, "t", seed).Run(CaptureOptions{}); serr.KindOf(err) != serr.Unsupported {
		t.Fatalf("lazy trace query = %v, want Unsupported", err)
	}
	if _, err := db.Query().Trace(eager, TraceBackward, "t", seed).TraceWith(StrategyLazy).Run(CaptureOptions{}); serr.KindOf(err) != serr.Unsupported {
		t.Fatalf("forced lazy trace query = %v, want Unsupported", err)
	}
}
