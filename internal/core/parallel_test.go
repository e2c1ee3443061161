package core_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"smoke/internal/core"
	"smoke/internal/datagen"
	"smoke/internal/expr"
	"smoke/internal/ops"
	"smoke/internal/tpch"
)

// openTPCH registers the TPC-H relations on a DB opened with the given
// options.
func openTPCH(t *testing.T, opts ...core.Option) (*core.DB, *tpch.DB) {
	t.Helper()
	data := tpch.Generate(0.002, 42)
	db := core.Open(opts...)
	t.Cleanup(db.Close)
	db.Register(data.Nation)
	db.Register(data.Customer)
	db.Register(data.Orders)
	db.Register(data.Lineitem)
	return db, data
}

func q3(db *core.DB) *core.Query {
	cutoff := int64(9204) // 1995-03-15
	return db.Query().
		From("customer", expr.EqE(expr.C("c_mktsegment"), expr.S("BUILDING"))).
		Join("orders", expr.LtE(expr.C("o_orderdate"), expr.I(cutoff)), "customer", "c_custkey", "o_custkey").
		Join("lineitem", expr.GtE(expr.C("l_shipdate"), expr.I(cutoff)), "orders", "o_orderkey", "l_orderkey").
		GroupBy("o_orderkey").
		Agg(ops.Sum, expr.C("l_quantity"), "qty")
}

func q1(db *core.DB) *core.Query {
	return db.Query().
		From("lineitem", expr.LtE(expr.C("l_shipdate"), expr.I(10561))).
		GroupBy("l_returnflag", "l_linestatus").
		Agg(ops.Count, nil, "cnt").
		Agg(ops.Sum, expr.C("l_quantity"), "sum_qty")
}

// sameLineageAnswers requires every backward and forward lineage query over
// the result to return element-for-element identical answers.
func sameLineageAnswers(t *testing.T, tag, table string, got, want *core.Result, baseN int) {
	t.Helper()
	for o := 0; o < want.Out.N; o++ {
		w, errW := want.Backward(table, []core.Rid{core.Rid(o)})
		g, errG := got.Backward(table, []core.Rid{core.Rid(o)})
		if (errW == nil) != (errG == nil) {
			t.Fatalf("%s: backward(%s, %d) error mismatch: %v vs %v", tag, table, o, errG, errW)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: backward(%s, %d) = %d rids, want %d", tag, table, o, len(g), len(w))
		}
	}
	in := make([]core.Rid, baseN)
	for i := range in {
		in[i] = core.Rid(i)
	}
	w, errW := want.Forward(table, in)
	g, errG := got.Forward(table, in)
	if (errW == nil) != (errG == nil) {
		t.Fatalf("%s: forward(%s) error mismatch: %v vs %v", tag, table, errG, errW)
	}
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: forward(%s) differs (%d vs %d rids)", tag, table, len(g), len(w))
	}
}

// TestWorkersLineageParity is the acceptance test for the morsel-parallel
// engine: for single-table and join queries, under Inject and Defer,
// workers=N lineage (backward and forward) must deep-equal workers=1.
func TestWorkersLineageParity(t *testing.T) {
	db, data := openTPCH(t)
	for _, mode := range []ops.CaptureMode{ops.Inject, ops.Defer} {
		for _, workers := range []int{2, 4, 8} {
			serial1, err := q1(db).Run(core.CaptureOptions{Mode: mode, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			par1, err := q1(db).Run(core.CaptureOptions{Mode: mode, Parallelism: workers})
			if err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("q1 mode=%v w=%d", mode, workers)
			if par1.Out.N != serial1.Out.N {
				t.Fatalf("%s: %d groups, want %d", tag, par1.Out.N, serial1.Out.N)
			}
			sameLineageAnswers(t, tag, "lineitem", par1, serial1, data.Lineitem.N)

			serial3, err := q3(db).Run(core.CaptureOptions{Mode: mode, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			par3, err := q3(db).Run(core.CaptureOptions{Mode: mode, Parallelism: workers})
			if err != nil {
				t.Fatal(err)
			}
			tag = fmt.Sprintf("q3 mode=%v w=%d", mode, workers)
			if par3.Out.N != serial3.Out.N {
				t.Fatalf("%s: %d groups, want %d", tag, par3.Out.N, serial3.Out.N)
			}
			sameLineageAnswers(t, tag, "lineitem", par3, serial3, data.Lineitem.N)
			sameLineageAnswers(t, tag, "orders", par3, serial3, data.Orders.N)
			sameLineageAnswers(t, tag, "customer", par3, serial3, data.Customer.N)
		}
	}
}

// TestParallelZeroMatchFilter: a filter matching no rows must aggregate
// nothing under parallelism — the regression where nil OutRids meant "all
// rows" to HashAgg returned full-table groups at Parallelism > 1.
func TestParallelZeroMatchFilter(t *testing.T) {
	db, _ := openTPCH(t, core.WithWorkers(4))
	q := func() *core.Query {
		return db.Query().
			From("lineitem", expr.LtE(expr.C("l_quantity"), expr.F(-1))).
			GroupBy("l_returnflag").
			Agg(ops.Count, nil, "c")
	}
	for _, par := range []int{1, 4} {
		res, err := q().Run(core.CaptureOptions{Mode: ops.Inject, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if res.Out.N != 0 {
			t.Fatalf("parallelism=%d: zero-match filter produced %d groups", par, res.Out.N)
		}
	}
}

// TestCloseReleasesPool: queries after Close still answer correctly (they
// fall back to inline execution).
func TestCloseReleasesPool(t *testing.T) {
	db, _ := openTPCH(t, core.WithWorkers(4))
	before, err := q1(db).Run(core.CaptureOptions{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	db.Close() // idempotent
	after, err := q1(db).Run(core.CaptureOptions{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	if after.Out.N != before.Out.N {
		t.Fatalf("post-Close groups %d, want %d", after.Out.N, before.Out.N)
	}
	core.Open().Close() // never-parallel DB

	// A Parallelism override on a closed, never-parallel DB must not
	// resurrect a pool; the query still answers (serially).
	lazy, _ := openTPCH(t)
	lazy.Close()
	res, err := q1(lazy).Run(core.CaptureOptions{Mode: ops.Inject, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Out.N != before.Out.N {
		t.Fatalf("closed-DB override groups %d, want %d", res.Out.N, before.Out.N)
	}
}

// TestConcurrentQueriesSharedDB hammers one shared DB with concurrent
// Query().Run() calls (mixed shapes and modes) racing against Register of
// unrelated relations — the -race run is the assertion that DB, Catalog,
// and the shared worker pool are concurrency-safe; results are also checked
// against serial references.
func TestConcurrentQueriesSharedDB(t *testing.T) {
	db, data := openTPCH(t, core.WithWorkers(4))
	refQ1, err := q1(db).Run(core.CaptureOptions{Mode: ops.Inject, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	refQ3, err := q3(db).Run(core.CaptureOptions{Mode: ops.Inject, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 12
	const iters = 6
	errs := make(chan error, goroutines*iters)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				mode := ops.Inject
				if (g+it)%2 == 1 {
					mode = ops.Defer
				}
				switch g % 3 {
				case 0: // single-table aggregation
					res, err := q1(db).Run(core.CaptureOptions{Mode: mode})
					if err != nil {
						errs <- err
						return
					}
					if res.Out.N != refQ1.Out.N {
						errs <- fmt.Errorf("q1 groups %d, want %d", res.Out.N, refQ1.Out.N)
						return
					}
					b, _ := res.Backward("lineitem", []core.Rid{0})
					w, _ := refQ1.Backward("lineitem", []core.Rid{0})
					if !reflect.DeepEqual(b, w) {
						errs <- fmt.Errorf("q1 lineage diverged under concurrency")
						return
					}
				case 1: // join block
					res, err := q3(db).Run(core.CaptureOptions{Mode: mode})
					if err != nil {
						errs <- err
						return
					}
					if res.Out.N != refQ3.Out.N {
						errs <- fmt.Errorf("q3 groups %d, want %d", res.Out.N, refQ3.Out.N)
						return
					}
				case 2: // catalog writes race with running queries
					rel := datagen.Zipf(fmt.Sprintf("scratch_%d_%d", g, it), 1.0, 500, 5, int64(g))
					db.Register(rel)
					res, err := db.Query().From(rel.Name, nil).
						GroupBy("z").Agg(ops.Count, nil, "c").
						Run(core.CaptureOptions{Mode: ops.Inject})
					if err != nil {
						errs <- err
						return
					}
					if res.Out.N != 5 {
						errs <- fmt.Errorf("scratch groups %d, want 5", res.Out.N)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	_ = data
}
