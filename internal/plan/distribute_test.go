package plan_test

import (
	"reflect"
	"testing"

	"smoke/internal/core"
	"smoke/internal/ops"
	"smoke/internal/plan"
	"smoke/internal/sql"
	"smoke/internal/storage"
)

// distributeCatalog is the two-table catalog the fence walk is tested over:
// fact is sharded, dim replicated.
func distributeCatalog(t *testing.T) *core.DB {
	t.Helper()
	db := core.Open()
	t.Cleanup(db.Close)
	dim := storage.NewEmpty("dim", storage.Schema{
		{Name: "g", Type: storage.TInt},
		{Name: "label", Type: storage.TString},
	})
	for g := 0; g < 5; g++ {
		dim.AppendRow(g, "L")
	}
	fact := storage.NewEmpty("fact", storage.Schema{
		{Name: "k", Type: storage.TInt},
		{Name: "b", Type: storage.TInt},
		{Name: "v", Type: storage.TFloat},
	})
	for i := 0; i < 40; i++ {
		fact.AppendRow(i%5, i%7, float64(i))
	}
	db.Register(dim)
	db.Register(fact)
	db.Catalog().SetPrimaryKey("dim", "g")
	return db
}

// distribute lowers and optimizes src the way the coordinator does, then
// asks the plan layer for the scatter decision.
func distribute(t *testing.T, db *core.DB, src string) (plan.Scatter, plan.Fence) {
	t.Helper()
	st, err := sql.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	n, err := sql.Lower(db, st)
	if err != nil {
		t.Fatalf("lower %q: %v", src, err)
	}
	n = plan.OptimizeNoTrace(n, plan.Opts{Catalog: db.Catalog()})
	return plan.Distribute(n, func(table string) bool { return table == "fact" })
}

// TestDistributeFences: every plan-shape reason code fires on one statement
// and not on a nearby one, which the plan layer admits.
func TestDistributeFences(t *testing.T) {
	db := distributeCatalog(t)
	cases := []struct {
		fence      plan.Fence
		fires, not string
	}{
		{plan.FenceMultiSharded,
			"SELECT c, COUNT(*) AS n FROM (SELECT b, COUNT(*) AS c FROM fact GROUP BY b) s JOIN fact ON fact.k = s.c GROUP BY c",
			"SELECT label, COUNT(*) AS n FROM dim JOIN fact ON fact.k = dim.g GROUP BY label"},
		{plan.FenceBuildSide,
			"SELECT label, SUM(v) AS sv FROM fact JOIN dim ON fact.k = dim.g GROUP BY label",
			"SELECT label, SUM(v) AS sv FROM dim JOIN fact ON fact.k = dim.g GROUP BY label"},
		{plan.FenceJoinSource,
			"SELECT b, COUNT(*) AS n FROM (SELECT g, COUNT(*) AS c FROM dim GROUP BY g) s JOIN fact ON fact.k = s.g GROUP BY b",
			"SELECT b, COUNT(*) AS n FROM dim JOIN fact ON fact.k = dim.g WHERE label = 'L' GROUP BY b"},
		{plan.FenceCountDistinct,
			"SELECT k, COUNT(DISTINCT b) AS d FROM fact GROUP BY k",
			"SELECT k, COUNT(*) AS d FROM fact GROUP BY k"},
		// A HAVING on an aggregate stays a filter above the root group-by; a
		// HAVING on group keys only sinks into the scan.
		{plan.FenceHaving,
			"SELECT k, COUNT(*) AS cnt FROM fact GROUP BY k HAVING cnt > 10",
			"SELECT k, COUNT(*) AS cnt FROM fact GROUP BY k HAVING k > 2"},
		{plan.FenceHaving,
			"SELECT k, SUM(v) AS sv FROM fact GROUP BY k HAVING k < 3 AND sv > 100",
			"SELECT k, SUM(v) AS sv FROM fact GROUP BY k HAVING k < 3"},
		{plan.FenceOrderLimit,
			"SELECT k, COUNT(*) AS cnt FROM fact GROUP BY k ORDER BY cnt",
			"SELECT k, COUNT(*) AS cnt FROM fact GROUP BY k"},
		{plan.FenceOrderLimit,
			"SELECT k, COUNT(*) AS cnt FROM fact GROUP BY k LIMIT 3",
			"SELECT k, COUNT(*) AS cnt FROM fact WHERE k < 3 GROUP BY k"},
		{plan.FenceInnerGroupBy,
			"SELECT k, SUM(c) AS s FROM (SELECT k, COUNT(*) AS c FROM fact GROUP BY k) t GROUP BY k",
			"SELECT g, SUM(c) AS s FROM (SELECT g, COUNT(*) AS c FROM dim GROUP BY g) t GROUP BY g"},
		{plan.FenceForward,
			"SELECT k, COUNT(*) AS n FROM LINEAGE FORWARD(SELECT k, COUNT(*) AS c FROM fact GROUP BY k OF fact WHERE b = 1) GROUP BY k",
			"SELECT b, COUNT(*) AS n FROM LINEAGE BACKWARD(SELECT k, COUNT(*) AS c FROM fact GROUP BY k OF fact WHERE k = 1) GROUP BY b"},
		// A seed on an aggregate, or a traced join, keeps the trace.
		{plan.FenceBackward,
			"SELECT b, COUNT(*) AS n FROM LINEAGE BACKWARD(SELECT k, COUNT(*) AS c FROM fact GROUP BY k OF fact WHERE c > 7) GROUP BY b",
			"SELECT b, COUNT(*) AS n FROM LINEAGE BACKWARD(SELECT k, COUNT(*) AS c FROM fact GROUP BY k OF fact WHERE k >= 3) GROUP BY b"},
		{plan.FenceBackward,
			"SELECT k, COUNT(*) AS n FROM LINEAGE BACKWARD(SELECT k, COUNT(*) AS c FROM dim JOIN fact ON fact.k = dim.g GROUP BY k OF fact WHERE k = 1) GROUP BY k",
			"SELECT k, COUNT(*) AS n FROM LINEAGE BACKWARD(SELECT k, COUNT(*) AS c FROM fact WHERE v < 9 GROUP BY k OF fact WHERE k = 1) GROUP BY k"},
	}
	for _, tc := range cases {
		if _, f := distribute(t, db, tc.fires); f != tc.fence {
			t.Errorf("%q: fence %v, want %v", tc.fires, f, tc.fence)
		}
		if _, f := distribute(t, db, tc.not); f != plan.Admit {
			t.Errorf("%q: fence %v, want admitted", tc.not, f)
		}
	}
}

// TestDistributeScatterRecipe: an admitted plan yields the merge recipe —
// the sharded table and the root group-by's keys and aggregates, read off
// the optimized plan whether the root is a GroupBy or a fused SPJA block —
// and a plan over replicated tables only names no table (proxy).
func TestDistributeScatterRecipe(t *testing.T) {
	db := distributeCatalog(t)
	for _, tc := range []struct {
		src  string
		want plan.Scatter
	}{
		{"SELECT k, COUNT(*) AS cnt, SUM(v) AS sv FROM fact GROUP BY k HAVING k > 2",
			plan.Scatter{Table: "fact", Keys: []string{"k"}, Aggs: []ops.AggFn{ops.Count, ops.Sum}}},
		{"SELECT label, b, AVG(v) AS av, MIN(v) AS mn FROM dim JOIN fact ON fact.k = dim.g GROUP BY label, b",
			plan.Scatter{Table: "fact", Keys: []string{"label", "b"}, Aggs: []ops.AggFn{ops.Avg, ops.Min}}},
		{"SELECT b, MAX(v) AS mx FROM LINEAGE BACKWARD(SELECT k, COUNT(*) AS c FROM fact GROUP BY k OF fact WHERE k = 2) GROUP BY b",
			plan.Scatter{Table: "fact", Keys: []string{"b"}, Aggs: []ops.AggFn{ops.Max}}},
		{"SELECT label, COUNT(DISTINCT g) AS d FROM dim GROUP BY label ORDER BY d LIMIT 1",
			plan.Scatter{}},
	} {
		got, f := distribute(t, db, tc.src)
		if f != plan.Admit || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q: %+v fence %v, want %+v admitted", tc.src, got, f, tc.want)
		}
	}
}

// TestFenceCodesAreDistinct: the reason-code table names every fence once,
// so a /healthz counter keyed by code can never merge two fences.
func TestFenceCodesAreDistinct(t *testing.T) {
	seen := map[string]plan.Fence{}
	for f := plan.Admit; f < plan.NumFences; f++ {
		code := f.String()
		if code == "" || f.Reason() == "" {
			t.Fatalf("fence %d has no code or reason", f)
		}
		if prev, dup := seen[code]; dup {
			t.Fatalf("fences %d and %d share code %q", prev, f, code)
		}
		seen[code] = f
	}
}
