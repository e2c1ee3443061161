package sql_test

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"smoke/internal/core"
	"smoke/internal/ops"
	"smoke/internal/sql"
	"smoke/internal/storage"
)

// explainDB builds a deterministic star dataset: dim(g pk, label) and
// fact(k fk, v).
func explainDB(t *testing.T) *core.DB {
	t.Helper()
	dim := storage.NewEmpty("dim", storage.Schema{
		{Name: "g", Type: storage.TInt},
		{Name: "label", Type: storage.TString},
	})
	for i := 0; i < 5; i++ {
		dim.AppendRow(i, "L"+string(rune('0'+i%2)))
	}
	fact := storage.NewEmpty("fact", storage.Schema{
		{Name: "k", Type: storage.TInt},
		{Name: "v", Type: storage.TFloat},
	})
	for i := 0; i < 20; i++ {
		fact.AppendRow(i%5, float64(i))
	}
	db := core.Open()
	db.Register(dim)
	db.Register(fact)
	return db
}

// TestExplainGolden pins the EXPLAIN rendering: the initial logical plan and
// the plan after every optimizer rule that fired. Regenerate the golden files
// with UPDATE_GOLDEN=1 go test ./internal/sql/.
func TestExplainGolden(t *testing.T) {
	db := explainDB(t)
	cases := []struct {
		name string
		src  string
	}{
		{"fused_join", `EXPLAIN SELECT label, COUNT(*) AS c, SUM(v) AS s
			FROM dim JOIN fact ON g = k
			WHERE v < 12 AND label = 'L0'
			GROUP BY label`},
		{"multiblock_subquery", `EXPLAIN SELECT label, SUM(cnt) AS total
			FROM (SELECT k, COUNT(*) AS cnt FROM fact WHERE v < 15 GROUP BY k) s
			JOIN dim ON s.k = g
			GROUP BY label
			HAVING total >= 1
			ORDER BY total DESC, label
			LIMIT 2`},
		{"single_table_having_key", `EXPLAIN SELECT k, COUNT(*) AS c FROM fact GROUP BY k HAVING k < 3 ORDER BY k`},
		// A backward consuming query: the trace-rewrite rule replaces the
		// key-predicate trace over the unbound aggregation with its
		// scan-and-filter equivalent, and the consuming WHERE sinks through
		// the trace into the scan.
		{"lineage_backward", `EXPLAIN SELECT k, SUM(v) AS s
			FROM LINEAGE BACKWARD(SELECT k, COUNT(*) AS c FROM fact GROUP BY k OF fact WHERE k < 2)
			WHERE v < 10
			GROUP BY k`},
		// A forward trace stays an index trace (EXPLAIN shows the trace node).
		{"lineage_forward", `EXPLAIN SELECT k, COUNT(*) AS n
			FROM LINEAGE FORWARD(SELECT k, COUNT(*) AS c FROM fact GROUP BY k OF fact WHERE v < 4)
			GROUP BY k`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := sql.Explain(db, tc.src)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "explain_"+tc.name+".golden")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run UPDATE_GOLDEN=1 go test): %v", err)
			}
			if got != string(want) {
				t.Errorf("EXPLAIN output changed.\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}

// TestAmbiguousJoinKeyAcrossJoins pins qualified join-key resolution: "k"
// exists in both ta and tb, so the third source joins on ta.k — the
// materialized prefix renames the colliding columns and the recorded
// qualifier must pick the right one.
func TestAmbiguousJoinKeyAcrossJoins(t *testing.T) {
	ta := storage.NewEmpty("ta", storage.Schema{
		{Name: "k", Type: storage.TInt}, {Name: "x", Type: storage.TInt}})
	tb := storage.NewEmpty("tb", storage.Schema{
		{Name: "k", Type: storage.TInt}, {Name: "y", Type: storage.TInt}})
	tc := storage.NewEmpty("tc", storage.Schema{
		{Name: "c", Type: storage.TInt}, {Name: "z", Type: storage.TString}})
	for i := 0; i < 6; i++ {
		ta.AppendRow(i, i*10)
		tb.AppendRow(i, i*100)
		tc.AppendRow(i, "Z"+string(rune('0'+i%2)))
	}
	db := core.Open()
	db.Register(ta)
	db.Register(tb)
	db.Register(tc)
	q, err := sql.Compile(db, `SELECT z, COUNT(*) AS cnt FROM ta JOIN tb ON ta.k = tb.k JOIN tc ON ta.k = c GROUP BY z`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run(core.CaptureOptions{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	cc := res.Out.Schema.MustCol("cnt")
	for o := 0; o < res.Out.N; o++ {
		total += res.Out.Int(cc, o)
	}
	if total != 6 {
		t.Fatalf("join lost rows: %d of 6", total)
	}
	rids, err := res.Backward("tc", []core.Rid{0})
	if err != nil || len(rids) != 3 {
		t.Fatalf("tc lineage = %v, %v", rids, err)
	}
}

// TestSameBaseBothSidesMergesLineage pins the contribution merge: when both
// join sides are subqueries over the same base table, backward/forward
// lineage must include both sides' rows (a map overwrite used to drop the
// left side's).
func TestSameBaseBothSidesMergesLineage(t *testing.T) {
	rel := storage.NewEmpty("t", storage.Schema{
		{Name: "z", Type: storage.TInt}, {Name: "v", Type: storage.TInt}})
	rel.AppendRow(1, 1)
	rel.AppendRow(1, 2)
	rel.AppendRow(2, 2)
	db := core.Open()
	db.Register(rel)
	q, err := sql.Compile(db, `
		SELECT z, SUM(c) AS sc, SUM(d) AS sd
		FROM (SELECT z, COUNT(*) AS c FROM t GROUP BY z) a
		JOIN (SELECT v, COUNT(*) AS d FROM t GROUP BY v) b ON z = v
		GROUP BY z ORDER BY z`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run(core.CaptureOptions{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	if res.Out.N != 2 {
		t.Fatalf("rows = %d", res.Out.N)
	}
	// Output z=1: left subquery contributes rids {0,1} (z=1), right
	// contributes rid {0} (v=1).
	rids, err := res.Capture().BackwardDistinct("t", []core.Rid{0})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(rids, func(i, j int) bool { return rids[i] < rids[j] })
	if !reflect.DeepEqual(rids, []core.Rid{0, 1}) {
		t.Fatalf("backward of z=1 = %v, want both sides' contributions [0 1]", rids)
	}
	// Output z=2: left {2}, right {1,2}.
	rids, err = res.Capture().BackwardDistinct("t", []core.Rid{1})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(rids, func(i, j int) bool { return rids[i] < rids[j] })
	if !reflect.DeepEqual(rids, []core.Rid{1, 2}) {
		t.Fatalf("backward of z=2 = %v, want [1 2]", rids)
	}
	// Forward of base rid 1 (z=1, v=2): left side feeds output 0, right
	// side feeds output 1.
	outs, err := res.Capture().ForwardDistinct("t", []core.Rid{1})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(outs, func(i, j int) bool { return outs[i] < outs[j] })
	if !reflect.DeepEqual(outs, []core.Rid{0, 1}) {
		t.Fatalf("forward of rid 1 = %v, want [0 1]", outs)
	}
}

// TestSQLSingleTablePushdownOptions pins that SQL-compiled single-table
// blocks still serve the §4.2 capture push-downs (data skipping here).
func TestSQLSingleTablePushdownOptions(t *testing.T) {
	db := explainDB(t)
	q, err := sql.Compile(db, `SELECT k, COUNT(*) AS c FROM fact GROUP BY k`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run(core.CaptureOptions{Mode: ops.Inject, PartitionBy: []string{"v"}})
	if err != nil {
		t.Fatal(err)
	}
	part, err := res.BackwardPartition(0, []any{0.0})
	if err != nil {
		t.Fatal(err)
	}
	// The answer is group 0's backward list (from the same query captured
	// without data skipping) filtered on v = 0.0 — and it is not empty.
	plain, err := q.Run(core.CaptureOptions{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	group0, err := plain.Backward("fact", []core.Rid{0})
	if err != nil {
		t.Fatal(err)
	}
	fact, _ := db.Table("fact")
	var want []core.Rid
	for _, r := range group0 {
		if fact.Float(1, int(r)) == 0.0 {
			want = append(want, r)
		}
	}
	if len(part) == 0 || !reflect.DeepEqual(part, want) {
		t.Fatalf("BackwardPartition(0, v = 0.0) = %v, want %v (non-empty)", part, want)
	}
	// Multi-block SQL still rejects push-down options.
	mb, err := sql.Compile(db, `SELECT label, COUNT(*) AS c FROM dim JOIN fact ON g = k GROUP BY label`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mb.Run(core.CaptureOptions{Mode: ops.Inject, PartitionBy: []string{"v"}}); err == nil {
		t.Fatal("multi-table push-down should error")
	}
}

// A filtered group-by captures its forward lineage over the filtered rids
// only (the sparse form); a HAVING above it composes that index with the
// filter's rid array. Every base rid must trace forward to the surviving
// output rows of its group — and to nothing when the WHERE or the HAVING
// dropped it — exactly as the lazy re-execution answers.
func TestSQLHavingOverFilteredGroupByForward(t *testing.T) {
	db := explainDB(t)
	q, err := sql.Compile(db, `SELECT k, COUNT(*) AS c FROM fact WHERE v >= 3 GROUP BY k HAVING c >= 4`)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := q.Run(core.CaptureOptions{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := q.Run(core.CaptureOptions{Strategy: core.StrategyLazy})
	if err != nil {
		t.Fatal(err)
	}
	// fact row i holds k = i%5, v = i: rows 3..19 pass the WHERE, groups
	// k=3 and k=4 (discovered first, four rows each) pass the HAVING.
	for r := core.Rid(0); r < 20; r++ {
		var want []core.Rid
		switch {
		case r >= 3 && r%5 == 3:
			want = []core.Rid{0}
		case r >= 3 && r%5 == 4:
			want = []core.Rid{1}
		}
		got, err := eager.Forward("fact", []core.Rid{r})
		if err != nil {
			t.Fatal(err)
		}
		re, err := lazy.Forward("fact", []core.Rid{r})
		if err != nil {
			t.Fatal(err)
		}
		same := func(rids []core.Rid) bool { return len(rids) == len(want) && (len(want) == 0 || rids[0] == want[0]) }
		if !same(got) || !same(re) {
			t.Fatalf("forward of fact rid %d: eager %v, lazy %v, want %v", r, got, re, want)
		}
	}
}

func TestExplainStatementDoesNotExecute(t *testing.T) {
	db := explainDB(t)
	if _, err := sql.Compile(db, "EXPLAIN SELECT k, COUNT(*) AS c FROM fact GROUP BY k"); err == nil {
		t.Fatal("Compile must reject EXPLAIN statements")
	}
}

// TestMultiBlockSQLEndToEnd runs the acceptance query shape — group-by over a
// join over a grouped subquery, with HAVING and LIMIT — and checks output and
// both lineage directions against hand-computed expectations.
func TestMultiBlockSQLEndToEnd(t *testing.T) {
	db := explainDB(t)
	q, err := sql.Compile(db, `
		SELECT label, SUM(cnt) AS total
		FROM (SELECT k, COUNT(*) AS cnt FROM fact WHERE v < 15 GROUP BY k) s
		JOIN dim ON s.k = g
		GROUP BY label
		HAVING total >= 1
		ORDER BY total DESC, label
		LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run(core.CaptureOptions{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	// fact rows with v<15 are rids 0..14, k = rid%5. Groups k=0..4 get 3
	// rows each; dim labels: g even -> "L0" (g=0,2,4: 9 rows), g odd ->
	// "L1" (g=1,3: 6 rows).
	if res.Out.N != 2 {
		t.Fatalf("rows = %d", res.Out.N)
	}
	lc := res.Out.Schema.MustCol("label")
	tc := res.Out.Schema.MustCol("total")
	if res.Out.Str(lc, 0) != "L0" || res.Out.Float(tc, 0) != 9 {
		t.Fatalf("row 0 = %v %v", res.Out.Str(lc, 0), res.Out.Float(tc, 0))
	}
	if res.Out.Str(lc, 1) != "L1" || res.Out.Float(tc, 1) != 6 {
		t.Fatalf("row 1 = %v %v", res.Out.Str(lc, 1), res.Out.Float(tc, 1))
	}
	// Backward lineage of row 0 reaches exactly the fact base rows with
	// v<15 and even k.
	rids, err := res.Backward("fact", []core.Rid{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 9 {
		t.Fatalf("fact lineage of row 0: %d rids", len(rids))
	}
	fact, _ := db.Table("fact")
	for _, r := range rids {
		if fact.Float(1, int(r)) >= 15 || fact.Int(0, int(r))%2 != 0 {
			t.Fatalf("bad lineage rid %d", r)
		}
	}
	// Forward lineage: fact rid 1 (k=1, "L1") maps to output row 1; a
	// filtered-out row (v>=15) maps nowhere.
	fw, err := res.Forward("fact", []core.Rid{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(fw) != 1 || fw[0] != 1 {
		t.Fatalf("forward of fact rid 1 = %v", fw)
	}
	fw, err = res.Forward("fact", []core.Rid{17})
	if err != nil || len(fw) != 0 {
		t.Fatalf("forward of filtered rid = %v, %v", fw, err)
	}
	// dim lineage of row 0: the three even-g dim rows, one copy per
	// contributing fact row.
	drids, err := res.BackwardDistinct("dim", []core.Rid{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(drids) != 3 {
		t.Fatalf("distinct dim lineage of row 0 = %v", drids)
	}
}
