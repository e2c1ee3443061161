package shard_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"smoke/internal/serverclient"
)

// identical fails t unless got is exactly want: schema, row count, group
// counts and every cell, floats compared bit for bit (-0 is not 0).
func identical(t *testing.T, tag string, got, want *serverclient.Result) {
	t.Helper()
	if fmt.Sprint(got.Columns, got.Types, got.N, got.GroupCounts) != fmt.Sprint(want.Columns, want.Types, want.N, want.GroupCounts) {
		t.Fatalf("%s: got %v %v n=%d group_counts=%v, want %v %v n=%d group_counts=%v", tag,
			got.Columns, got.Types, got.N, got.GroupCounts, want.Columns, want.Types, want.N, want.GroupCounts)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", tag, len(got.Rows), len(want.Rows))
	}
	for r, row := range want.Rows {
		for c, w := range row {
			g := got.Rows[r][c]
			if wf, ok := w.(float64); ok {
				if gf, ok := g.(float64); !ok || math.Float64bits(gf) != math.Float64bits(wf) {
					t.Fatalf("%s: row %d col %d = %#v, want %#v", tag, r, c, g, w)
				}
			} else if g != w {
				t.Fatalf("%s: row %d col %d = %#v, want %#v", tag, r, c, g, w)
			}
		}
	}
}

// keyData is a table whose group keys stress identity: -0.0 and 0.0 in
// different shards (each first seen in another shard than the other), int64
// keys beyond 2^53 that a float64 round trip would merge, strings with
// escapes, and an (INT, STRING) composite key.
func keyData() ([]serverclient.Field, [][]any) {
	schema := []serverclient.Field{
		{Name: "f", Type: "float"}, {Name: "i", Type: "int"}, {Name: "s", Type: "string"}, {Name: "v", Type: "float"},
	}
	floats := []float64{0, 1.5, -2.25, 5e-324, 1e300}
	ints := []int64{1<<53 + 1, 1<<53 + 2, 1 << 53, -(1<<62 + 3), math.MaxInt64, math.MinInt64}
	strs := []string{`a"b`, `back\slash`, "new\nline", "tab\t<&>", "é中😀", " ", "", "a\"b "}
	var rows [][]any
	for r := 0; r < 48; r++ {
		f := floats[r%len(floats)]
		if f == 0 && r >= 24 {
			f = math.Copysign(0, -1) // -0.0 only in the second half of the rows
		}
		rows = append(rows, []any{f, ints[(r/3)%len(ints)], strs[(r*5)%len(strs)], float64(r % 9)})
	}
	return schema, rows
}

// TestGatherKeyIdentity: over keys that stress identity, a coordinator at 2
// and 4 shards answers queries, retains, and backward and forward traces
// exactly as a single node does — rows, row order and group counts.
func TestGatherKeyIdentity(t *testing.T) {
	ctx := context.Background()
	schema, rows := keyData()
	ref := startSingle(t)
	if err := ref.CreateTable(ctx, "kt", schema, rows, ""); err != nil {
		t.Fatal(err)
	}
	refSess, err := ref.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	type coordinator struct {
		shards int
		c      *serverclient.Client
		sess   *serverclient.Session
	}
	var coords []coordinator
	for _, shards := range []int{2, 4} {
		_, c := startCoord(t, shards)
		if err := c.CreateTableDist(ctx, "kt", schema, rows, "", "shard"); err != nil {
			t.Fatal(err)
		}
		sess, err := c.NewSession(ctx)
		if err != nil {
			t.Fatal(err)
		}
		coords = append(coords, coordinator{shards, c, sess})
	}
	groupings := [][]string{{"f"}, {"i"}, {"s"}, {"i", "s"}}
	for qi, keys := range groupings {
		cols := fmt.Sprint(keys[0])
		if len(keys) == 2 {
			cols += ", " + keys[1]
		}
		sql := fmt.Sprintf("SELECT %s, COUNT(*) AS c, SUM(v) AS sv, MIN(v) AS mn, MAX(v) AS mx FROM kt GROUP BY %s", cols, cols)
		name := fmt.Sprintf("q%d", qi)
		wantQ, err := ref.Query(ctx, serverclient.QueryRequest{SQL: sql})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		wantR, err := refSess.Run(ctx, name, serverclient.QueryRequest{SQL: sql})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		var traces []serverclient.TraceRequest
		for _, g := range groupings {
			traces = append(traces, serverclient.TraceRequest{Direction: "backward", Table: "kt",
				Rids: []int64{int64(wantR.N - 1), 0}, GroupBy: g, Aggs: []serverclient.Agg{{Fn: "count", Name: "n"}, {Fn: "max", Arg: "v"}}})
		}
		traces = append(traces,
			serverclient.TraceRequest{Direction: "backward", Table: "kt", Rids: []int64{0, int64(wantR.N - 1)}},
			serverclient.TraceRequest{Direction: "forward", Table: "kt"},
			serverclient.TraceRequest{Direction: "forward", Table: "kt", Rids: []int64{47, 0, 23, 24}, Where: "c > 1"},
		)
		for _, co := range coords {
			tag := fmt.Sprintf("shards=%d %s", co.shards, sql)
			got, err := co.c.Query(ctx, serverclient.QueryRequest{SQL: sql})
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			identical(t, tag+" query", got, wantQ)
			if got, err = co.sess.Run(ctx, name, serverclient.QueryRequest{SQL: sql}); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			identical(t, tag+" retain", got, wantR)
			for i, tr := range traces {
				want, err := refSess.Trace(ctx, name, tr)
				if err != nil {
					t.Fatalf("%s reference trace %d: %v", tag, i, err)
				}
				got, err := co.sess.Trace(ctx, name, tr)
				if err != nil {
					t.Fatalf("%s trace %d: %v", tag, i, err)
				}
				identical(t, fmt.Sprintf("%s trace %d", tag, i), got, want)
			}
		}
	}
}

// TestParameterizedCaptureTrace: a result captured under a query parameter
// answers a consuming trace seeded by a key predicate with its captured
// lineage — not a scan re-run under the trace's own parameters — on a single
// node and on a coordinator alike; a lazy capture, which has only its plan
// to re-run, is a stated 422 on both.
func TestParameterizedCaptureTrace(t *testing.T) {
	ctx := context.Background()
	schema := []serverclient.Field{{Name: "k", Type: "int"}, {Name: "v", Type: "int"}}
	var rows [][]any
	for i := 0; i < 100; i++ {
		rows = append(rows, []any{i % 7, i})
	}
	const sql = "SELECT k, COUNT(*) AS c FROM t WHERE v >= :x GROUP BY k"
	capture := map[string]any{"x": 50} // 50 rows: v in [50, 100)
	ref := startSingle(t)
	if err := ref.CreateTable(ctx, "t", schema, rows, ""); err != nil {
		t.Fatal(err)
	}
	_, coord := startCoord(t, 2)
	if err := coord.CreateTableDist(ctx, "t", schema, rows, "", "shard"); err != nil {
		t.Fatal(err)
	}
	var eager *serverclient.Result
	for _, c := range []*serverclient.Client{ref, coord} {
		sess, err := c.NewSession(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(ctx, "eager", serverclient.QueryRequest{SQL: sql, Params: capture}); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(ctx, "lazy", serverclient.QueryRequest{SQL: sql, Params: capture, Strategy: "lazy"}); err != nil {
			t.Fatal(err)
		}
		for _, params := range []map[string]any{nil, {"x": 90}} {
			tr := serverclient.TraceRequest{Direction: "backward", Table: "t", SeedWhere: "k >= 0", Params: params}
			got, err := sess.Trace(ctx, "eager", tr)
			if err != nil {
				t.Fatalf("params %v: %v", params, err)
			}
			if got.N != 50 {
				t.Fatalf("params %v: traced %d rows, the capture holds 50", params, got.N)
			}
			if eager == nil {
				eager = got
			}
			identical(t, fmt.Sprintf("params %v", params), got, eager)
			if _, err := sess.Trace(ctx, "lazy", tr); err == nil || err.(*serverclient.Error).Status != 422 {
				t.Fatalf("params %v: lazy trace answered %v, want a 422", params, err)
			}
		}
	}
}
