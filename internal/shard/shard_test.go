package shard_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"smoke/internal/core"
	"smoke/internal/plan"
	"smoke/internal/server"
	"smoke/internal/serverclient"
	"smoke/internal/shard"
)

// startCoord spins up a coordinator behind a real HTTP listener and returns
// a client for it.
func startCoord(t *testing.T, shards int) (*shard.Coordinator, *serverclient.Client) {
	t.Helper()
	coord := shard.New(shard.Config{Shards: shards, ShardTimeout: 5 * time.Second})
	ts := httptest.NewServer(coord)
	t.Cleanup(func() {
		ts.Close()
		_ = coord.Close()
	})
	return coord, serverclient.New(ts.URL, nil)
}

// startSingle spins up a plain single-node server — the reference the
// sharded answers must be element-identical to.
func startSingle(t *testing.T) *serverclient.Client {
	t.Helper()
	db := core.Open(core.WithWorkers(1))
	srv := server.New(server.Config{DB: db})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Close()
		db.Close()
	})
	return serverclient.New(ts.URL, nil)
}

// testData is a small dim/fact pair: fact shards, dim replicates.
func testData() (dimSchema, factSchema []serverclient.Field, dimRows, factRows [][]any) {
	dimSchema = []serverclient.Field{{Name: "g", Type: "int"}, {Name: "label", Type: "string"}}
	factSchema = []serverclient.Field{{Name: "k", Type: "int"}, {Name: "b", Type: "int"}, {Name: "v", Type: "float"}}
	for g := 0; g < 5; g++ {
		dimRows = append(dimRows, []any{g, fmt.Sprintf("g%d", g)})
	}
	for i := 0; i < 103; i++ {
		factRows = append(factRows, []any{i % 5, i % 7, float64(i%13) + 0.5})
	}
	return
}

// ingest loads the test data into a server; dist applies only when the
// target understands it (the coordinator).
func ingest(t *testing.T, c *serverclient.Client, factDist string) {
	t.Helper()
	ctx := context.Background()
	dimSchema, factSchema, dimRows, factRows := testData()
	if err := c.CreateTableDist(ctx, "dim", dimSchema, dimRows, "g", "replicate"); err != nil {
		t.Fatalf("ingest dim: %v", err)
	}
	if err := c.CreateTableDist(ctx, "fact", factSchema, factRows, "", factDist); err != nil {
		t.Fatalf("ingest fact: %v", err)
	}
}

func sameResult(t *testing.T, tag string, got, want *serverclient.Result) {
	t.Helper()
	if got.N != want.N || len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: row count %d vs reference %d", tag, got.N, want.N)
	}
	if len(got.Columns) != len(want.Columns) {
		t.Fatalf("%s: column count %d vs %d", tag, len(got.Columns), len(want.Columns))
	}
	for i, col := range want.Columns {
		if got.Columns[i] != col || got.Types[i] != want.Types[i] {
			t.Fatalf("%s: schema mismatch at %d: %s/%s vs %s/%s", tag, i, got.Columns[i], got.Types[i], col, want.Types[i])
		}
	}
	for r := range want.Rows {
		for c := range want.Rows[r] {
			g, w := got.Rows[r][c], want.Rows[r][c]
			if gf, ok := g.(float64); ok {
				wf, ok := w.(float64)
				if !ok {
					t.Fatalf("%s: row %d col %d type mismatch: %T vs %T", tag, r, c, g, w)
				}
				if diff := math.Abs(gf - wf); diff > 1e-9*math.Max(1, math.Abs(wf)) {
					t.Fatalf("%s: row %d col %d: %v vs %v", tag, r, c, gf, wf)
				}
				continue
			}
			if g != w {
				t.Fatalf("%s: row %d col %d: got %v (%T), want %v (%T)", tag, r, c, g, g, w, w)
			}
		}
	}
}

// TestScatterQueryMatchesSingleNode: grouped scans and dim-joins over the
// sharded fact table answer element-identically to a single node, for every
// shard count.
func TestScatterQueryMatchesSingleNode(t *testing.T) {
	ctx := context.Background()
	ref := startSingle(t)
	ingest(t, ref, "")

	queries := []string{
		"SELECT b, COUNT(*) AS cnt FROM fact GROUP BY b",
		"SELECT k, COUNT(*) AS cnt, SUM(v) AS sv, AVG(v) AS av, MIN(v) AS mn, MAX(v) AS mx FROM fact GROUP BY k",
		// Joins write the sharded table LAST (probe side); grouping by a dim
		// column and by a fact column exercise both group-discovery orders.
		"SELECT label, SUM(v) AS sv FROM dim JOIN fact ON fact.k = dim.g GROUP BY label",
		"SELECT b, COUNT(*) AS cnt, SUM(v) AS sv FROM dim JOIN fact ON fact.k = dim.g WHERE v < 9 GROUP BY b",
		// A HAVING on group keys only is no fence: the optimizer sinks it
		// into the scan, so the plan is the canonical scatter shape.
		"SELECT k, COUNT(*) AS cnt FROM fact GROUP BY k HAVING k > 2",
		"SELECT k, SUM(v) AS sv FROM fact GROUP BY k HAVING k < 3",
	}
	for _, shards := range []int{1, 2, 4} {
		_, c := startCoord(t, shards)
		ingest(t, c, "shard")
		for _, q := range queries {
			want, err := ref.Query(ctx, serverclient.QueryRequest{SQL: q})
			if err != nil {
				t.Fatalf("reference %q: %v", q, err)
			}
			got, err := c.Query(ctx, serverclient.QueryRequest{SQL: q})
			if err != nil {
				t.Fatalf("shards=%d %q: %v", shards, q, err)
			}
			sameResult(t, fmt.Sprintf("shards=%d %q", shards, q), got, want)
		}
	}
}

// TestScatteredTraceMatchesSingleNode: retained grouped results answer
// backward traces (plain and consuming) and forward traces
// element-identically to a single node.
func TestScatteredTraceMatchesSingleNode(t *testing.T) {
	ctx := context.Background()
	ref := startSingle(t)
	ingest(t, ref, "")
	refSess, err := ref.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	const baseSQL = "SELECT k, COUNT(*) AS cnt, SUM(v) AS sv FROM fact GROUP BY k"
	refBase, err := refSess.Run(ctx, "base", serverclient.QueryRequest{SQL: baseSQL})
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 2, 4} {
		_, c := startCoord(t, shards)
		ingest(t, c, "shard")
		sess, err := c.NewSession(ctx)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		base, err := sess.Run(ctx, "base", serverclient.QueryRequest{SQL: baseSQL})
		if err != nil {
			t.Fatalf("shards=%d run: %v", shards, err)
		}
		sameResult(t, fmt.Sprintf("shards=%d base", shards), base, refBase)

		traces := []serverclient.TraceRequest{
			{Direction: "backward", Table: "fact", Rids: []int64{0}},
			{Direction: "backward", Table: "fact", Rids: []int64{int64(base.N - 1), 0, 2}},
			{Direction: "backward", Table: "fact"}, // trace-all
			{Direction: "backward", Table: "fact", SeedWhere: "k >= 2"},
			{Direction: "backward", Table: "fact", Rids: []int64{1}, Where: "b = 3"},
			{Direction: "backward", Table: "fact", Rids: []int64{0, 1},
				GroupBy: []string{"b"}, Aggs: []serverclient.Agg{{Fn: "count", Name: "n"}, {Fn: "sum", Arg: "v", Name: "sv"}, {Fn: "avg", Arg: "v", Name: "av"}}},
			{Direction: "forward", Table: "fact", Rids: []int64{0, 51, 102}},
			{Direction: "forward", Table: "fact", SeedWhere: "b = 1"},
			{Direction: "forward", Table: "fact", Rids: []int64{5, 6, 7}, Where: "cnt > 20"},
			// An empty brush: zero explicit seeds, not trace-all.
			{Direction: "backward", Table: "fact", Rids: []int64{}},
			{Direction: "forward", Table: "fact", Rids: []int64{}},
		}
		for i, tr := range traces {
			want, err := refSess.Trace(ctx, "base", tr)
			if err != nil {
				t.Fatalf("reference trace %d: %v", i, err)
			}
			got, err := sess.Trace(ctx, "base", tr)
			if err != nil {
				t.Fatalf("shards=%d trace %d: %v", shards, i, err)
			}
			sameResult(t, fmt.Sprintf("shards=%d trace %d", shards, i), got, want)
			// Identity with the reference cannot see a seed both sides drop:
			// pin the rids contract absolutely.
			switch {
			case tr.Rids != nil && len(tr.Rids) == 0 && got.N != 0:
				t.Fatalf("shards=%d trace %d: explicit empty seed traced %d rows, want 0", shards, i, got.N)
			case tr.Rids == nil && tr.SeedWhere == "" && got.N != 103:
				t.Fatalf("shards=%d trace %d: nil seed traced %d rows, want all 103", shards, i, got.N)
			}
		}
	}
}

// TestSeedTranslationGlobalRange is the latent-assumption regression: a seed
// rid that is valid GLOBALLY but out of range for every individual shard's
// slice must succeed — the coordinator validates against the global spaces
// and hands each shard a translated local rid, so no shard ever sees an
// out-of-range seed. A pre-translation implementation would forward the
// global rid and 400.
func TestSeedTranslationGlobalRange(t *testing.T) {
	ctx := context.Background()
	_, c := startCoord(t, 4)
	ingest(t, c, "shard") // 103 fact rows → slices of ~26: global rid 102 is out of range for every slice
	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(ctx, "base", serverclient.QueryRequest{
		SQL: "SELECT k, COUNT(*) AS cnt FROM fact GROUP BY k",
	}); err != nil {
		t.Fatal(err)
	}
	// Forward: global rid 102 (> every shard's ~26-row slice).
	if _, err := sess.Trace(ctx, "base", serverclient.TraceRequest{
		Direction: "forward", Table: "fact", Rids: []int64{102},
	}); err != nil {
		t.Fatalf("valid-global forward seed 400ed: %v", err)
	}
	// Truly out-of-global-range still 400s.
	_, err = sess.Trace(ctx, "base", serverclient.TraceRequest{
		Direction: "forward", Table: "fact", Rids: []int64{103},
	})
	if se, ok := err.(*serverclient.Error); !ok || se.Status != 400 {
		t.Fatalf("out-of-global-range seed: want 400, got %v", err)
	}
}

// TestScatterFences: shapes whose gather would be silently wrong are
// structured 422s, never wrong answers.
func TestScatterFences(t *testing.T) {
	ctx := context.Background()
	_, c := startCoord(t, 2)
	ingest(t, c, "shard")

	want := map[string]int64{}
	for _, tc := range []struct{ sql, code string }{
		{"SELECT k, COUNT(DISTINCT b) AS d FROM fact GROUP BY k", "count_distinct"},
		// HAVING on an aggregate filters partial values (a key-only HAVING is
		// admitted: TestScatterQueryMatchesSingleNode).
		{"SELECT k, COUNT(*) AS cnt FROM fact GROUP BY k HAVING cnt > 10", "having"},
		{"SELECT k, COUNT(*) AS cnt FROM fact GROUP BY k ORDER BY cnt", "order_limit"},
		{"SELECT k, COUNT(*) AS cnt FROM fact GROUP BY k LIMIT 3", "order_limit"},
		// The sharded table on the build side: output order follows the
		// replicated probe table, interleaving shards' build rows.
		{"SELECT label, SUM(v) AS sv FROM fact JOIN dim ON fact.k = dim.g GROUP BY label", "build_side"},
	} {
		_, err := c.Query(ctx, serverclient.QueryRequest{SQL: tc.sql})
		se, ok := err.(*serverclient.Error)
		if !ok || se.Status != 422 || !strings.Contains(se.Message, "(fence "+tc.code+")") {
			t.Fatalf("%q: want 422 naming fence %s, got %v", tc.sql, tc.code, err)
		}
		want[tc.code]++
	}
	checkFenced(t, c, want)

	// Replicated-only statements are NOT fenced — they proxy.
	if _, err := c.Query(ctx, serverclient.QueryRequest{
		SQL: "SELECT label, COUNT(*) AS n FROM dim GROUP BY label",
	}); err != nil {
		t.Fatalf("replicated-only query should proxy: %v", err)
	}

	// shards=1 has no fences at all.
	_, c1 := startCoord(t, 1)
	ingest(t, c1, "shard")
	if _, err := c1.Query(ctx, serverclient.QueryRequest{
		SQL: "SELECT k, COUNT(DISTINCT b) AS d FROM fact GROUP BY k",
	}); err != nil {
		t.Fatalf("shards=1 must be fence-free: %v", err)
	}
}

// checkFenced asserts the coordinator's /healthz "fenced" object: every
// reason code present, and each counting exactly the refusals in want.
func checkFenced(t *testing.T, c *serverclient.Client, want map[string]int64) {
	t.Helper()
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fenced, ok := h["fenced"].(map[string]any)
	if !ok {
		t.Fatalf("healthz fenced = %v, want an object keyed by reason code", h["fenced"])
	}
	for f := plan.Admit + 1; f < plan.NumFences; f++ {
		v, ok := fenced[f.String()]
		if !ok {
			t.Fatalf("healthz fenced misses code %q: %v", f, fenced)
		}
		if got := asInt(t, v); got != want[f.String()] {
			t.Fatalf("healthz fenced[%s] = %d, want %d", f, got, want[f.String()])
		}
	}
}

// TestHealthzCounters: the coordinator healthz aggregates per-shard entries
// and its own counters.
func TestHealthzCounters(t *testing.T) {
	ctx := context.Background()
	_, c := startCoord(t, 2)
	ingest(t, c, "shard")
	if _, err := c.Query(ctx, serverclient.QueryRequest{
		SQL: "SELECT k, COUNT(*) AS cnt FROM fact GROUP BY k",
	}); err != nil {
		t.Fatal(err)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if asInt(t, h["shards"]) != 2 {
		t.Fatalf("healthz shards = %v, want 2", h["shards"])
	}
	for _, key := range []string{"scatters", "proxied", "merged_queries", "merged_traces", "shard_timeouts", "shard_errors", "rejected_requests", "fenced", "per_shard"} {
		if _, ok := h[key]; !ok {
			t.Fatalf("healthz missing %q: %v", key, h)
		}
	}
	per, ok := h["per_shard"].([]any)
	if !ok || len(per) != 2 {
		t.Fatalf("per_shard = %v, want 2 entries", h["per_shard"])
	}
	for _, e := range per {
		entry := e.(map[string]any)
		if entry["ok"] != true {
			t.Fatalf("healthy shard reports not-ok: %v", entry)
		}
		if _, ok := entry["calls"]; !ok {
			t.Fatalf("per-shard entry missing calls counter: %v", entry)
		}
	}
	if asInt(t, h["merged_queries"]) < 1 {
		t.Fatalf("merged_queries not counted: %v", h["merged_queries"])
	}
}

// asInt reads a healthz numeric field (the client decodes with UseNumber).
func asInt(t *testing.T, v any) int64 {
	t.Helper()
	n, ok := v.(json.Number)
	if !ok {
		t.Fatalf("healthz value %v is %T, want a number", v, v)
	}
	i, err := n.Int64()
	if err != nil {
		t.Fatalf("healthz value %v: %v", v, err)
	}
	return i
}

// TestReplicatedSessionFlow: a session against replicated tables behaves
// exactly like a single node (retain, get, trace, retain-chaining, drop).
func TestReplicatedSessionFlow(t *testing.T) {
	ctx := context.Background()
	_, c := startCoord(t, 3)
	ingest(t, c, "replicate")
	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	base, err := sess.Run(ctx, "base", serverclient.QueryRequest{
		SQL: "SELECT k, SUM(v) AS sv FROM fact GROUP BY k",
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.Result(ctx, "base")
	if err != nil {
		t.Fatal(err)
	}
	if got.N != base.N {
		t.Fatalf("GET result N=%d, want %d", got.N, base.N)
	}
	// Retain-chaining works on home-shard results (proxied untouched).
	if _, err := sess.Trace(ctx, "base", serverclient.TraceRequest{
		Direction: "backward", Table: "fact", Rids: []int64{0},
		GroupBy: []string{"b"}, Aggs: []serverclient.Agg{{Fn: "count", Name: "n"}},
		Retain: "drill",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Trace(ctx, "drill", serverclient.TraceRequest{
		Direction: "backward", Table: "fact", Rids: []int64{0},
	}); err != nil {
		t.Fatalf("chained trace against retained trace result: %v", err)
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Result(ctx, "base"); err == nil {
		t.Fatal("dropped session still answers")
	}
}

// TestDroppedSessionAnswers410 pins the coordinator to the single-node
// registry's 410-vs-404 split: a dropped session is Gone (the client should
// open a new one), an id that never existed is NotFound. The coordinator has
// no tombstone set — it derives "was created here" from its monotonic id
// sequence — so this guards that reconstruction.
func TestDroppedSessionAnswers410(t *testing.T) {
	ctx := context.Background()
	coord := shard.New(shard.Config{Shards: 2, ShardTimeout: 5 * time.Second})
	ts := httptest.NewServer(coord)
	t.Cleanup(func() {
		ts.Close()
		_ = coord.Close()
	})
	c := serverclient.New(ts.URL, nil)
	ingest(t, c, "shard")
	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	_, err = sess.Trace(ctx, "base", serverclient.TraceRequest{
		Direction: "backward", Table: "fact", Rids: []int64{0},
	})
	var se *serverclient.Error
	if !errors.As(err, &se) || se.Status != 410 || se.Kind != "gone" {
		t.Fatalf("trace after drop: got %v, want 410 gone", err)
	}
	if err := sess.Close(ctx); err == nil {
		t.Fatal("second drop: expected an error, got success")
	} else if !errors.As(err, &se) || se.Status != 410 {
		t.Fatalf("second drop: got %v, want 410 gone", err)
	}
	// A made-up id never minted by this coordinator stays a plain 404.
	for _, path := range []string{"/v1/sessions/cs-999999/results/base", "/v1/sessions/bogus/results/base"} {
		res, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, res.StatusCode)
		}
	}
}

// TestScatteredTraceFences: traces a scattered result cannot answer
// faithfully are 422s.
func TestScatteredTraceFences(t *testing.T) {
	ctx := context.Background()
	_, c := startCoord(t, 2)
	ingest(t, c, "shard")
	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(ctx, "base", serverclient.QueryRequest{
		SQL: "SELECT k, COUNT(*) AS cnt FROM dim JOIN fact ON fact.k = dim.g GROUP BY k",
	}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		tr   serverclient.TraceRequest
		code string
	}{
		{serverclient.TraceRequest{Direction: "backward", Table: "dim", Rids: []int64{0}}, "replicated_trace"},
		{serverclient.TraceRequest{Direction: "backward", Table: "fact", Rids: []int64{0}, Retain: "x"}, "retain"},
		{serverclient.TraceRequest{Direction: "forward", Table: "fact", Rids: []int64{0}, GroupBy: []string{"k"}}, "consuming_forward"},
		{serverclient.TraceRequest{Direction: "backward", Table: "fact", Rids: []int64{0}, Aggs: []serverclient.Agg{{Fn: "count_distinct", Arg: "b"}}}, "count_distinct"},
	}
	want := map[string]int64{}
	for i, tc := range cases {
		_, err := sess.Trace(ctx, "base", tc.tr)
		se, ok := err.(*serverclient.Error)
		if !ok || se.Status != 422 || !strings.Contains(se.Message, "(fence "+tc.code+")") {
			t.Fatalf("fence case %d: want 422 naming fence %s, got %v", i, tc.code, err)
		}
		want[tc.code]++
	}
	checkFenced(t, c, want)
}

// TestScatteredTraceStrategyMatrix: the coordinator takes the plan layer's
// scan-vs-index trace decision with GLOBAL seed counts. That decision differs
// per strategy (eager applies the half-the-output threshold, lazy rewrites
// unconditionally, hybrid captures backward eagerly), so every explicit
// strategy must stay element-identical to a single node above AND below the
// threshold, plain and consuming.
func TestScatteredTraceStrategyMatrix(t *testing.T) {
	ctx := context.Background()
	const baseSQL = "SELECT k, COUNT(*) AS cnt, SUM(v) AS sv FROM fact GROUP BY k"
	traces := []serverclient.TraceRequest{
		{Direction: "backward", Table: "fact"},                      // trace-all: scan shape, above threshold
		{Direction: "backward", Table: "fact", SeedWhere: "k >= 2"}, // 3 of 5 groups: at/above threshold
		{Direction: "backward", Table: "fact", SeedWhere: "k >= 3"}, // 2 of 5 groups: below the eager threshold → index for eager, scan for lazy
		{Direction: "backward", Table: "fact", SeedWhere: "k = 1"},  // single seed: path-independent
		{Direction: "backward", Table: "fact", SeedWhere: "k >= 3", Where: "b < 4"},
		{Direction: "backward", Table: "fact", // consuming trace-all: scan discovery order must survive re-aggregation
			GroupBy: []string{"b"}, Aggs: []serverclient.Agg{{Fn: "count", Name: "n"}, {Fn: "sum", Arg: "v", Name: "sv"}}},
		{Direction: "backward", Table: "fact", SeedWhere: "k >= 2",
			GroupBy: []string{"b"}, Aggs: []serverclient.Agg{{Fn: "count", Name: "n"}}},
		{Direction: "backward", Table: "fact", SeedWhere: "k >= 3", Strategy: "lazy"}, // trace-level force beats the result's routing
	}
	for _, strategy := range []string{"eager", "lazy", "hybrid"} {
		ref := startSingle(t)
		ingest(t, ref, "")
		refSess, err := ref.NewSession(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := refSess.Run(ctx, "base", serverclient.QueryRequest{SQL: baseSQL, Strategy: strategy}); err != nil {
			t.Fatalf("%s reference run: %v", strategy, err)
		}
		for _, shards := range []int{2, 4} {
			_, c := startCoord(t, shards)
			ingest(t, c, "shard")
			sess, err := c.NewSession(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Run(ctx, "base", serverclient.QueryRequest{SQL: baseSQL, Strategy: strategy}); err != nil {
				t.Fatalf("%s shards=%d run: %v", strategy, shards, err)
			}
			for i, tr := range traces {
				want, err := refSess.Trace(ctx, "base", tr)
				if err != nil {
					t.Fatalf("%s reference trace %d: %v", strategy, i, err)
				}
				got, err := sess.Trace(ctx, "base", tr)
				if err != nil {
					t.Fatalf("%s shards=%d trace %d: %v", strategy, shards, i, err)
				}
				sameResult(t, fmt.Sprintf("%s shards=%d trace %d", strategy, shards, i), got, want)
			}
		}
	}
}

// TestAutoStrategyTraceFence: strategy "auto" resolves against per-node
// runtime counters the coordinator cannot see. Traces whose row order depends
// on that resolution (multi-seed, below the eager scan threshold) are a
// structured 422 — never a guessed order — while order-independent traces on
// the same result still answer.
func TestAutoStrategyTraceFence(t *testing.T) {
	ctx := context.Background()
	_, c := startCoord(t, 2)
	ingest(t, c, "shard")
	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(ctx, "base", serverclient.QueryRequest{
		SQL: "SELECT k, COUNT(*) AS cnt FROM fact GROUP BY k", Strategy: "auto",
	}); err != nil {
		t.Fatal(err)
	}
	// Below threshold (2 of 5 groups) and multi-seed: order depends on auto.
	_, err = sess.Trace(ctx, "base", serverclient.TraceRequest{
		Direction: "backward", Table: "fact", SeedWhere: "k >= 3",
	})
	if se, ok := err.(*serverclient.Error); !ok || se.Status != 422 || !strings.Contains(se.Message, "(fence auto_order)") {
		t.Fatalf("auto below-threshold trace: want 422 naming fence auto_order, got %v", err)
	}
	// Above threshold both paths collapse to the scan — no fence.
	if _, err := sess.Trace(ctx, "base", serverclient.TraceRequest{
		Direction: "backward", Table: "fact", SeedWhere: "k >= 1",
	}); err != nil {
		t.Fatalf("auto above-threshold trace should answer: %v", err)
	}
	// Single seed is path-independent — no fence.
	if _, err := sess.Trace(ctx, "base", serverclient.TraceRequest{
		Direction: "backward", Table: "fact", SeedWhere: "k = 4",
	}); err != nil {
		t.Fatalf("auto single-seed trace should answer: %v", err)
	}
	// Explicit rids take the per-seed path — no fence, and a trace-level
	// explicit strategy also lifts it.
	if _, err := sess.Trace(ctx, "base", serverclient.TraceRequest{
		Direction: "backward", Table: "fact", Rids: []int64{3, 4},
	}); err != nil {
		t.Fatalf("auto explicit-rid trace should answer: %v", err)
	}
	if _, err := sess.Trace(ctx, "base", serverclient.TraceRequest{
		Direction: "backward", Table: "fact", SeedWhere: "k >= 3", Strategy: "lazy",
	}); err != nil {
		t.Fatalf("auto base + forced-lazy trace should answer: %v", err)
	}
}

// TestUnboundLineageQueryScattered: stateless LINEAGE BACKWARD queries
// scatter when the traced query collapses to a scan (each shard rewrites
// unconditionally, slices are rid-contiguous, so the part-major merge sees
// global first-appearance order); traced joins are fenced.
func TestUnboundLineageQueryScattered(t *testing.T) {
	ctx := context.Background()
	ref := startSingle(t)
	ingest(t, ref, "")
	queries := []string{
		"SELECT b, COUNT(*) AS n FROM LINEAGE BACKWARD(SELECT k, COUNT(*) AS c FROM fact GROUP BY k OF fact WHERE k >= 3) GROUP BY b",
		"SELECT b, COUNT(*) AS n, SUM(v) AS sv FROM LINEAGE BACKWARD(SELECT k, COUNT(*) AS c FROM fact WHERE v < 9 GROUP BY k OF fact WHERE k = 2) GROUP BY b",
		"SELECT k, COUNT(*) AS n FROM LINEAGE BACKWARD(SELECT k, COUNT(*) AS c FROM fact GROUP BY k OF fact) WHERE b = 1 GROUP BY k",
		// The collapsed trace never runs the traced query, so its
		// aggregates — COUNT(DISTINCT) included — do not matter.
		"SELECT b, COUNT(*) AS n FROM LINEAGE BACKWARD(SELECT k, COUNT(DISTINCT b) AS d FROM fact GROUP BY k OF fact WHERE k = 2) GROUP BY b",
		// A collapsed trace is a filtered scan of fact, so it may be the
		// probe input of a join.
		"SELECT label, COUNT(*) AS n, SUM(v) AS sv FROM dim JOIN LINEAGE BACKWARD(SELECT k, COUNT(*) AS c FROM fact GROUP BY k OF fact WHERE k >= 2) t ON t.k = dim.g GROUP BY label",
	}
	for _, shards := range []int{1, 2, 4} {
		_, c := startCoord(t, shards)
		ingest(t, c, "shard")
		for _, q := range queries {
			want, err := ref.Query(ctx, serverclient.QueryRequest{SQL: q})
			if err != nil {
				t.Fatalf("reference %q: %v", q, err)
			}
			got, err := c.Query(ctx, serverclient.QueryRequest{SQL: q})
			if err != nil {
				t.Fatalf("shards=%d %q: %v", shards, q, err)
			}
			sameResult(t, fmt.Sprintf("shards=%d %q", shards, q), got, want)
		}
	}

	// A traced query that joins does not collapse to a scan: its per-seed
	// expansion follows each shard's local group order, so it is fenced.
	_, c := startCoord(t, 2)
	ingest(t, c, "shard")
	_, err := c.Query(ctx, serverclient.QueryRequest{
		SQL: "SELECT k, COUNT(*) AS n FROM LINEAGE BACKWARD(SELECT k, COUNT(*) AS c FROM fact JOIN dim ON fact.k = dim.g GROUP BY k OF fact WHERE k = 1) GROUP BY k",
	})
	if se, ok := err.(*serverclient.Error); !ok || se.Status != 422 || !strings.Contains(se.Message, "(fence backward)") {
		t.Fatalf("traced join under sharding: want 422 naming fence backward, got %v", err)
	}
}

// TestTraceSurvivesReingest: a bound trace reads the relation instance the
// result was captured against — on a single node via the captured
// BaseRelation, on the coordinator via the placement's table snapshot. A
// re-ingest (even with different cardinality) must not disturb either the
// per-seed path or the coordinator-answered scan path.
func TestTraceSurvivesReingest(t *testing.T) {
	ctx := context.Background()
	reingest := func(c *serverclient.Client, dist string) {
		t.Helper()
		_, factSchema, _, _ := testData()
		var rows [][]any
		for i := 0; i < 41; i++ {
			rows = append(rows, []any{i % 3, i % 2, float64(i) + 0.25})
		}
		if err := c.CreateTableDist(ctx, "fact", factSchema, rows, "", dist); err != nil {
			t.Fatalf("re-ingest: %v", err)
		}
	}
	const baseSQL = "SELECT k, COUNT(*) AS cnt FROM fact GROUP BY k"
	traces := []serverclient.TraceRequest{
		{Direction: "backward", Table: "fact", Rids: []int64{0, 2}}, // per-seed path
		{Direction: "backward", Table: "fact"},                      // coordinator-side scan from the snapshot
		{Direction: "forward", Table: "fact", Rids: []int64{100}},   // valid against the 103-row capture, not the 41-row live table
	}

	ref := startSingle(t)
	ingest(t, ref, "")
	refSess, err := ref.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refSess.Run(ctx, "base", serverclient.QueryRequest{SQL: baseSQL}); err != nil {
		t.Fatal(err)
	}
	reingest(ref, "")

	for _, shards := range []int{2, 4} {
		_, c := startCoord(t, shards)
		ingest(t, c, "shard")
		sess, err := c.NewSession(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(ctx, "base", serverclient.QueryRequest{SQL: baseSQL}); err != nil {
			t.Fatal(err)
		}
		reingest(c, "shard")
		for i, tr := range traces {
			want, err := refSess.Trace(ctx, "base", tr)
			if err != nil {
				t.Fatalf("reference post-reingest trace %d: %v", i, err)
			}
			got, err := sess.Trace(ctx, "base", tr)
			if err != nil {
				t.Fatalf("shards=%d post-reingest trace %d: %v", shards, i, err)
			}
			sameResult(t, fmt.Sprintf("shards=%d post-reingest trace %d", shards, i), got, want)
		}
	}
}

// TestScatteredJoinTraceMatchesSingleNode: with the sharded table as the
// probe (last) join source, every per-group lineage list follows the probe
// slice's rid order, so the per-seed gather is order-exact — backward and
// forward traces of join results must match a single node element-for-element.
func TestScatteredJoinTraceMatchesSingleNode(t *testing.T) {
	ctx := context.Background()
	ref := startSingle(t)
	ingest(t, ref, "")
	refSess, err := ref.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	bases := []string{
		"SELECT label, COUNT(*) AS cnt, SUM(v) AS sv FROM dim JOIN fact ON fact.k = dim.g GROUP BY label",
		"SELECT b, COUNT(*) AS cnt FROM dim JOIN fact ON fact.k = dim.g WHERE v < 11 GROUP BY b",
	}
	for bi, baseSQL := range bases {
		name := fmt.Sprintf("base%d", bi)
		refBase, err := refSess.Run(ctx, name, serverclient.QueryRequest{SQL: baseSQL})
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 4} {
			_, c := startCoord(t, shards)
			ingest(t, c, "shard")
			sess, err := c.NewSession(ctx)
			if err != nil {
				t.Fatal(err)
			}
			base, err := sess.Run(ctx, name, serverclient.QueryRequest{SQL: baseSQL})
			if err != nil {
				t.Fatalf("shards=%d base %d: %v", shards, bi, err)
			}
			sameResult(t, fmt.Sprintf("shards=%d base %d", shards, bi), base, refBase)
			traces := []serverclient.TraceRequest{
				{Direction: "backward", Table: "fact", Rids: []int64{0}},
				{Direction: "backward", Table: "fact", Rids: []int64{int64(base.N - 1), 0}},
				{Direction: "backward", Table: "fact"},
				{Direction: "backward", Table: "fact", Rids: []int64{0}, Where: "b >= 2"},
				{Direction: "backward", Table: "fact", Rids: []int64{0, 1},
					GroupBy: []string{"b"}, Aggs: []serverclient.Agg{{Fn: "count", Name: "n"}, {Fn: "sum", Arg: "v", Name: "sv"}}},
				{Direction: "forward", Table: "fact", Rids: []int64{0, 51, 102}},
				{Direction: "forward", Table: "fact", SeedWhere: "b = 2"},
			}
			for i, tr := range traces {
				want, err := refSess.Trace(ctx, name, tr)
				if err != nil {
					t.Fatalf("reference base %d trace %d: %v", bi, i, err)
				}
				got, err := sess.Trace(ctx, name, tr)
				if err != nil {
					t.Fatalf("shards=%d base %d trace %d: %v", shards, bi, i, err)
				}
				sameResult(t, fmt.Sprintf("shards=%d base %d trace %d", shards, bi, i), got, want)
			}
		}
	}
}

// TestEscapedNames: table and result names reach both front doors — and the
// coordinator's shard calls — escaped. Results retained as r?x, r#x and r%x
// sit beside r and each round-trips: GET answers its own rows and a trace
// reaches its own capture, while r keeps its rows. A table ingested as
// fact?x leaves fact as it was.
func TestEscapedNames(t *testing.T) {
	_, coord := startCoord(t, 2)
	ctx := context.Background()
	queries := map[string]string{
		"r":   "SELECT k, COUNT(*) AS cnt FROM fact GROUP BY k",
		"r?x": "SELECT k, COUNT(*) AS cnt FROM fact WHERE b < 3 GROUP BY k",
		"r#x": "SELECT b, COUNT(*) AS cnt FROM fact GROUP BY b",
		"r%x": "SELECT label, COUNT(*) AS cnt FROM dim GROUP BY label", // proxied by the coordinator
	}
	traced := map[string]string{"r": "fact", "r?x": "fact", "r#x": "fact", "r%x": "dim"}
	for _, front := range []struct {
		name string
		c    *serverclient.Client
		dist string
	}{{"single node", startSingle(t), ""}, {"2 shards", coord, "shard"}} {
		c := front.c
		ingest(t, c, front.dist)
		sess, err := c.NewSession(ctx)
		if err != nil {
			t.Fatal(err)
		}
		retained := map[string]*serverclient.Result{}
		for _, name := range []string{"r", "r?x", "r#x", "r%x"} {
			res, err := sess.Run(ctx, name, serverclient.QueryRequest{SQL: queries[name]})
			if err != nil || res.Retained != name {
				t.Fatalf("%s: retaining %q = %+v, %v", front.name, name, res, err)
			}
			retained[name] = res
		}
		for name, want := range retained {
			got, err := sess.Result(ctx, name)
			if err != nil {
				t.Fatalf("%s: GET %q: %v", front.name, name, err)
			}
			sameResult(t, front.name+" GET "+name, got, want)
			tr, err := sess.Trace(ctx, name, serverclient.TraceRequest{Direction: "backward", Table: traced[name], Rids: []int64{0}})
			if err != nil || int64(tr.N) != want.Rows[0][1].(int64) {
				t.Fatalf("%s: tracing %q row 0 (count %v) answered %+v, %v", front.name, name, want.Rows[0][1], tr, err)
			}
		}

		_, factSchema, _, factRows := testData()
		if err := c.CreateTableDist(ctx, "fact?x", factSchema, factRows[:3], "", front.dist); err != nil {
			t.Fatalf("%s: ingest fact?x: %v", front.name, err)
		}
		again, err := c.Query(ctx, serverclient.QueryRequest{SQL: queries["r"]})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, front.name+" fact after ingesting fact?x", again, retained["r"])
	}
}

// TestUnmatchedRoutes: a request no endpoint takes answers the uniform
// error body at both front doors — 404 not_found for an unknown path, 405
// with the Allow header for a known path under another method.
func TestUnmatchedRoutes(t *testing.T) {
	coord := shard.New(shard.Config{Shards: 2})
	t.Cleanup(func() { _ = coord.Close() })
	db := core.Open(core.WithWorkers(1))
	single := server.New(server.Config{DB: db})
	t.Cleanup(func() {
		_ = single.Close()
		db.Close()
	})
	cases := []struct {
		method, path string
		status       int
		kind, allow  string
	}{
		{http.MethodGet, "/v1/nope", 404, "not_found", ""},
		{http.MethodPost, "/v1/query/", 404, "not_found", ""},
		{http.MethodGet, "/v1/sessions/s/results/r/trace/x", 404, "not_found", ""},
		{http.MethodGet, "/v1/query", 405, "invalid", "POST"},
		{http.MethodPut, "/v1/sessions", 405, "invalid", "POST"},
		{http.MethodGet, "/v1/sessions/s/results/r/trace", 405, "invalid", "POST"},
		{http.MethodPut, "/v1/tables/t", 405, "invalid", "GET, HEAD, POST"},
		{http.MethodPost, "/healthz", 405, "invalid", "GET, HEAD"},
	}
	for _, front := range []struct {
		name string
		h    http.Handler
	}{{"single node", single}, {"2 shards", coord}} {
		for _, tc := range cases {
			rec := httptest.NewRecorder()
			front.h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
			var body struct {
				Error struct{ Kind, Message string }
			}
			if rec.Code != tc.status || rec.Header().Get("Content-Type") != "application/json" ||
				json.Unmarshal(rec.Body.Bytes(), &body) != nil || body.Error.Kind != tc.kind ||
				rec.Header().Get("Allow") != tc.allow {
				t.Errorf("%s: %s %s = %d %q Allow %q %q, want %d %s Allow %q", front.name, tc.method, tc.path,
					rec.Code, rec.Header().Get("Content-Type"), rec.Header().Get("Allow"), rec.Body.String(), tc.status, tc.kind, tc.allow)
			}
		}
		rec := httptest.NewRecorder()
		front.h.ServeHTTP(rec, httptest.NewRequest(http.MethodHead, "/healthz", nil))
		if rec.Code != 200 {
			t.Errorf("%s: HEAD /healthz = %d, want 200", front.name, rec.Code)
		}
	}
}
