package server

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"smoke/internal/core"
	"smoke/internal/expr"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/serverclient"
	"smoke/internal/wire"
)

// coreCol / coreLt build in-process reference expressions.
func coreCol(name string) expr.Expr { return expr.C(name) }
func coreLt(name string, v float64) expr.Expr {
	return expr.LtE(expr.C(name), expr.F(v))
}

// fakeClock is a mutable clock for TTL tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// newTestServer starts an httptest server with the given config tweaks and
// returns the client plus the underlying DB for in-process comparison.
func newTestServer(t *testing.T, tweak func(*Config)) (*serverclient.Client, *core.DB) {
	t.Helper()
	db := core.Open(core.WithWorkers(2))
	t.Cleanup(db.Close)
	cfg := Config{DB: db}
	if tweak != nil {
		tweak(&cfg)
	}
	ts := httptest.NewServer(New(cfg))
	t.Cleanup(ts.Close)
	return serverclient.New(ts.URL, ts.Client()), db
}

func ordersSchema() []serverclient.Field {
	return []serverclient.Field{
		{Name: "region", Type: "string"},
		{Name: "amount", Type: "float"},
	}
}

func ordersRows() [][]any {
	return [][]any{
		{"emea", 10.0}, {"apac", 20.0}, {"emea", 30.0}, {"apac", 5.0}, {"emea", 2.5},
	}
}

func mustCreateOrders(t *testing.T, c *serverclient.Client) {
	t.Helper()
	if err := c.CreateTable(context.Background(), "orders", ordersSchema(), ordersRows(), ""); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
}

func wantStatus(t *testing.T, err error, status int) *serverclient.Error {
	t.Helper()
	se, ok := err.(*serverclient.Error)
	if !ok {
		t.Fatalf("want *serverclient.Error with status %d, got %T: %v", status, err, err)
	}
	if se.Status != status {
		t.Fatalf("status = %d (%s), want %d", se.Status, se.Message, status)
	}
	return se
}

func TestIngestAndQuery(t *testing.T) {
	c, db := newTestServer(t, nil)
	ctx := context.Background()
	mustCreateOrders(t, c)

	res, err := c.Query(ctx, serverclient.QueryRequest{
		SQL: "SELECT region, SUM(amount) AS total FROM orders GROUP BY region",
	})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !reflect.DeepEqual(res.Columns, []string{"region", "total"}) {
		t.Fatalf("columns = %v", res.Columns)
	}
	// Served rows must be element-identical to in-process execution.
	want, err := db.Query().From("orders", nil).GroupBy("region").
		Agg(ops.Sum, coreCol("amount"), "total").Run(core.CaptureOptions{})
	if err != nil {
		t.Fatalf("in-process: %v", err)
	}
	if res.N != want.Out.N {
		t.Fatalf("served %d rows, in-process %d", res.N, want.Out.N)
	}
	for i := 0; i < want.Out.N; i++ {
		if res.Rows[i][0] != want.Out.Str(0, i) || res.Rows[i][1] != want.Out.Float(1, i) {
			t.Fatalf("row %d: served %v, in-process %v", i, res.Rows[i], want.Out.Row(i))
		}
	}
}

func TestIngestCSV(t *testing.T) {
	c, _ := newTestServer(t, nil)
	ctx := context.Background()
	csv := []byte("k,v\n1,1.5\n2,2.5\n1,3.0\n")
	if err := c.CreateTableCSV(ctx, "m", csv, "", ""); err != nil {
		t.Fatalf("CreateTableCSV: %v", err)
	}
	res, err := c.Query(ctx, serverclient.QueryRequest{
		SQL: "SELECT k, COUNT(*) AS n FROM m GROUP BY k",
	})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	// Type sniffing: k is int, so normalized rows carry int64.
	if res.N != 2 || res.Rows[0][0] != int64(1) || res.Rows[0][1] != int64(2) {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestExplain(t *testing.T) {
	c, _ := newTestServer(t, nil)
	mustCreateOrders(t, c)
	res, err := c.Query(context.Background(), serverclient.QueryRequest{
		SQL: "EXPLAIN SELECT region, COUNT(*) AS n FROM orders GROUP BY region",
	})
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	if res.Explain == "" {
		t.Fatal("EXPLAIN returned no plan text")
	}
}

func TestSessionTraceRoundTrip(t *testing.T) {
	c, db := newTestServer(t, nil)
	ctx := context.Background()
	mustCreateOrders(t, c)

	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	base, err := sess.Run(ctx, "byregion", serverclient.QueryRequest{
		SQL: "SELECT region, SUM(amount) AS total FROM orders GROUP BY region",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if base.Retained != "byregion" {
		t.Fatalf("retained = %q", base.Retained)
	}

	// Keyless backward trace of output row 0: the base rows behind it.
	traced, err := sess.Trace(ctx, "byregion", serverclient.TraceRequest{
		Direction: "backward", Table: "orders", Rids: []int64{0},
	})
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	// In-process reference.
	ref, err := db.Query().From("orders", nil).GroupBy("region").
		Agg(ops.Sum, coreCol("amount"), "total").Run(core.CaptureOptions{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	rids, err := ref.Backward("orders", []lineage.Rid{0})
	if err != nil {
		t.Fatal(err)
	}
	if traced.N != len(rids) {
		t.Fatalf("traced %d rows, want %d", traced.N, len(rids))
	}
	rel, _ := db.Table("orders")
	for i, r := range rids {
		if traced.Rows[i][0] != rel.Str(0, int(r)) || traced.Rows[i][1] != rel.Float(1, int(r)) {
			t.Fatalf("traced row %d = %v, want base row %d", i, traced.Rows[i], r)
		}
	}

	// The rids contract: an explicit empty seed (an empty brush) traces
	// nothing, under the traced table's schema; an absent seed traces
	// everything.
	empty, err := sess.Trace(ctx, "byregion", serverclient.TraceRequest{
		Direction: "backward", Table: "orders", Rids: []int64{},
	})
	if err != nil {
		t.Fatalf("empty-seed trace: %v", err)
	}
	if empty.N != 0 || len(empty.Rows) != 0 ||
		!reflect.DeepEqual(empty.Columns, traced.Columns) || !reflect.DeepEqual(empty.Types, traced.Types) {
		t.Fatalf("empty-seed trace = %d rows %v/%v, want 0 rows %v/%v",
			empty.N, empty.Columns, empty.Types, traced.Columns, traced.Types)
	}
	all, err := sess.Trace(ctx, "byregion", serverclient.TraceRequest{Direction: "backward", Table: "orders"})
	if err != nil {
		t.Fatalf("nil-seed trace: %v", err)
	}
	if all.N != rel.N {
		t.Fatalf("nil-seed trace returned %d rows, want all %d", all.N, rel.N)
	}

	// Consuming aggregation with a filter, retained for chaining.
	cons, err := sess.Trace(ctx, "byregion", serverclient.TraceRequest{
		Direction: "backward", Table: "orders", Rids: []int64{0},
		Where:   "amount < 25",
		GroupBy: []string{"region"},
		Aggs:    []serverclient.Agg{{Fn: "count", Name: "n"}, {Fn: "sum", Arg: "amount", Name: "s"}},
		Retain:  "drill",
	})
	if err != nil {
		t.Fatalf("consuming trace: %v", err)
	}
	if cons.Retained != "drill" {
		t.Fatalf("consuming retained = %q", cons.Retained)
	}
	consRef, err := db.Query().Trace(ref, core.TraceBackward, "orders", core.Rids(0)).
		Where(coreLt("amount", 25)).GroupBy("region").
		Agg(ops.Count, nil, "n").Agg(ops.Sum, coreCol("amount"), "s").
		Run(core.CaptureOptions{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	if cons.N != consRef.Out.N {
		t.Fatalf("consuming rows %d, want %d", cons.N, consRef.Out.N)
	}
	for i := 0; i < consRef.Out.N; i++ {
		if cons.Rows[i][0] != consRef.Out.Str(0, i) ||
			cons.Rows[i][1] != consRef.Out.Int(1, i) ||
			cons.Rows[i][2] != consRef.Out.Float(2, i) {
			t.Fatalf("consuming row %d = %v, want %v", i, cons.Rows[i], consRef.Out.Row(i))
		}
	}

	// The retained consuming result is itself traceable (Q1b → Q1c chains).
	chained, err := sess.Trace(ctx, "drill", serverclient.TraceRequest{
		Direction: "backward", Table: "orders",
	})
	if err != nil {
		t.Fatalf("chained trace: %v", err)
	}
	if chained.N == 0 {
		t.Fatal("chained trace returned no rows")
	}

	// Seed-predicate form.
	seeded, err := sess.Trace(ctx, "byregion", serverclient.TraceRequest{
		Direction: "backward", Table: "orders", SeedWhere: "region = 'emea'",
	})
	if err != nil {
		t.Fatalf("seeded trace: %v", err)
	}
	for _, row := range seeded.Rows {
		if row[0] != "emea" {
			t.Fatalf("seeded trace leaked row %v", row)
		}
	}

	if err := sess.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// After an explicit delete the session answers 410.
	_, err = sess.Trace(ctx, "byregion", serverclient.TraceRequest{Direction: "backward", Table: "orders"})
	wantStatus(t, err, 410)
}

func TestResultCacheHit(t *testing.T) {
	c, _ := newTestServer(t, nil)
	ctx := context.Background()
	mustCreateOrders(t, c)
	req := serverclient.QueryRequest{SQL: "SELECT region, COUNT(*) AS n FROM orders GROUP BY region"}
	r1, err := c.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Fatal("first run reported cached")
	}
	r2, err := c.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("identical repeat was not served from the plan-fingerprint cache")
	}
	if !reflect.DeepEqual(r1.Rows, r2.Rows) {
		t.Fatalf("cached rows diverge: %v vs %v", r1.Rows, r2.Rows)
	}

	// Re-ingesting the table must retire the cached plan (different relation
	// identity → different fingerprint).
	if err := c.CreateTable(ctx, "orders", ordersSchema(), ordersRows()[:2], ""); err != nil {
		t.Fatal(err)
	}
	r3, err := c.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cached {
		t.Fatal("query after re-ingest served stale cache entry")
	}
}

func TestErrorStatuses(t *testing.T) {
	c, _ := newTestServer(t, nil)
	ctx := context.Background()
	mustCreateOrders(t, c)

	// Bad SQL → 400 with a position.
	_, err := c.Query(ctx, serverclient.QueryRequest{SQL: "SELECT FROM orders"})
	se := wantStatus(t, err, 400)
	if se.Pos < 0 {
		t.Fatalf("parse error carries no position: %+v", se)
	}
	if se.Kind != "invalid" {
		t.Fatalf("kind = %q, want invalid", se.Kind)
	}

	// Unknown table → 404.
	_, err = c.Query(ctx, serverclient.QueryRequest{SQL: "SELECT k, COUNT(*) AS n FROM nope GROUP BY k"})
	wantStatus(t, err, 404)

	// Unsupported shape → 422.
	_, err = c.Query(ctx, serverclient.QueryRequest{SQL: "SELECT region FROM orders GROUP BY region"})
	wantStatus(t, err, 422)

	// Unknown session → 404; unknown result in a live session → 404.
	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.Result(ctx, "never")
	wantStatus(t, err, 404)
	_, err = c.Session("s12345678").Result(ctx, "x")
	wantStatus(t, err, 404)

	// Empty statement → 400.
	_, err = c.Query(ctx, serverclient.QueryRequest{SQL: ""})
	wantStatus(t, err, 400)

	// Out-of-range seed rid → 400, not a panic.
	if _, err := sess.Run(ctx, "base", serverclient.QueryRequest{
		SQL: "SELECT region, COUNT(*) AS n FROM orders GROUP BY region"}); err != nil {
		t.Fatal(err)
	}
	_, err = sess.Trace(ctx, "base", serverclient.TraceRequest{
		Direction: "backward", Table: "orders", Rids: []int64{99},
	})
	wantStatus(t, err, 400)
}

// A result holding NaN or ±Inf has no JSON form. The query is answered as a
// structured 422 saying so — stateless or retained — not as a 200 whose
// body breaks off empty.
func TestNonFiniteResultIs422(t *testing.T) {
	c, _ := newTestServer(t, nil)
	ctx := context.Background()
	schema := []serverclient.Field{{Name: "k", Type: "int"}, {Name: "v", Type: "float"}}
	if err := c.CreateTable(ctx, "t", schema, [][]any{{1, 2.0}, {1, -1.0}, {2, 0.0}}, ""); err != nil {
		t.Fatal(err)
	}
	req := serverclient.QueryRequest{SQL: "SELECT k, SUM(v / 0.0) AS x FROM t GROUP BY k"}
	_, err := c.Query(ctx, req)
	if se := wantStatus(t, err, 422); se.Kind != "unsupported" || !strings.Contains(se.Message, "NaN") {
		t.Fatalf("non-finite result: %+v", se)
	}
	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.Run(ctx, "inf", req)
	wantStatus(t, err, 422)
	// A finite aggregate over the same table still answers 200.
	if _, err := c.Query(ctx, serverclient.QueryRequest{SQL: "SELECT k, SUM(v) AS x FROM t GROUP BY k"}); err != nil {
		t.Fatal(err)
	}
}

func TestSessionTTLEviction(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	c, _ := newTestServer(t, func(cfg *Config) {
		cfg.SessionTTL = time.Minute
		cfg.Clock = clk.now
	})
	ctx := context.Background()
	mustCreateOrders(t, c)

	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(ctx, "base", serverclient.QueryRequest{
		SQL: "SELECT region, COUNT(*) AS n FROM orders GROUP BY region"}); err != nil {
		t.Fatal(err)
	}
	// Touch within TTL: stays alive.
	clk.advance(45 * time.Second)
	if _, err := sess.Result(ctx, "base"); err != nil {
		t.Fatalf("session died before TTL: %v", err)
	}
	// Idle past TTL: evicted, and a bound trace answers 410 Gone.
	clk.advance(2 * time.Minute)
	_, err = sess.Trace(ctx, "base", serverclient.TraceRequest{Direction: "backward", Table: "orders"})
	wantStatus(t, err, 410)
}

// An evicted-capture result no longer answers 410: the lazy retention tier
// re-derives it from the remembered producing request and the trace answers
// via the lazy path, element-identically to the eager trace it replaced.
// (PR 7 answered 410 here.)
func TestResultEvictionAnswersViaLazyTier(t *testing.T) {
	c, _ := newTestServer(t, func(cfg *Config) {
		cfg.MaxResultsPerSession = 1
	})
	ctx := context.Background()
	mustCreateOrders(t, c)
	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	req := serverclient.QueryRequest{SQL: "SELECT region, COUNT(*) AS n FROM orders GROUP BY region"}
	if _, err := sess.Run(ctx, "first", req); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(ctx, "second", req); err != nil {
		t.Fatal(err)
	}
	// "second" is live with its eager capture: the reference trace.
	want, err := sess.Trace(ctx, "second", serverclient.TraceRequest{Direction: "backward", Table: "orders"})
	if err != nil {
		t.Fatalf("live result failed: %v", err)
	}
	// "first" was LRU-evicted by the per-session cap; its trace rebuilds the
	// result capture-free and answers lazily.
	got, err := sess.Trace(ctx, "first", serverclient.TraceRequest{Direction: "backward", Table: "orders"})
	if err != nil {
		t.Fatalf("evicted result should answer via the lazy tier: %v", err)
	}
	if got.StrategyUsed != "lazy" {
		t.Fatalf("strategy_used = %q, want %q", got.StrategyUsed, "lazy")
	}
	if got.N != want.N || !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("lazy trace diverged from eager: got %d rows, want %d", got.N, want.N)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := healthCount(t, h, "lazy_fallbacks"); n < 1 {
		t.Fatalf("lazy_fallbacks = %d, want >= 1", n)
	}
	if n := healthCount(t, h, "lazy_traces"); n < 1 {
		t.Fatalf("lazy_traces = %d, want >= 1", n)
	}
}

// healthCount reads a numeric /healthz counter.
func healthCount(t *testing.T, h map[string]any, key string) int64 {
	t.Helper()
	num, ok := h[key].(json.Number)
	if !ok {
		t.Fatalf("healthz %q = %#v, want a number", key, h[key])
	}
	n, err := num.Int64()
	if err != nil {
		t.Fatalf("healthz %q: %v", key, err)
	}
	return n
}

func TestByteBudgetEviction(t *testing.T) {
	c, _ := newTestServer(t, func(cfg *Config) {
		cfg.MaxRetainedBytes = 1 // everything but the newest result is evicted
	})
	ctx := context.Background()
	mustCreateOrders(t, c)
	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct queries → distinct Results (identical queries share one
	// Result via the fingerprint cache and are charged once — see below).
	if _, err := sess.Run(ctx, "a", serverclient.QueryRequest{
		SQL: "SELECT region, COUNT(*) AS n FROM orders GROUP BY region"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(ctx, "b", serverclient.QueryRequest{
		SQL: "SELECT region, SUM(amount) AS s FROM orders GROUP BY region"}); err != nil {
		t.Fatal(err)
	}
	_, err = sess.Result(ctx, "a")
	wantStatus(t, err, 410)
	if _, err := sess.Result(ctx, "b"); err != nil {
		t.Fatalf("newest result must survive the byte budget: %v", err)
	}
}

// Identical queries retained under several names share one *core.Result via
// the fingerprint cache: the byte budget charges the allocation once, and
// eviction never drops a shared reference (it would free nothing).
func TestSharedResultChargedOnce(t *testing.T) {
	c, _ := newTestServer(t, func(cfg *Config) {
		cfg.MaxRetainedBytes = 1 // tighter than one result, but shares don't count twice
	})
	ctx := context.Background()
	mustCreateOrders(t, c)
	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	req := serverclient.QueryRequest{SQL: "SELECT region, COUNT(*) AS n FROM orders GROUP BY region"}
	if _, err := sess.Run(ctx, "a", req); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(ctx, "b", req); err != nil {
		t.Fatal(err)
	}
	// Both names stay live: the second retention added no memory, so there
	// was nothing for the budget to reclaim.
	if _, err := sess.Result(ctx, "a"); err != nil {
		t.Fatalf("shared retention evicted despite freeing nothing: %v", err)
	}
	if _, err := sess.Result(ctx, "b"); err != nil {
		t.Fatal(err)
	}
}

func TestSessionLRUCap(t *testing.T) {
	c, _ := newTestServer(t, func(cfg *Config) {
		cfg.MaxSessions = 2
	})
	ctx := context.Background()
	s1, _ := c.NewSession(ctx)
	s2, _ := c.NewSession(ctx)
	// Touch s1 so s2 is LRU (clock is real time; ordering via access order
	// still holds because last-access times are monotic here).
	time.Sleep(2 * time.Millisecond)
	mustCreateOrders(t, c)
	if _, err := s1.Run(ctx, "x", serverclient.QueryRequest{
		SQL: "SELECT region, COUNT(*) AS n FROM orders GROUP BY region"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond)
	s3, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_ = s3
	// s2 (LRU) was evicted; s1 survives.
	_, err = s2.Result(ctx, "anything")
	wantStatus(t, err, 410)
	if _, err := s1.Result(ctx, "x"); err != nil {
		t.Fatalf("recently used session evicted: %v", err)
	}
}

// Re-ingesting a table after a result was retained must not corrupt bound
// traces: captured rids address the capture-time snapshot, so traces keep
// answering from it — never from the replaced relation (wrong rows) and
// never past its bounds (panic).
func TestTraceAfterReingestUsesSnapshot(t *testing.T) {
	c, _ := newTestServer(t, nil)
	ctx := context.Background()
	mustCreateOrders(t, c)
	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(ctx, "base", serverclient.QueryRequest{
		SQL: "SELECT region, SUM(amount) AS total FROM orders GROUP BY region"}); err != nil {
		t.Fatal(err)
	}
	// Replace orders with different, larger data.
	bigger := append(ordersRows(),
		[]any{"amer", 100.0}, []any{"amer", 200.0}, []any{"amer", 300.0})
	if err := c.CreateTable(ctx, "orders", ordersSchema(), bigger, ""); err != nil {
		t.Fatal(err)
	}
	// Backward trace still answers from the capture-time snapshot.
	traced, err := sess.Trace(ctx, "base", serverclient.TraceRequest{
		Direction: "backward", Table: "orders", Rids: []int64{0},
	})
	if err != nil {
		t.Fatalf("trace after re-ingest: %v", err)
	}
	for _, row := range traced.Rows {
		if row[0] == "amer" {
			t.Fatalf("trace leaked a row from the re-ingested relation: %v", row)
		}
	}
	// Forward seeds validate against the snapshot's row count (5), not the
	// replaced relation's (8): rid 7 is out of range → 400, not a panic.
	_, err = sess.Trace(ctx, "base", serverclient.TraceRequest{
		Direction: "forward", Table: "orders", Rids: []int64{7},
	})
	wantStatus(t, err, 400)
	// In-range forward seeds still work.
	if _, err := sess.Trace(ctx, "base", serverclient.TraceRequest{
		Direction: "forward", Table: "orders", Rids: []int64{0}}); err != nil {
		t.Fatalf("forward trace after re-ingest: %v", err)
	}
}

// A client-declared pk is verified against the data before it is believed:
// a duplicate-keyed pk would silently drop matches in the pk-fk join
// specialization.
func TestIngestRejectsBadPK(t *testing.T) {
	c, _ := newTestServer(t, nil)
	ctx := context.Background()
	schema := []serverclient.Field{{Name: "id", Type: "int"}, {Name: "v", Type: "float"}}
	// Duplicate pk values → 400.
	err := c.CreateTable(ctx, "dup", schema, [][]any{{1, 1.0}, {1, 2.0}}, "id")
	wantStatus(t, err, 400)
	// Non-int pk → 400.
	err = c.CreateTable(ctx, "strpk", []serverclient.Field{
		{Name: "k", Type: "string"}, {Name: "v", Type: "float"},
	}, [][]any{{"a", 1.0}}, "k")
	wantStatus(t, err, 400)
	// Unique int pk is accepted.
	if err := c.CreateTable(ctx, "ok", schema, [][]any{{1, 1.0}, {2, 2.0}}, "id"); err != nil {
		t.Fatalf("valid pk rejected: %v", err)
	}
}

// Retaining without a capture is rejected up front (a later trace could
// only fail confusingly).
func TestRetainRequiresCapture(t *testing.T) {
	c, _ := newTestServer(t, nil)
	ctx := context.Background()
	mustCreateOrders(t, c)
	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.Run(ctx, "base", serverclient.QueryRequest{
		SQL:     "SELECT region, COUNT(*) AS n FROM orders GROUP BY region",
		Capture: "none",
	})
	wantStatus(t, err, 400)
}

func TestForwardTrace(t *testing.T) {
	c, db := newTestServer(t, nil)
	ctx := context.Background()
	mustCreateOrders(t, c)
	sess, _ := c.NewSession(ctx)
	if _, err := sess.Run(ctx, "base", serverclient.QueryRequest{
		SQL: "SELECT region, COUNT(*) AS n FROM orders GROUP BY region"}); err != nil {
		t.Fatal(err)
	}
	fwd, err := sess.Trace(ctx, "base", serverclient.TraceRequest{
		Direction: "forward", Table: "orders", Rids: []int64{0, 2},
	})
	if err != nil {
		t.Fatalf("forward trace: %v", err)
	}
	ref, err := db.Query().From("orders", nil).GroupBy("region").
		Agg(ops.Count, nil, "n").Run(core.CaptureOptions{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	rids, err := ref.Forward("orders", []lineage.Rid{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if fwd.N != len(rids) {
		t.Fatalf("forward rows %d, want %d", fwd.N, len(rids))
	}
	for i, r := range rids {
		if fwd.Rows[i][0] != ref.Out.Str(0, int(r)) {
			t.Fatalf("forward row %d = %v, want output row %d", i, fwd.Rows[i], r)
		}
	}
}

func TestAdmissionGateRejects(t *testing.T) {
	g := newGate(1, 1)
	ctx := context.Background()
	if err := g.enter(ctx); err != nil {
		t.Fatal(err)
	}
	// One waiter fits in the queue (inflight + queued = 2).
	done := make(chan error, 1)
	go func() {
		err := g.enter(ctx)
		if err == nil {
			g.exit()
		}
		done <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for len(g.queue) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never entered the queue")
		}
		time.Sleep(time.Millisecond)
	}
	// Queue is full: the next request is turned away immediately with Busy.
	err := g.enter(ctx)
	if err == nil || wire.StatusOf(err) != 429 {
		t.Fatalf("overflow enter = %v, want Busy/429", err)
	}
	g.exit()
	if err := <-done; err != nil {
		t.Fatalf("queued waiter failed: %v", err)
	}
}

// TestConsumingTraceScattersThroughSibling: once the session retains a view
// grouped by the consuming key over the same filter, a capture-off consuming
// COUNT answers through its forward index — with the hash path's rows and
// group counts — and /healthz counts it; a cache hit and a capturing trace
// do not.
func TestConsumingTraceScattersThroughSibling(t *testing.T) {
	c, _ := newTestServer(t, nil)
	ctx := context.Background()
	var rows [][]any
	for i := 0; i < 200; i++ {
		rows = append(rows, []any{int64(i % 7), int64((i * 13) % 11), int64(i % 120)})
	}
	schema := []serverclient.Field{{Name: "carrier", Type: "int"}, {Name: "delay", Type: "int"}, {Name: "date", Type: "int"}}
	if err := c.CreateTable(ctx, "flights", schema, rows, ""); err != nil {
		t.Fatal(err)
	}
	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	view := func(name, key string) {
		t.Helper()
		sql := "SELECT " + key + ", COUNT(*) AS cnt FROM flights WHERE date >= 10 AND date < 90 GROUP BY " + key
		if _, err := sess.Run(ctx, name, serverclient.QueryRequest{SQL: sql}); err != nil {
			t.Fatal(err)
		}
	}
	brush := serverclient.TraceRequest{Direction: "backward", Table: "flights", Rids: []int64{2, 0},
		GroupBy: []string{"delay"}, Aggs: []serverclient.Agg{{Fn: "count", Name: "cnt"}}}
	scattered := func() int64 {
		t.Helper()
		h, err := c.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return healthCount(t, h, "scatter_traces")
	}

	view("bycarrier", "carrier")
	want, err := sess.Trace(ctx, "bycarrier", brush)
	if err != nil {
		t.Fatal(err)
	}
	if n := scattered(); n != 0 {
		t.Fatalf("scatter_traces = %d with no sibling, want 0", n)
	}
	view("bydelay", "delay")
	got, err := sess.Trace(ctx, "bycarrier", brush)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cached || !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(got.GroupCounts, want.GroupCounts) {
		t.Fatalf("scattered trace = %v %v (cached %v), want %v %v", got.Rows, got.GroupCounts, got.Cached, want.Rows, want.GroupCounts)
	}
	if n := scattered(); n != 1 {
		t.Fatalf("scatter_traces = %d, want 1", n)
	}
	if again, err := sess.Trace(ctx, "bycarrier", brush); err != nil || !again.Cached {
		t.Fatalf("repeat: cached=%v err=%v, want a cache hit", again != nil && again.Cached, err)
	}
	captured := brush
	captured.Capture, captured.Retain = "inject", "kept"
	if _, err := sess.Trace(ctx, "bycarrier", captured); err != nil {
		t.Fatal(err)
	}
	if n := scattered(); n != 1 {
		t.Fatalf("scatter_traces = %d after a cache hit and a capturing trace, want 1", n)
	}
}
