package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"smoke/internal/core"
	"smoke/internal/diskstore"
	"smoke/internal/serverclient"
)

// newDiskServer builds a server over a disk store in dir, with explicit
// handles: the caller controls shutdown order (drain → flush → store close)
// to simulate restarts.
func newDiskServer(t *testing.T, dir string, tweak func(*Config)) (*serverclient.Client, *Server, *diskstore.Store, func()) {
	t.Helper()
	store, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := core.Open(core.WithWorkers(2))
	t.Cleanup(db.Close)
	cfg := Config{DB: db, Store: store}
	if tweak != nil {
		tweak(&cfg)
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	stop := func() {
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Fatalf("server flush: %v", err)
		}
		if err := store.Close(); err != nil {
			t.Fatalf("store close: %v", err)
		}
	}
	return serverclient.New(ts.URL, ts.Client()), srv, store, stop
}

// stampFormatV1 rewrites the magic of the segment holding session sid's
// result name, as found through the store's manifest.
func stampFormatV1(t *testing.T, dir, sid, name string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Sessions map[string]struct {
			Results map[string]struct {
				File string `json:"file"`
			} `json:"results"`
		} `json:"sessions"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	file := man.Sessions[sid].Results[name].File
	if file == "" {
		t.Fatalf("manifest has no segment for %s/%s", sid, name)
	}
	path := filepath.Join(dir, file)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const v1 = "SMKSEG1\n"
	copy(data, v1)
	copy(data[len(data)-len(v1):], v1)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func sameRows(t *testing.T, what string, got, want *serverclient.Result) {
	t.Helper()
	if got.N != want.N || !reflect.DeepEqual(got.Columns, want.Columns) {
		t.Fatalf("%s: shape %dx%v, want %dx%v", what, got.N, got.Columns, want.N, want.Columns)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("%s: rows differ:\n got %v\nwant %v", what, got.Rows, want.Rows)
	}
}

// Demotion under the per-session cap must keep the result traceable: the
// evicted name promotes back from its segment and the bound trace is
// element-identical to the in-memory one — not 410.
func TestDemotionPromotesInsteadOf410(t *testing.T) {
	c, _, _, stop := newDiskServer(t, t.TempDir(), func(cfg *Config) {
		cfg.MaxResultsPerSession = 1
	})
	defer stop()
	ctx := context.Background()
	mustCreateOrders(t, c)
	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(ctx, "first", serverclient.QueryRequest{
		SQL: "SELECT region, COUNT(*) AS n FROM orders GROUP BY region"}); err != nil {
		t.Fatal(err)
	}
	traceReq := serverclient.TraceRequest{Direction: "backward", Table: "orders", Rids: []int64{0}}
	want, err := sess.Trace(ctx, "first", traceReq)
	if err != nil {
		t.Fatal(err)
	}
	// Retaining "second" demotes "first" (cap 1) to the disk tier.
	if _, err := sess.Run(ctx, "second", serverclient.QueryRequest{
		SQL: "SELECT region, SUM(amount) AS s FROM orders GROUP BY region"}); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Trace(ctx, "first", traceReq)
	if err != nil {
		t.Fatalf("trace of demoted result: %v", err)
	}
	sameRows(t, "promoted backward trace", got, want)
}

// The TTL parks idle sessions in the dormant (disk) tier instead of killing
// them: a later reference revives the session and its traces still answer.
func TestTTLDemotesToDormantNotGone(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	c, _, _, stop := newDiskServer(t, t.TempDir(), func(cfg *Config) {
		cfg.SessionTTL = time.Minute
		cfg.Clock = clk.now
	})
	defer stop()
	ctx := context.Background()
	mustCreateOrders(t, c)
	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Explicit seeds below the scan-equivalence threshold: live and promoted
	// results take the same rid-expansion path, so rows compare exactly.
	traceReq := serverclient.TraceRequest{Direction: "backward", Table: "orders", Rids: []int64{1}}
	if _, err := sess.Run(ctx, "base", serverclient.QueryRequest{
		SQL: "SELECT region, COUNT(*) AS n FROM orders GROUP BY region"}); err != nil {
		t.Fatal(err)
	}
	want, err := sess.Trace(ctx, "base", traceReq)
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(10 * time.Minute) // far past the TTL: demoted wholesale
	got, err := sess.Trace(ctx, "base", traceReq)
	if err != nil {
		t.Fatalf("trace after TTL demotion: %v", err)
	}
	sameRows(t, "revived session trace", got, want)
}

// The disk budget deletes the LRU demoted capture for good; the lazy tier
// then re-derives the result capture-free (410 only when no producing spec
// survives — e.g. after a restart).
func TestDiskBudgetFallsBackToLazyTier(t *testing.T) {
	c, srv, _, stop := newDiskServer(t, t.TempDir(), func(cfg *Config) {
		cfg.MaxResultsPerSession = 1
		cfg.MaxDiskBytes = 1 // every demotion overflows immediately
	})
	defer stop()
	ctx := context.Background()
	mustCreateOrders(t, c)
	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(ctx, "first", serverclient.QueryRequest{
		SQL: "SELECT region, COUNT(*) AS n FROM orders GROUP BY region"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(ctx, "second", serverclient.QueryRequest{
		SQL: "SELECT region, SUM(amount) AS s FROM orders GROUP BY region"}); err != nil {
		t.Fatal(err)
	}
	// Demotion is asynchronous: until the queued segment write lands, the
	// demoting copy of "first" still serves. Drain the flusher so the write
	// completes and the disk budget (1 byte) makes the capture gone — the
	// lazy retention tier then re-derives the result from its remembered
	// producing request instead of answering 410.
	srv.sessions.fl.drain()
	out, err := sess.Trace(ctx, "first", serverclient.TraceRequest{Direction: "backward", Table: "orders"})
	if err != nil {
		t.Fatalf("gone capture should answer via the lazy tier: %v", err)
	}
	if out.StrategyUsed != "lazy" {
		t.Fatalf("strategy_used = %q, want %q", out.StrategyUsed, "lazy")
	}
	// Re-deriving "first" re-retains it, which under the one-result cap
	// demotes "second"; once that write lands, the 1-byte disk budget evicts
	// it too. Drain so the outcome does not race the flusher: "second" is
	// then gone from memory and disk, and — as docs/http-api.md documents
	// for any evicted capture whose producing request is remembered — a
	// trace against it answers via the lazy tier rather than 410.
	srv.sessions.fl.drain()
	out, err = sess.Trace(ctx, "second", serverclient.TraceRequest{Direction: "backward", Table: "orders"})
	if err != nil {
		t.Fatalf("evicted \"second\" should answer via the lazy tier: %v", err)
	}
	if out.StrategyUsed != "lazy" {
		t.Fatalf("second: strategy_used = %q, want %q", out.StrategyUsed, "lazy")
	}
	if n := srv.lazyFallbacks.Load(); n != 2 {
		t.Fatalf("lazy_fallbacks = %d, want 2", n)
	}
	// The re-derived result is retained again: its rows read back.
	if _, err := sess.Result(ctx, "second"); err != nil {
		t.Fatalf("re-derived result not retained: %v", err)
	}
}

// A server restarted over the same data dir recovers ingested tables and
// retained sessions: bound traces (backward and forward, raw and
// compressed) answer element-identically to before the restart, and a new
// session id never collides with a recovered one.
func TestRestartRecoversSessions(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	c, _, _, stop := newDiskServer(t, dir, nil)
	mustCreateOrders(t, c)
	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(ctx, "base", serverclient.QueryRequest{
		SQL: "SELECT region, COUNT(*) AS n FROM orders GROUP BY region"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(ctx, "packed", serverclient.QueryRequest{
		SQL:      "SELECT region, SUM(amount) AS s FROM orders GROUP BY region",
		Compress: true}); err != nil {
		t.Fatal(err)
	}
	bw := serverclient.TraceRequest{Direction: "backward", Table: "orders", Rids: []int64{0}}
	fw := serverclient.TraceRequest{Direction: "forward", Table: "orders", Rids: []int64{0, 2, 4}}
	wantBW, err := sess.Trace(ctx, "base", bw)
	if err != nil {
		t.Fatal(err)
	}
	wantFW, err := sess.Trace(ctx, "packed", fw)
	if err != nil {
		t.Fatal(err)
	}
	// A filtered group-by's forward lineage covers a rid subset of orders
	// (the sparse form, persisted as a "sparse" segment section): every
	// base rid, kept or filtered out, must trace the same after reloading.
	if _, err := sess.Run(ctx, "filtered", serverclient.QueryRequest{
		SQL: "SELECT region, COUNT(*) AS n FROM orders WHERE amount >= 5 GROUP BY region"}); err != nil {
		t.Fatal(err)
	}
	fwAll := serverclient.TraceRequest{Direction: "forward", Table: "orders", Rids: []int64{0, 1, 2, 3, 4}}
	wantFiltered, err := sess.Trace(ctx, "filtered", fwAll)
	if err != nil {
		t.Fatal(err)
	}
	if wantFiltered.N != 4 {
		t.Fatalf("filtered forward trace reached %d output rows, want 4 (one base row filtered out)", wantFiltered.N)
	}
	if _, err := sess.Run(ctx, "old", serverclient.QueryRequest{
		SQL: "SELECT region, MAX(amount) AS m FROM orders GROUP BY region"}); err != nil {
		t.Fatal(err)
	}
	stop() // graceful shutdown: drain, flush, publish, close

	// "old" turns into a segment the previous format version wrote: its
	// lineage chunks are unreadable now, so after the restart it must answer
	// 410 (re-run the base query) — not 404, not a corrupt-segment 500.
	stampFormatV1(t, dir, sess.ID, "old")

	c2, srv2, _, stop2 := newDiskServer(t, dir, nil)
	defer stop2()
	sess2 := c2.Session(sess.ID)
	_, err = sess2.Trace(ctx, "old", bw)
	wantStatus(t, err, http.StatusGone)
	if n := srv2.sessions.stats().c.flushErrors; n != 0 {
		t.Fatalf("recovering a format v1 result counted %d flush errors", n)
	}
	gotBW, err := sess2.Trace(ctx, "base", bw)
	if err != nil {
		t.Fatalf("backward trace after restart: %v", err)
	}
	sameRows(t, "post-restart backward", gotBW, wantBW)
	gotFW, err := sess2.Trace(ctx, "packed", fw)
	if err != nil {
		t.Fatalf("forward trace after restart: %v", err)
	}
	sameRows(t, "post-restart forward", gotFW, wantFW)
	gotFiltered, err := sess2.Trace(ctx, "filtered", fwAll)
	if err != nil {
		t.Fatalf("filtered forward trace after restart: %v", err)
	}
	sameRows(t, "post-restart filtered forward", gotFiltered, wantFiltered)

	fresh, err := c2.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == sess.ID {
		t.Fatalf("restarted server reissued session id %s", fresh.ID)
	}
}

// Explicitly deleting a session removes it from the disk tier too: a
// restart must not resurrect it.
func TestDropSessionDeletesDiskTier(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	c, _, _, stop := newDiskServer(t, dir, nil)
	mustCreateOrders(t, c)
	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(ctx, "base", serverclient.QueryRequest{
		SQL: "SELECT region, COUNT(*) AS n FROM orders GROUP BY region"}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	stop()

	c2, _, _, stop2 := newDiskServer(t, dir, nil)
	defer stop2()
	_, err = c2.Session(sess.ID).Result(ctx, "base")
	wantStatus(t, err, 404) // a restart forgets tombstones; never resurrects data
}

// Out-of-range and negative explicit seeds are a client error on the HTTP
// path — 400, not a handler panic turned 500 (the seeds would otherwise
// reach the encoded chunk directory unchecked).
func TestTraceBadSeedsAre400(t *testing.T) {
	c, _ := newTestServer(t, nil)
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
	for _, tc := range []struct {
		name string
		req  serverclient.TraceRequest
	}{
		{"backward rid past output", serverclient.TraceRequest{
			Direction: "backward", Table: "orders", Rids: []int64{1 << 30}}},
		{"backward negative rid", serverclient.TraceRequest{
			Direction: "backward", Table: "orders", Rids: []int64{-1}}},
		{"forward rid past base", serverclient.TraceRequest{
			Direction: "forward", Table: "orders", Rids: []int64{999}}},
		{"forward negative rid", serverclient.TraceRequest{
			Direction: "forward", Table: "orders", Rids: []int64{-7}}},
	} {
		_, err := sess.Trace(ctx, "base", tc.req)
		wantStatus(t, err, 400)
	}
}

// tombstones must never forget recent evictions: the generational rotation
// keeps at least cap/2 of the latest adds. (The previous wholesale reset
// forgot everything at the cap, flipping fresh 410s back to 404.)
func TestTombstonesKeepRecentAcrossOverflow(t *testing.T) {
	ts := newTombstones(8)
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	for _, k := range keys {
		ts.add(k)
	}
	// The last cap/2 adds are always present, whatever the rotation phase.
	for _, k := range keys[len(keys)-4:] {
		if !ts.has(k) {
			t.Fatalf("recent tombstone %q forgotten after overflow", k)
		}
	}
	if len(ts.cur)+len(ts.old) > 8 {
		t.Fatalf("tombstones hold %d keys, cap 8", len(ts.cur)+len(ts.old))
	}
	ts.remove("j")
	if ts.has("j") {
		t.Fatal("removed tombstone still present")
	}
}

// The lazy tier re-executes a result's producing request, which answers for
// the result only over the inputs it originally ran on. After orders is
// re-ingested, an evicted result must answer 410 — not rows of the new
// table under the old result's name. Memory-only (eviction drops the
// capture) and disk with a 1-byte budget (the demoted segment is deleted
// once the flusher drains) reach the lazy tier the same way.
func TestLazyTierRefusesReingestedBase(t *testing.T) {
	for _, disk := range []bool{false, true} {
		t.Run(fmt.Sprintf("disk=%v", disk), func(t *testing.T) {
			tweak := func(cfg *Config) {
				cfg.MaxResultsPerSession = 1
				cfg.CacheEntries = -1
				cfg.MaxDiskBytes = 1
			}
			var (
				c     *serverclient.Client
				drain = func() {}
			)
			if disk {
				var srv *Server
				var stop func()
				c, srv, _, stop = newDiskServer(t, t.TempDir(), tweak)
				defer stop()
				drain = srv.sessions.fl.drain
			} else {
				c, _ = newTestServer(t, tweak)
			}
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
			bw := serverclient.TraceRequest{Direction: "backward", Table: "orders", Rids: []int64{0}}
			want, err := sess.Trace(ctx, "base", bw)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(want.Rows) != "[[emea 10] [emea 30] [emea 2.5]]" {
				t.Fatalf("reference trace = %v", want.Rows)
			}
			reingested := append([][]any{{"amer", 100.0}}, ordersRows()...)
			if err := c.CreateTable(ctx, "orders", ordersSchema(), reingested, ""); err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Run(ctx, "second", serverclient.QueryRequest{
				SQL: "SELECT region, COUNT(*) AS n FROM orders GROUP BY region"}); err != nil {
				t.Fatal(err)
			}
			drain()
			got, err := sess.Trace(ctx, "base", bw)
			if err == nil {
				t.Fatalf("evicted result over a re-ingested table answered %v (strategy_used %q), want 410",
					got.Rows, got.StrategyUsed)
			}
			wantStatus(t, err, 410)
		})
	}
}

// Lazy and hybrid results re-execute their plan for the traces they hold no
// index for. Demotion keeps only the output and the captured indexes, so
// those traces are answered by re-executing the producing request: element-
// identical to the resident answers, on the same path (strategy_used), and
// the demoted rows still read back.
func TestDemotedLazyAndHybridResultsTrace(t *testing.T) {
	for _, strategy := range []string{"lazy", "hybrid"} {
		t.Run(strategy, func(t *testing.T) {
			c, srv, _, stop := newDiskServer(t, t.TempDir(), func(cfg *Config) {
				cfg.MaxResultsPerSession = 1
			})
			defer stop()
			ctx := context.Background()
			mustCreateOrders(t, c)
			sess, err := c.NewSession(ctx)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := sess.Run(ctx, "r", serverclient.QueryRequest{
				SQL: "SELECT region, COUNT(*) AS n FROM orders GROUP BY region", Strategy: strategy})
			if err != nil {
				t.Fatal(err)
			}
			traces := []serverclient.TraceRequest{
				{Direction: "forward", Table: "orders", Rids: []int64{0}},
				{Direction: "backward", Table: "orders", Rids: []int64{0}},
				{Direction: "forward", Table: "orders", Rids: []int64{1, 3}},
			}
			want := make([]*serverclient.Result, len(traces))
			for i, tr := range traces {
				if want[i], err = sess.Trace(ctx, "r", tr); err != nil {
					t.Fatalf("resident %s trace: %v", tr.Direction, err)
				}
			}
			// Retaining a second result demotes "r" (cap 1); drain so the
			// segment write lands and the memory copy is released.
			if _, err := sess.Run(ctx, "other", serverclient.QueryRequest{
				SQL: "SELECT region, SUM(amount) AS s FROM orders GROUP BY region"}); err != nil {
				t.Fatal(err)
			}
			srv.sessions.fl.drain()
			if resident, onDisk := tierOf(srv.sessions, sess.ID, "r"); resident || !onDisk {
				t.Fatalf("after demotion: resident=%v onDisk=%v, want the disk tier only", resident, onDisk)
			}
			for i, tr := range traces {
				got, err := sess.Trace(ctx, "r", tr)
				if err != nil {
					t.Fatalf("demoted %s trace %v: %v", tr.Direction, tr.Rids, err)
				}
				sameRows(t, "demoted "+tr.Direction+" trace", got, want[i])
				if got.StrategyUsed != want[i].StrategyUsed {
					t.Fatalf("demoted %s trace strategy_used = %q, resident answered %q",
						tr.Direction, got.StrategyUsed, want[i].StrategyUsed)
				}
			}
			got, err := sess.Result(ctx, "r")
			if err != nil {
				t.Fatalf("GET of the demoted result: %v", err)
			}
			sameRows(t, "demoted rows", got, rows)
		})
	}
}

// TestDiskTierForwardScatter: a demoted result keeps its producing plan in
// the registry and gets it back when restored, so consuming COUNT traces on
// the disk tier count through a sibling's forward index like resident ones.
// A disk server (every retention demotes, no cache) and a memory-only one
// run the same requests; every trace must answer identically, and the disk
// server's scatter_traces must advance exactly when the rule applies: a
// demoted traced view answered in situ, a sibling mapped but never promoted,
// a promoted traced view, a promoted sibling — and not once a re-ingest
// separates the traced view's relation from the sibling's, nor after a
// restart, whose recovered entries have no plan.
func TestDiskTierForwardScatter(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	tweak := func(cfg *Config) {
		cfg.MaxResultsPerSession = 1
		cfg.CacheEntries = -1
	}
	disk, srv, _, stop := newDiskServer(t, dir, tweak)
	mem, _ := newTestServer(t, func(cfg *Config) { cfg.CacheEntries = -1 })
	schema := []serverclient.Field{{Name: "carrier", Type: "int"}, {Name: "delay", Type: "int"}, {Name: "date", Type: "int"}}
	var rows [][]any
	for i := 0; i < 2000; i++ {
		rows = append(rows, []any{int64(i % 7), int64((i * 13) % 11), int64(i % 120)})
	}
	ingest := func() {
		t.Helper()
		for _, c := range []*serverclient.Client{disk, mem} {
			if err := c.CreateTable(ctx, "flights", schema, rows, ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest()
	dsess, err := disk.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	msess, err := mem.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	view := func(name, key string) {
		t.Helper()
		sql := "SELECT " + key + ", COUNT(*) AS cnt FROM flights WHERE date >= 10 AND date < 90 GROUP BY " + key
		for _, s := range []*serverclient.Session{dsess, msess} {
			if _, err := s.Run(ctx, name, serverclient.QueryRequest{SQL: sql}); err != nil {
				t.Fatal(err)
			}
		}
		srv.sessions.fl.drain() // the demotions this retention queued land
	}
	counters := func(c *serverclient.Client) map[string]int64 {
		t.Helper()
		h, err := c.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]int64{}
		for _, k := range []string{"scatter_traces", "insitu_traces", "promotes", "views"} {
			out[k] = healthCount(t, h, k)
		}
		return out
	}
	// trace runs req on both servers and requires identical answers and the
	// disk server's counters to move by exactly moved.
	trace := func(what string, ds *serverclient.Session, name string, req serverclient.TraceRequest, moved map[string]int64) {
		t.Helper()
		before := counters(disk)
		got, err := ds.Trace(ctx, name, req)
		if err != nil {
			t.Fatalf("%s: disk server: %v", what, err)
		}
		want, err := msess.Trace(ctx, name, req)
		if err != nil {
			t.Fatalf("%s: memory server: %v", what, err)
		}
		sameRows(t, what, got, want)
		if !reflect.DeepEqual(got.GroupCounts, want.GroupCounts) {
			t.Fatalf("%s: group counts %v, want %v", what, got.GroupCounts, want.GroupCounts)
		}
		after := counters(disk)
		for k := range after {
			if d := after[k] - before[k]; d != moved[k] {
				t.Fatalf("%s: %s moved by %d, want %d (before %v, after %v)", what, k, d, moved[k], before, after)
			}
		}
	}
	brush := func(key string, rids ...int64) serverclient.TraceRequest {
		return serverclient.TraceRequest{Direction: "backward", Table: "flights", Rids: rids,
			GroupBy: []string{key}, Aggs: []serverclient.Agg{{Fn: "count", Name: "n"}}}
	}
	wherePred := serverclient.TraceRequest{Direction: "backward", Table: "flights", SeedWhere: "date >= 50"}
	brushPred := wherePred
	brushPred.GroupBy, brushPred.Aggs = []string{"carrier"}, []serverclient.Agg{{Fn: "count", Name: "n"}}

	view("bydate", "date")
	view("bycarrier", "carrier") // demotes bydate
	trace("demoted traced view, in situ", dsess, "bydate", brush("carrier", 5),
		map[string]int64{"scatter_traces": 1, "insitu_traces": 1, "views": 1})
	trace("mapped sibling view", dsess, "bycarrier", brush("date", 0, 3),
		map[string]int64{"scatter_traces": 1})
	// A scan-equivalent seed reads the plan too: the restored view must run
	// the filtered scan the original would, in its row order.
	trace("promoted traced view, plain predicate trace", dsess, "bydate", wherePred,
		map[string]int64{"promotes": 1})
	trace("promoted traced view", dsess, "bydate", brushPred, map[string]int64{"scatter_traces": 1})

	view("bydelay", "delay") // demotes bydate and bycarrier
	for _, s := range []*serverclient.Session{dsess, msess} {
		if _, err := s.Result(ctx, "bycarrier"); err != nil { // promotes bycarrier
			t.Fatal(err)
		}
	}
	if c := counters(disk); c["promotes"] != 2 {
		t.Fatalf("reading the demoted bycarrier back: %v, want 2 promotes", c)
	}
	trace("promoted sibling", dsess, "bydelay", brush("carrier", 0, 3), map[string]int64{"scatter_traces": 1})

	// bycarrier's plan scans the relation flights was before the re-ingest;
	// a fresh view scans the new one.
	ingest()
	view("fresh", "date")
	trace("sibling over a re-ingested relation", dsess, "fresh", brush("carrier", 5), nil)

	stop()
	disk, _, _, stop = newDiskServer(t, dir, tweak)
	defer stop()
	dsess = disk.Session(dsess.ID)
	for _, name := range []string{"bycarrier", "bydate"} {
		if _, err := dsess.Result(ctx, name); err != nil { // promote both, planless
			t.Fatal(err)
		}
	}
	trace("recovered after a restart", dsess, "bydate", brush("carrier", 5), nil)
}
