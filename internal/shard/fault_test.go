package shard_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"smoke/internal/serr"
	"smoke/internal/serverclient"
	"smoke/internal/shard"
	"smoke/internal/wire"
)

// shardErr unwraps a serverclient error and asserts its HTTP status and serr
// kind — fault handling must be STRUCTURED, never a hang, panic, or bare 500.
func shardErr(t *testing.T, tag string, err error, status int, kind string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: expected an error, got success", tag)
	}
	var se *serverclient.Error
	if !errors.As(err, &se) {
		t.Fatalf("%s: error is %T (%v), want *serverclient.Error", tag, err, err)
	}
	if se.Status != status || se.Kind != kind {
		t.Fatalf("%s: got %d/%s (%s), want %d/%s", tag, se.Status, se.Kind, se.Message, status, kind)
	}
}

// startFaultCoord builds a coordinator with a short per-shard deadline so the
// wedged-shard tests bound their own runtime.
func startFaultCoord(t *testing.T, shards int, timeout time.Duration) (*shard.Coordinator, *serverclient.Client) {
	t.Helper()
	coord := shard.New(shard.Config{Shards: shards, ShardTimeout: timeout})
	ts := httptest.NewServer(coord)
	t.Cleanup(func() {
		ts.Close()
		_ = coord.Close()
	})
	return coord, serverclient.New(ts.URL, nil)
}

// TestKilledShardAnswers503 kills one shard mid-session: every request whose
// wave touches it must answer a structured 503 naming the shard, within the
// coordinator deadline; restoring the shard restores service.
func TestKilledShardAnswers503(t *testing.T) {
	ctx := context.Background()
	const timeout = 2 * time.Second
	coord, c := startFaultCoord(t, 4, timeout)
	ingest(t, c, "shard")
	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	const baseSQL = "SELECT k, COUNT(*) AS cnt, SUM(v) AS sv FROM fact GROUP BY k"
	if _, err := sess.Run(ctx, "base", serverclient.QueryRequest{SQL: baseSQL}); err != nil {
		t.Fatalf("run before fault: %v", err)
	}

	coord.SetShardHandler(2, nil) // shard 2 is gone

	checks := []struct {
		tag string
		do  func() error
	}{
		{"scatter query", func() error {
			_, err := c.Query(ctx, serverclient.QueryRequest{SQL: baseSQL})
			return err
		}},
		{"scattered trace", func() error {
			_, err := sess.Trace(ctx, "base", serverclient.TraceRequest{Direction: "backward", Table: "fact", Rids: []int64{0}})
			return err
		}},
		{"retained run", func() error {
			_, err := sess.Run(ctx, "base2", serverclient.QueryRequest{SQL: baseSQL})
			return err
		}},
	}
	for _, chk := range checks {
		start := time.Now()
		err := chk.do()
		elapsed := time.Since(start)
		shardErr(t, chk.tag, err, http.StatusServiceUnavailable, "unavailable")
		if elapsed > timeout+time.Second {
			t.Fatalf("%s: took %v, want well under the %v coordinator deadline", chk.tag, elapsed, timeout)
		}
	}

	// /healthz must stay answerable with a down shard and report it ok=false.
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatalf("healthz with a dead shard: %v", err)
	}
	perShard, _ := h["per_shard"].([]any)
	if len(perShard) != 4 {
		t.Fatalf("healthz per_shard: %d entries, want 4", len(perShard))
	}
	deadEntry, _ := perShard[2].(map[string]any)
	if ok, _ := deadEntry["ok"].(bool); ok {
		t.Fatalf("healthz reports dead shard 2 as ok: %v", deadEntry)
	}

	coord.RestoreShardHandler(2)
	got, err := c.Query(ctx, serverclient.QueryRequest{SQL: baseSQL})
	if err != nil {
		t.Fatalf("query after restore: %v", err)
	}
	if got.N != 5 {
		t.Fatalf("query after restore: %d groups, want 5", got.N)
	}
}

// TestWedgedShardTimesOut wedges a shard (its handler blocks until the
// request context dies). Every wave touching it must come back as a 503
// within the coordinator deadline — the coordinator abandons the stuck
// goroutine rather than waiting on it — and /healthz must not wedge either.
func TestWedgedShardTimesOut(t *testing.T) {
	ctx := context.Background()
	const timeout = 400 * time.Millisecond
	coord, c := startFaultCoord(t, 2, timeout)
	ingest(t, c, "shard")
	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	const baseSQL = "SELECT b, COUNT(*) AS cnt FROM fact GROUP BY b"
	if _, err := sess.Run(ctx, "base", serverclient.QueryRequest{SQL: baseSQL}); err != nil {
		t.Fatalf("run before fault: %v", err)
	}

	wedged := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // hold the call until the coordinator gives up
	})
	coord.SetShardHandler(1, wedged)

	for _, chk := range []struct {
		tag string
		do  func() error
	}{
		{"scatter query", func() error {
			_, err := c.Query(ctx, serverclient.QueryRequest{SQL: baseSQL})
			return err
		}},
		// A rid-seeded trace below the scan threshold takes the per-seed
		// scatter path (trace-all would be answered coordinator-side from the
		// global relation and never touch the wedged shard).
		{"scattered trace", func() error {
			_, err := sess.Trace(ctx, "base", serverclient.TraceRequest{Direction: "backward", Table: "fact", Rids: []int64{0}})
			return err
		}},
	} {
		start := time.Now()
		err := chk.do()
		elapsed := time.Since(start)
		shardErr(t, chk.tag, err, http.StatusServiceUnavailable, "unavailable")
		if elapsed > timeout+time.Second {
			t.Fatalf("%s: took %v with a wedged shard, want ~%v", chk.tag, elapsed, timeout)
		}
	}

	start := time.Now()
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatalf("healthz with a wedged shard: %v", err)
	}
	if elapsed := time.Since(start); elapsed > timeout+time.Second {
		t.Fatalf("healthz took %v with a wedged shard, want ~%v", elapsed, timeout)
	}
	perShard, _ := h["per_shard"].([]any)
	wedgedEntry, _ := perShard[1].(map[string]any)
	if ok, _ := wedgedEntry["ok"].(bool); ok {
		t.Fatalf("healthz reports wedged shard 1 as ok: %v", wedgedEntry)
	}

	coord.RestoreShardHandler(1)
	if _, err := c.Query(ctx, serverclient.QueryRequest{SQL: baseSQL}); err != nil {
		t.Fatalf("query after restore: %v", err)
	}
}

// TestPanickingShardIsContained injects a handler that panics on every call:
// the coordinator must contain it (a shard-side 500, surfaced as a structured
// coordinator error) and must itself keep serving.
func TestPanickingShardIsContained(t *testing.T) {
	ctx := context.Background()
	coord, c := startFaultCoord(t, 2, 2*time.Second)
	ingest(t, c, "shard")

	coord.SetShardHandler(0, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("injected shard panic")
	}))
	_, err := c.Query(ctx, serverclient.QueryRequest{SQL: "SELECT b, COUNT(*) AS cnt FROM fact GROUP BY b"})
	var se *serverclient.Error
	if !errors.As(err, &se) {
		t.Fatalf("panicking shard: error is %T (%v), want *serverclient.Error", err, err)
	}
	if se.Status != http.StatusInternalServerError {
		t.Fatalf("panicking shard: status %d, want 500", se.Status)
	}

	coord.RestoreShardHandler(0)
	if _, err := c.Query(ctx, serverclient.QueryRequest{SQL: "SELECT b, COUNT(*) AS cnt FROM fact GROUP BY b"}); err != nil {
		t.Fatalf("query after restore: %v", err)
	}
}

// TestScatterCancelledSiblingDoesNotOutrankCause: shard 0 is down, so its
// failure cancels the wave, and shard 1 answers Busy only once that cancel
// reaches it (as a sibling abandoned at its admission gate does). The Busy
// is a consequence of the cancel and must never outrank its cause: every
// wave answers 503. The Busy reaches the gather only when shard 1's call
// starts waiting after its handler has replied, a scheduling race, so the
// test runs 200 waves: a gather that ranks errors by kind instead of
// recording the cause fails 19 of 20 runs under -race on a 2-core VM (1 of
// 20 without -race).
func TestScatterCancelledSiblingDoesNotOutrankCause(t *testing.T) {
	ctx := context.Background()
	coord, c := startFaultCoord(t, 2, 5*time.Second)
	ingest(t, c, "shard")
	coord.SetShardHandler(0, nil)
	coord.SetShardHandler(1, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
		wire.WriteError(w, serr.New(serr.Busy, "request abandoned while queued: %v", r.Context().Err()))
	}))
	for i := 0; i < 200; i++ {
		_, err := c.Query(ctx, serverclient.QueryRequest{SQL: "SELECT k, COUNT(*) AS cnt FROM fact GROUP BY k"})
		shardErr(t, fmt.Sprintf("wave %d", i), err, http.StatusServiceUnavailable, "unavailable")
	}
}

// TestFailureCountersAdvance pins the /healthz failure accounting: killed-
// shard waves bump shard_timeouts (the unavailable path) and the failing
// shard's per-shard failure counter.
func TestFailureCountersAdvance(t *testing.T) {
	ctx := context.Background()
	coord, c := startFaultCoord(t, 2, time.Second)
	ingest(t, c, "shard")

	before, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	coord.SetShardHandler(1, nil)
	for i := 0; i < 3; i++ {
		_, qerr := c.Query(ctx, serverclient.QueryRequest{SQL: "SELECT k, COUNT(*) AS cnt FROM fact GROUP BY k"})
		shardErr(t, fmt.Sprintf("dead-shard query %d", i), qerr, http.StatusServiceUnavailable, "unavailable")
	}
	coord.RestoreShardHandler(1)
	after, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if asInt(t, after["shard_timeouts"]) < asInt(t, before["shard_timeouts"])+3 {
		t.Fatalf("shard_timeouts did not advance by 3: before %v, after %v", before["shard_timeouts"], after["shard_timeouts"])
	}
	perShard, _ := after["per_shard"].([]any)
	entry, _ := perShard[1].(map[string]any)
	if asInt(t, entry["failures"]) < 3 {
		t.Fatalf("shard 1 failures = %v, want >= 3", entry["failures"])
	}
}

// TestHostileShardReplies: a shard answering 200 with a body that does not
// fit its own schema, or does not parse, makes every gather touching it a
// structured 500 Internal naming the shard — never a panic, a wrong answer
// or a leaked goroutine (TestMain's leak check). A reply handed back in
// typed columns meets the same check: group counts that do not number its
// rows, or a schema that is not the other partials', answer the same 500.
func TestHostileShardReplies(t *testing.T) {
	ctx := context.Background()
	coord, c := startFaultCoord(t, 2, 2*time.Second)
	ingest(t, c, "shard")
	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT k, COUNT(*) AS cnt FROM fact GROUP BY k"
	if _, err := sess.Run(ctx, "base", serverclient.QueryRequest{SQL: sql}); err != nil {
		t.Fatal(err)
	}
	const head = `{"columns":["k","cnt"],"types":["int","int"],"rows":`
	bodies := map[string]string{
		"string in an INT column":   head + `[["x",1]],"row_count":1,"group_counts":[1]}`,
		"fraction in an INT column": head + `[[1.5,1]],"row_count":1,"group_counts":[1]}`,
		"short row":                 head + `[[1]],"row_count":1,"group_counts":[1]}`,
		"group_counts length":       head + `[[1,2]],"row_count":1,"group_counts":[2,3]}`,
		"truncated body":            head + `[[1,`,
	}
	calls := map[string]func() error{
		"query": func() error {
			_, err := c.Query(ctx, serverclient.QueryRequest{SQL: sql})
			return err
		},
		"retain": func() error {
			_, err := sess.Run(ctx, "again", serverclient.QueryRequest{SQL: sql})
			return err
		},
		"backward trace": func() error {
			_, err := sess.Trace(ctx, "base", serverclient.TraceRequest{Direction: "backward", Table: "fact",
				Rids: []int64{0, 1}, GroupBy: []string{"b"}, Aggs: []serverclient.Agg{{Fn: "count"}}})
			return err
		},
		"forward trace": func() error {
			_, err := sess.Trace(ctx, "base", serverclient.TraceRequest{Direction: "forward", Table: "fact", Rids: []int64{102}})
			return err
		},
	}
	faults := map[string]func(){
		"handed-back group_counts length": func() {
			wrapShard(coord, 1, func(r *wire.Result) *wire.Result {
				out := *r
				out.GroupCounts = make([]int64, r.N+1)
				return &out
			})
		},
		"handed-back schema": func() {
			wrapShard(coord, 1, func(r *wire.Result) *wire.Result {
				rel := *r.Rel()
				rel.Schema = slices.Clone(rel.Schema)
				rel.Schema[len(rel.Schema)-1].Name += "_"
				out := wire.Rows(&rel)
				out.GroupCounts = r.GroupCounts
				return &out
			})
		},
	}
	for what, body := range bodies {
		faults[what] = func() {
			coord.SetShardHandler(1, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				_, _ = w.Write([]byte(body))
			}))
		}
	}
	for what, fault := range faults {
		fault()
		for call, do := range calls {
			tag := what + " / " + call
			err := do()
			shardErr(t, tag, err, http.StatusInternalServerError, "internal")
			var se *serverclient.Error
			if errors.As(err, &se); !strings.Contains(se.Message, "shard 1") || strings.Contains(se.Message, "panic") {
				t.Fatalf("%s: message %q, want one naming shard 1 and no panic", tag, se.Message)
			}
		}
	}
	coord.RestoreShardHandler(1)
	if _, err := c.Query(ctx, serverclient.QueryRequest{SQL: sql}); err != nil {
		t.Fatalf("query after restore: %v", err)
	}
}
