package shard_test

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"smoke/internal/core"
	"smoke/internal/server"
	"smoke/internal/serverclient"
	"smoke/internal/shard"
	"smoke/internal/storage"
	"smoke/internal/wire"
)

// rewriter is a response writer wrapping a shard's own: it edits a typed
// result the shard's handler hands back and passes the edit on, through
// WriteJSON, to the writer underneath — which takes it when the coordinator
// asked for a typed reply and encodes it otherwise.
type rewriter struct {
	http.ResponseWriter
	edit func(*wire.Result) *wire.Result
}

func (w rewriter) TakeResult(status int, r *wire.Result) {
	wire.WriteJSON(w.ResponseWriter, status, w.edit(r))
}

// wrapShard runs shard i's own server behind a rewriter with edit.
func wrapShard(coord *shard.Coordinator, i int, edit func(*wire.Result) *wire.Result) {
	real := coord.ShardServer(i)
	coord.SetShardHandler(i, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		real.ServeHTTP(rewriter{w, edit}, r)
	}))
}

// serve runs one request against h in process and returns the status and
// the body.
func serve(h http.Handler, method, path, contentType, body string) (int, string) {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// newSession opens a session on h and returns its results path prefix.
func newSession(t testing.TB, h http.Handler) string {
	t.Helper()
	code, body := serve(h, http.MethodPost, "/v1/sessions", "application/json", "{}")
	var s struct {
		ID string `json:"id"`
	}
	if code != http.StatusCreated || json.Unmarshal([]byte(body), &s) != nil {
		t.Fatalf("new session: %d %s", code, body)
	}
	return "/v1/sessions/" + s.ID + "/results/"
}

// TestInvalidUTF8KeysKeepGroups: string keys that differ only in invalid
// UTF-8 bytes are distinct groups on a single node. JSON renders every
// invalid byte as U+FFFD, so a gather that read the keys back from shard
// bodies folded them into one group; shards in process hand back their
// bytes, and a coordinator at 2 and 4 shards answers a query, a retain and
// backward and forward traces with the single node's bytes.
func TestInvalidUTF8KeysKeepGroups(t *testing.T) {
	const csv = "s,v\na\xff,1\na\xfe,2\na\xff,3\na\xfe,4\n"
	db := core.Open(core.WithWorkers(1))
	single := server.New(server.Config{DB: db})
	t.Cleanup(func() {
		_ = single.Close()
		db.Close()
	})
	handlers := []http.Handler{single}
	for _, shards := range []int{2, 4} {
		coord := shard.New(shard.Config{Shards: shards})
		t.Cleanup(func() { _ = coord.Close() })
		handlers = append(handlers, coord)
	}
	const sql = `{"sql":"SELECT s, COUNT(*) AS c FROM t GROUP BY s"}`
	var want []string
	for i, h := range handlers {
		if code, body := serve(h, http.MethodPost, "/v1/tables/t?dist=shard&types=string,int", "text/csv", csv); code != http.StatusOK {
			t.Fatalf("handler %d ingest: %d %s", i, code, body)
		}
		results := newSession(t, h)
		var got []string
		for _, call := range []struct{ path, body string }{
			{"/v1/query", sql},
			{results + "g", sql},
			{results + "g/trace", `{"direction":"backward","table":"t","rids":[1,0]}`},
			{results + "g/trace", `{"direction":"backward","table":"t","rids":[0,1],"group_by":["v"],"aggs":[{"fn":"count"}]}`},
			{results + "g/trace", `{"direction":"forward","table":"t","rids":[3,0,1]}`},
		} {
			code, body := serve(h, http.MethodPost, call.path, "application/json", call.body)
			got = append(got, fmt.Sprintf("%s: %d %s", call.path[strings.LastIndexByte(call.path, '/'):], code, body))
		}
		if i == 0 {
			want = got
			var res wire.Result
			if err := json.Unmarshal([]byte(strings.SplitN(got[0], " ", 3)[2]), &res); err != nil || res.N != 2 ||
				fmt.Sprint(res.Rows) != "[[a\ufffd 2] [a\ufffd 2]]" {
				t.Fatalf("single node: %s, want two groups of 2 (%v)", got[0], err)
			}
			continue
		}
		for c := range want {
			if got[c] != want[c] {
				t.Errorf("handler %d call %d:\n got %s\nwant %s", i, c, got[c], want[c])
			}
		}
	}
}

// TestMergedRepliesReportCached: a gathered reply is "cached" exactly when
// every shard answered from its result cache, as a single node's reply is
// when it did — on queries, retains and every scattered trace shape.
func TestMergedRepliesReportCached(t *testing.T) {
	ctx := context.Background()
	_, c := startCoord(t, 2)
	ingest(t, c, "shard")
	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT k, COUNT(*) AS cnt, SUM(v) AS sv FROM fact GROUP BY k"
	if _, err := sess.Run(ctx, "base", serverclient.QueryRequest{SQL: sql}); err != nil {
		t.Fatal(err)
	}
	calls := map[string]func() (*serverclient.Result, error){
		"query": func() (*serverclient.Result, error) {
			return c.Query(ctx, serverclient.QueryRequest{SQL: "SELECT b, COUNT(*) AS cnt FROM fact GROUP BY b"})
		},
		"retain": func() (*serverclient.Result, error) {
			return sess.Run(ctx, "again", serverclient.QueryRequest{SQL: "SELECT b, MAX(v) AS mx FROM fact GROUP BY b"})
		},
		"consuming backward trace": func() (*serverclient.Result, error) {
			return sess.Trace(ctx, "base", serverclient.TraceRequest{Direction: "backward", Table: "fact",
				Rids: []int64{1, 3}, GroupBy: []string{"b"}, Aggs: []serverclient.Agg{{Fn: "count"}}})
		},
		"backward trace": func() (*serverclient.Result, error) {
			return sess.Trace(ctx, "base", serverclient.TraceRequest{Direction: "backward", Table: "fact", Rids: []int64{2}})
		},
		"empty backward trace": func() (*serverclient.Result, error) {
			return sess.Trace(ctx, "base", serverclient.TraceRequest{Direction: "backward", Table: "fact", Rids: []int64{}})
		},
		"forward trace": func() (*serverclient.Result, error) {
			return sess.Trace(ctx, "base", serverclient.TraceRequest{Direction: "forward", Table: "fact", Rids: []int64{0, 101}})
		},
	}
	for name, call := range calls {
		for i, want := range []bool{false, true} {
			res, err := call()
			if err != nil {
				t.Fatalf("%s #%d: %v", name, i+1, err)
			}
			if res.Cached != want {
				t.Errorf("%s #%d: cached = %v, want %v", name, i+1, res.Cached, want)
			}
		}
	}
}

// TestNonFiniteAggregatesThroughCoordinator: an aggregate JSON cannot carry
// (NaN, ±Inf) answers a structured 422 through a coordinator as on a single
// node, whether the partials cross the shard seam as bodies or as columns:
// for a query, a retain and a consuming trace.
func TestNonFiniteAggregatesThroughCoordinator(t *testing.T) {
	ctx := context.Background()
	schema := []serverclient.Field{{Name: "k", Type: "int"}, {Name: "v", Type: "float"}}
	rows := [][]any{{1, 2.0}, {1, -1.0}, {2, 0.0}, {2, 1.0}}
	_, coord := startCoord(t, 2)
	for _, c := range []*serverclient.Client{startSingle(t), coord} {
		if err := c.CreateTableDist(ctx, "t", schema, rows, "", "shard"); err != nil {
			t.Fatal(err)
		}
		sess, err := c.NewSession(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(ctx, "base", serverclient.QueryRequest{SQL: "SELECT k, COUNT(*) AS c FROM t GROUP BY k"}); err != nil {
			t.Fatal(err)
		}
		const nan = "SELECT k, SUM(v / 0.0) AS x FROM t GROUP BY k"
		_, err = c.Query(ctx, serverclient.QueryRequest{SQL: nan})
		shardErr(t, "query", err, http.StatusUnprocessableEntity, "unsupported")
		_, err = sess.Run(ctx, "nan", serverclient.QueryRequest{SQL: nan})
		shardErr(t, "retain", err, http.StatusUnprocessableEntity, "unsupported")
		_, err = sess.Trace(ctx, "base", serverclient.TraceRequest{Direction: "backward", Table: "t", Rids: []int64{0, 1},
			GroupBy: []string{"k"}, Aggs: []serverclient.Agg{{Fn: "sum", Arg: "v / 0.0"}, {Fn: "max", Arg: "v / 0.0"}}})
		shardErr(t, "trace", err, http.StatusUnprocessableEntity, "unsupported")
	}
}

// digest hashes a relation's schema, row count and every cell.
func digest(rel *storage.Relation) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, rel.Schema, rel.N)
	for _, col := range rel.Cols {
		fmt.Fprint(h, col.Ints, col.Floats, col.Strs)
	}
	return h.Sum64()
}

// TestHandedBackRelationsUnchanged: shards hand the coordinator their
// retained and cached results' own relations, which the coordinator may
// read but never write. Concurrent scattered queries, retains and traces
// (under -race, which also reports a write racing a shard's reader) must
// leave every relation a shard handed back as it was when handed back.
func TestHandedBackRelationsUnchanged(t *testing.T) {
	ctx := context.Background()
	coord, c := startCoord(t, 2)
	ingest(t, c, "shard")
	var (
		mu   sync.Mutex
		seen = map[*storage.Relation]uint64{}
	)
	for i := 0; i < coord.Shards(); i++ {
		wrapShard(coord, i, func(r *wire.Result) *wire.Result {
			d := digest(r.Rel())
			mu.Lock()
			if old, ok := seen[r.Rel()]; ok && old != d {
				t.Errorf("a relation the shard handed back again changed in between")
			}
			seen[r.Rel()] = d
			mu.Unlock()
			return r
		})
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := c.NewSession(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 6; i++ {
				sql := []string{
					"SELECT k, COUNT(*) AS cnt, SUM(v) AS sv, AVG(v) AS av FROM fact GROUP BY k",
					"SELECT b, MIN(v) AS mn, MAX(v) AS mx FROM fact GROUP BY b",
				}[i%2]
				if _, err := c.Query(ctx, serverclient.QueryRequest{SQL: sql}); err != nil {
					t.Error(err)
				}
				name := fmt.Sprint("r", i%2)
				if _, err := sess.Run(ctx, name, serverclient.QueryRequest{SQL: sql}); err != nil {
					t.Error(err)
					continue
				}
				for _, tr := range []serverclient.TraceRequest{
					{Direction: "backward", Table: "fact", Rids: []int64{int64(i % 3)}, GroupBy: []string{"b"},
						Aggs: []serverclient.Agg{{Fn: "count"}, {Fn: "sum", Arg: "v"}}},
					{Direction: "backward", Table: "fact", Rids: []int64{0, 2}},
					{Direction: "forward", Table: "fact", Rids: []int64{int64(w), 60, 102}},
				} {
					if _, err := sess.Trace(ctx, name, tr); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	if len(seen) == 0 {
		t.Fatal("no shard handed a result back")
	}
	for rel, d := range seen {
		if digest(rel) != d {
			t.Errorf("relation %s (%d rows) changed after the shard handed it back", rel.Name, rel.N)
		}
	}
}

// BenchmarkScatteredTrace sends one consuming single-bar backward trace —
// the crossfilter brush — through a 2-shard coordinator's handler in
// process: seed translation, one scatter wave to both shards, each shard's
// trace, the gather of two 500-group partials and the reply's encoding.
// The bars cycle, so after the
// first pass the shards answer from their result caches and the loop times
// the coordinator and the shard seam around them.
func BenchmarkScatteredTrace(b *testing.B) {
	const bars, rows = 20, 20_000
	coord := shard.New(shard.Config{Shards: 2})
	b.Cleanup(func() { _ = coord.Close() })
	tbl := wire.Table{Schema: []wire.Field{{Name: "bar", Type: "int"}, {Name: "g", Type: "int"}, {Name: "v", Type: "float"}}}
	for i := 0; i < rows; i++ {
		tbl.Rows = append(tbl.Rows, []any{i % bars, (i / bars) % 500, float64(i % 13)})
	}
	body, err := json.Marshal(tbl)
	if err != nil {
		b.Fatal(err)
	}
	if code, out := serve(coord, http.MethodPost, "/v1/tables/t?dist=shard", "application/json", string(body)); code != http.StatusOK {
		b.Fatalf("ingest: %d %s", code, out)
	}
	results := newSession(b, coord)
	if code, out := serve(coord, http.MethodPost, results+"bars", "application/json",
		`{"sql":"SELECT bar, COUNT(*) AS c FROM t GROUP BY bar"}`); code != http.StatusOK {
		b.Fatalf("retain: %d %s", code, out)
	}
	traces := make([]string, bars)
	for i := range traces {
		traces[i] = fmt.Sprintf(`{"direction":"backward","table":"t","rids":[%d],"group_by":["g"],"aggs":[{"fn":"count"}]}`, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code, out := serve(coord, http.MethodPost, results+"bars/trace", "application/json", traces[i%bars]); code != http.StatusOK {
			b.Fatalf("trace: %d %s", code, out)
		}
	}
}
