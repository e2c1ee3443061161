package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"smoke/internal/core"
	"smoke/internal/diskstore"
	"smoke/internal/expr"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/server"
	"smoke/internal/serverclient"
	"smoke/internal/shard"
	"smoke/internal/storage"
)

// Serve is the HTTP-layer experiment (beyond-paper): a load generator drives
// concurrent crossfilter sessions against a smoked server (httptest
// transport, real handler stack — admission gate, session registry,
// fingerprint cache, fair-shared worker pool) and reports request-latency
// percentiles for the two request classes of the interactive loop:
//
//   - base: run the capture query, retained in the session;
//   - trace: a bound backward trace of one bar, re-aggregated into the
//     second view (the per-interaction request). Bars repeat within a
//     session (crossfilter re-brushing), so a slice of traces hits the
//     plan-fingerprint cache; rows report the hit rate observed.
//
// Before timing, every distinct (session, bar) served trace is gated
// element-identical to in-process execution of the same consuming plan —
// serving must change where the query runs, never what it answers. Results
// land in BENCH_serve.json.
func Serve(cfg Config) error {
	n := 500_000
	sessions, interactions := 8, 40
	bars1, bars2 := 100, 50
	switch {
	case cfg.paper():
		n = 5_000_000
		sessions, interactions = 16, 100
	case cfg.tiny():
		n = 50_000
		sessions, interactions = 4, 16
	}
	workers := 4

	db := core.Open(core.WithWorkers(workers))
	defer db.Close()
	rel := consumeData(n, bars1, bars2)
	db.Register(rel)

	srv := server.New(server.Config{DB: db})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ctx := context.Background()
	client := serverclient.New(ts.URL, ts.Client())

	const baseSQL = "SELECT d1, COUNT(*) AS cnt FROM interact GROUP BY d1"
	traceReq := func(bar int64) serverclient.TraceRequest {
		return serverclient.TraceRequest{
			Direction: "backward", Table: "interact", Rids: []int64{bar},
			GroupBy: []string{"d2"},
			Aggs: []serverclient.Agg{
				{Fn: "count", Name: "n"}, {Fn: "sum", Arg: "v", Name: "sv"},
			},
		}
	}

	// In-process reference: the same base query and consuming plan on the
	// same DB (same parallelism, so float sums are bit-identical too; the
	// comparison still tolerates last-ulp drift to stay robust).
	ref, err := db.Query().From("interact", nil).GroupBy("d1").
		Agg(ops.Count, nil, "cnt").
		Run(core.CaptureOptions{Mode: ops.Inject})
	if err != nil {
		return err
	}
	refTrace := func(bar int64) (*core.Result, error) {
		return db.Query().Trace(ref, core.TraceBackward, "interact", core.Rids(lineage.Rid(bar))).
			GroupBy("d2").Agg(ops.Count, nil, "n").Agg(ops.Sum, expr.C("v"), "sv").
			Run(core.CaptureOptions{})
	}

	// The per-session interaction script: bars walk with period 8 so each
	// session revisits bars (re-brushing) and distinct sessions overlap.
	barFor := func(sess, i int) int64 { return int64((sess*3 + i) % 8 * (bars1 / 8) % bars1) }

	// ---- Equality gate (serial, untimed) ----------------------------------
	gateSess, err := client.NewSession(ctx)
	if err != nil {
		return err
	}
	if _, err := gateSess.Run(ctx, "view1", serverclient.QueryRequest{SQL: baseSQL}); err != nil {
		return err
	}
	gated := map[int64]bool{}
	for s := 0; s < sessions; s++ {
		for i := 0; i < interactions; i++ {
			bar := barFor(s, i)
			if gated[bar] {
				continue
			}
			gated[bar] = true
			got, err := gateSess.Trace(ctx, "view1", traceReq(bar))
			if err != nil {
				return fmt.Errorf("serve: gate trace bar %d: %w", bar, err)
			}
			want, err := refTrace(bar)
			if err != nil {
				return err
			}
			if err := diffServed(got, want); err != nil {
				return fmt.Errorf("serve: served trace of bar %d diverges from in-process execution: %w", bar, err)
			}
		}
	}
	if err := gateSess.Close(ctx); err != nil {
		return err
	}

	// ---- Timed concurrent load -------------------------------------------
	type lat struct {
		baseMS  []float64
		traceMS []float64
		cached  int
		traces  int
	}
	run := func() (lat, error) {
		var mu sync.Mutex
		var agg lat
		var wg sync.WaitGroup
		errs := make(chan error, sessions)
		for s := 0; s < sessions; s++ {
			s := s
			wg.Add(1)
			go func() {
				defer wg.Done()
				var local lat
				sess, err := client.NewSession(ctx)
				if err != nil {
					errs <- err
					return
				}
				defer sess.Close(ctx)
				t0 := time.Now()
				if _, err := sess.Run(ctx, "view1", serverclient.QueryRequest{SQL: baseSQL}); err != nil {
					errs <- fmt.Errorf("session %d base: %w", s, err)
					return
				}
				local.baseMS = append(local.baseMS, ms(time.Since(t0)))
				for i := 0; i < interactions; i++ {
					t1 := time.Now()
					res, err := sess.Trace(ctx, "view1", traceReq(barFor(s, i)))
					if err != nil {
						errs <- fmt.Errorf("session %d trace %d: %w", s, i, err)
						return
					}
					local.traceMS = append(local.traceMS, ms(time.Since(t1)))
					local.traces++
					if res.Cached {
						local.cached++
					}
				}
				mu.Lock()
				agg.baseMS = append(agg.baseMS, local.baseMS...)
				agg.traceMS = append(agg.traceMS, local.traceMS...)
				agg.cached += local.cached
				agg.traces += local.traces
				mu.Unlock()
				errs <- nil
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				return lat{}, err
			}
		}
		return agg, nil
	}
	// One warmup round primes the fingerprint cache the way a brushing
	// client would, then the measured round.
	if _, err := run(); err != nil {
		return err
	}
	measured, err := run()
	if err != nil {
		return err
	}

	// ---- Demotion churn (disk tier, background flusher) -------------------
	// A second server over a disk store with a ~one-result memory budget:
	// every base retention demotes its predecessor, so the trace traffic
	// below runs while the background flusher is continuously writing
	// segments. The p95 here is the "no handler blocks on segment I/O"
	// number. Per-session base SQL is distinct (no cache-shared retentions
	// resisting demotion) and the fingerprint cache is off, so every trace
	// pays the full serving path.
	churnDir, err := os.MkdirTemp("", "smoke-serve-churn-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(churnDir)
	store, err := diskstore.Open(churnDir)
	if err != nil {
		return err
	}
	defer store.Close()
	srv2 := server.New(server.Config{DB: db, Store: store, MaxRetainedBytes: 1, CacheEntries: -1})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	client2 := serverclient.New(ts2.URL, ts2.Client())
	// The filter passes every row (d2 stays far below the bound), so each
	// session's capture is element-identical to ref while its fingerprint is
	// unique.
	churnSQL := func(s int) string {
		return fmt.Sprintf("SELECT d1, COUNT(*) AS cnt FROM interact WHERE d2 < %d GROUP BY d1", 1_000_000+s)
	}

	// Equality gate under churn (serial, untimed): the first trace of every
	// session variant must match in-process execution.
	for s := 0; s < sessions; s++ {
		gs, err := client2.NewSession(ctx)
		if err != nil {
			return err
		}
		if _, err := gs.Run(ctx, "view1", serverclient.QueryRequest{SQL: churnSQL(s)}); err != nil {
			return err
		}
		bar := barFor(s, 0)
		got, err := gs.Trace(ctx, "view1", traceReq(bar))
		if err != nil {
			return fmt.Errorf("serve: churn gate trace bar %d: %w", bar, err)
		}
		want, err := refTrace(bar)
		if err != nil {
			return err
		}
		if err := diffServed(got, want); err != nil {
			return fmt.Errorf("serve: churned trace of bar %d diverges from in-process execution: %w", bar, err)
		}
		if err := gs.Close(ctx); err != nil {
			return err
		}
	}

	churnRun := func() (lat, error) {
		var mu sync.Mutex
		var agg lat
		var wg sync.WaitGroup
		errs := make(chan error, sessions)
		for s := 0; s < sessions; s++ {
			s := s
			wg.Add(1)
			go func() {
				defer wg.Done()
				var local lat
				sess, err := client2.NewSession(ctx)
				if err != nil {
					errs <- err
					return
				}
				defer sess.Close(ctx)
				t0 := time.Now()
				if _, err := sess.Run(ctx, "view1", serverclient.QueryRequest{SQL: churnSQL(s)}); err != nil {
					errs <- fmt.Errorf("churn session %d base: %w", s, err)
					return
				}
				local.baseMS = append(local.baseMS, ms(time.Since(t0)))
				for i := 0; i < interactions; i++ {
					t1 := time.Now()
					if _, err := sess.Trace(ctx, "view1", traceReq(barFor(s, i))); err != nil {
						errs <- fmt.Errorf("churn session %d trace %d: %w", s, i, err)
						return
					}
					local.traceMS = append(local.traceMS, ms(time.Since(t1)))
					local.traces++
				}
				mu.Lock()
				agg.baseMS = append(agg.baseMS, local.baseMS...)
				agg.traceMS = append(agg.traceMS, local.traceMS...)
				agg.traces += local.traces
				mu.Unlock()
				errs <- nil
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				return lat{}, err
			}
		}
		return agg, nil
	}
	if _, err := churnRun(); err != nil { // warmup: page caches, pool steady state
		return err
	}
	churned, err := churnRun()
	if err != nil {
		return err
	}

	// ---- Promotion-free small-trace sweep ---------------------------------
	// Deterministic acceptance sequence for in-situ serving: retain, demote
	// (the one-result budget pushes view1 out when pusher lands), wait for
	// the flusher to drain, then issue exactly one small bound trace per
	// session. Every trace must answer off the segment-backed view: the
	// in-situ counter advances by the session count and the promote counter
	// not at all.
	sweepBar := int64(bars1 - 1) // smallest bar under the u-squared skew
	wantSweep, err := refTrace(sweepBar)
	if err != nil {
		return err
	}
	sweepSess := make([]*serverclient.Session, 0, sessions)
	for s := 0; s < sessions; s++ {
		sess, err := client2.NewSession(ctx)
		if err != nil {
			return err
		}
		if _, err := sess.Run(ctx, "view1", serverclient.QueryRequest{SQL: churnSQL(s)}); err != nil {
			return err
		}
		if _, err := sess.Run(ctx, "pusher", serverclient.QueryRequest{
			SQL: fmt.Sprintf("SELECT d2, COUNT(*) AS cnt FROM interact WHERE d1 < %d GROUP BY d2", 1_000_000+s)}); err != nil {
			return err
		}
		sweepSess = append(sweepSess, sess)
	}
	// The client decodes with UseNumber, so healthz numbers arrive as
	// json.Number.
	counter := func(h map[string]any, k string) float64 {
		switch v := h[k].(type) {
		case float64:
			return v
		case json.Number:
			f, _ := v.Float64()
			return f
		}
		return 0
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		h, err := client2.Health(ctx)
		if err != nil {
			return err
		}
		if counter(h, "flusher_queue_depth") == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("serve: flusher queue never drained after the demotion wave")
		}
		time.Sleep(10 * time.Millisecond)
	}
	before, err := client2.Health(ctx)
	if err != nil {
		return err
	}
	var sweepMS []float64
	for s, sess := range sweepSess {
		t0 := time.Now()
		got, err := sess.Trace(ctx, "view1", traceReq(sweepBar))
		if err != nil {
			return fmt.Errorf("serve: sweep trace session %d: %w", s, err)
		}
		sweepMS = append(sweepMS, ms(time.Since(t0)))
		if err := diffServed(got, wantSweep); err != nil {
			return fmt.Errorf("serve: in-situ trace of bar %d diverges from in-process execution: %w", sweepBar, err)
		}
	}
	after, err := client2.Health(ctx)
	if err != nil {
		return err
	}
	if d := counter(after, "insitu_traces") - counter(before, "insitu_traces"); d != float64(len(sweepSess)) {
		return fmt.Errorf("serve: small-trace sweep answered %d of %d traces in situ (promotion-free serving regressed)",
			int(d), len(sweepSess))
	}
	if d := counter(after, "promotes") - counter(before, "promotes"); d != 0 {
		return fmt.Errorf("serve: small-trace sweep promoted %d results, want 0", int(d))
	}

	// ---- Horizontal scale-out (shard tier) --------------------------------
	// The same interactive loop against the scatter/gather coordinator at
	// shards=1 (pure proxy: the coordinator-overhead floor — one node, one
	// worker) and shards=4 (one worker per shard: the scale-out claim). Every
	// distinct bar's served trace is gated element-identical to in-process
	// single-node execution before timing; benchgate's shard rule then holds
	// the shards=4 trace p95 within a fixed factor of shards=1.
	wireFields := []serverclient.Field{
		{Name: "d1", Type: "int"}, {Name: "d2", Type: "int"}, {Name: "v", Type: "float"},
	}
	wireRows := make([][]any, rel.N)
	for i := 0; i < rel.N; i++ {
		wireRows[i] = []any{rel.Cols[0].Ints[i], rel.Cols[1].Ints[i], rel.Cols[2].Floats[i]}
	}
	wantBar := map[int64]*core.Result{}
	for bar := range gated {
		w, err := refTrace(bar)
		if err != nil {
			return err
		}
		wantBar[bar] = w
	}
	shardCounts := []int{1, 4}
	shardTraceMS := map[int][]float64{}
	for _, shards := range shardCounts {
		err := func() error {
			// MaxInFlight covers the generator's concurrency: the default
			// (4×GOMAXPROCS) fails fast with 429 on small machines, and this
			// experiment measures latency, not load shedding.
			coord := shard.New(shard.Config{
				Shards: shards, Workers: 1,
				ShardTimeout: 60 * time.Second,
				MaxInFlight:  4 * sessions,
			})
			tsc := httptest.NewServer(coord)
			defer func() {
				tsc.Close()
				_ = coord.Close()
			}()
			cc := serverclient.New(tsc.URL, tsc.Client())
			if err := cc.CreateTableDist(ctx, "interact", wireFields, wireRows, "", "shard"); err != nil {
				return fmt.Errorf("serve: shards=%d ingest: %w", shards, err)
			}

			// Equality gate (serial, untimed): the scattered base result and
			// every distinct bar's scattered trace vs in-process execution.
			gs, err := cc.NewSession(ctx)
			if err != nil {
				return err
			}
			baseRes, err := gs.Run(ctx, "view1", serverclient.QueryRequest{SQL: baseSQL})
			if err != nil {
				return fmt.Errorf("serve: shards=%d base: %w", shards, err)
			}
			if err := diffServed(baseRes, ref); err != nil {
				return fmt.Errorf("serve: shards=%d base diverges from single-node execution: %w", shards, err)
			}
			for bar, want := range wantBar {
				got, err := gs.Trace(ctx, "view1", traceReq(bar))
				if err != nil {
					return fmt.Errorf("serve: shards=%d gate trace bar %d: %w", shards, bar, err)
				}
				if err := diffServed(got, want); err != nil {
					return fmt.Errorf("serve: shards=%d trace of bar %d diverges from single-node execution: %w", shards, bar, err)
				}
			}
			if err := gs.Close(ctx); err != nil {
				return err
			}

			// Timed concurrent load, one warmup round then the measured round.
			shardRun := func() ([]float64, error) {
				var mu sync.Mutex
				var all []float64
				var wg sync.WaitGroup
				errs := make(chan error, sessions)
				for s := 0; s < sessions; s++ {
					s := s
					wg.Add(1)
					go func() {
						defer wg.Done()
						sess, err := cc.NewSession(ctx)
						if err != nil {
							errs <- err
							return
						}
						defer sess.Close(ctx)
						if _, err := sess.Run(ctx, "view1", serverclient.QueryRequest{SQL: baseSQL}); err != nil {
							errs <- fmt.Errorf("shard session %d base: %w", s, err)
							return
						}
						var local []float64
						for i := 0; i < interactions; i++ {
							t1 := time.Now()
							if _, err := sess.Trace(ctx, "view1", traceReq(barFor(s, i))); err != nil {
								errs <- fmt.Errorf("shard session %d trace %d: %w", s, i, err)
								return
							}
							local = append(local, ms(time.Since(t1)))
						}
						mu.Lock()
						all = append(all, local...)
						mu.Unlock()
						errs <- nil
					}()
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					if err != nil {
						return nil, err
					}
				}
				return all, nil
			}
			if _, err := shardRun(); err != nil {
				return err
			}
			measured, err := shardRun()
			if err != nil {
				return err
			}
			shardTraceMS[shards] = measured
			return nil
		}()
		if err != nil {
			return err
		}
	}

	type row struct {
		Op       string  `json:"op"`
		Sessions int     `json:"sessions"`
		Workers  int     `json:"workers"`
		Shards   int     `json:"shards,omitempty"`
		Requests int     `json:"requests"`
		P50      float64 `json:"p50_ms"`
		P95      float64 `json:"p95_ms"`
		P99      float64 `json:"p99_ms"`
		HitRate  float64 `json:"cache_hit_rate"`
	}
	report := struct {
		Tuples   int    `json:"tuples"`
		Sessions int    `json:"sessions"`
		Cores    int    `json:"cores"`
		Mode     string `json:"mode"`
		Rows     []row  `json:"rows"`
		Created  string `json:"created"`
	}{Tuples: n, Sessions: sessions, Cores: runtime.NumCPU(), Mode: "inject", Created: time.Now().Format(time.RFC3339)}

	mkRow := func(op string, ls []float64, hit float64) row {
		return row{
			Op: op, Sessions: sessions, Workers: workers, Requests: len(ls),
			P50: percentile(ls, 50), P95: percentile(ls, 95), P99: percentile(ls, 99),
			HitRate: hit,
		}
	}
	hitRate := 0.0
	if measured.traces > 0 {
		hitRate = float64(measured.cached) / float64(measured.traces)
	}
	report.Rows = append(report.Rows,
		mkRow("base", measured.baseMS, 0),
		mkRow("trace", measured.traceMS, hitRate),
		mkRow("trace-churn", churned.traceMS, 0),
		mkRow("trace-insitu", sweepMS, 0),
	)
	for _, shards := range shardCounts {
		r := mkRow(fmt.Sprintf("trace-shard%d", shards), shardTraceMS[shards], 0)
		r.Workers = 1 // per-shard worker count; total parallelism is shards×1
		r.Shards = shards
		report.Rows = append(report.Rows, r)
	}

	cfg.printf("Figure S (beyond-paper): served crossfilter sessions (%d concurrent, %d interactions each, %d tuples), request latency (ms)\n",
		sessions, interactions, n)
	cfg.printf("%-8s %-10s %-10s %-10s %-10s %-10s\n", "op", "requests", "p50", "p95", "p99", "cache-hit")
	for _, r := range report.Rows {
		cfg.printf("%-8s %-10d %-10.2f %-10.2f %-10.2f %-10.2f\n", r.Op, r.Requests, r.P50, r.P95, r.P99, r.HitRate)
	}

	if cfg.JSONDir != "" {
		path := filepath.Join(cfg.JSONDir, "BENCH_serve.json")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&report); err != nil {
			return err
		}
		cfg.printf("wrote %s\n", path)
	}
	return nil
}

// percentile returns the p-th percentile (nearest-rank) of ls.
func percentile(ls []float64, p int) float64 {
	if len(ls) == 0 {
		return 0
	}
	sorted := append([]float64(nil), ls...)
	sort.Float64s(sorted)
	rank := (len(sorted)*p + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// diffServed compares a served (JSON round-tripped) result against an
// in-process Result element-for-element. Float columns tolerate last-ulp
// drift; everything else must match exactly.
func diffServed(got *serverclient.Result, want *core.Result) error {
	if got.N != want.Out.N {
		return fmt.Errorf("rows: %d, want %d", got.N, want.Out.N)
	}
	for i := 0; i < want.Out.N; i++ {
		for c, f := range want.Out.Schema {
			switch f.Type {
			case storage.TInt:
				if got.Rows[i][c] != want.Out.Int(c, i) {
					return fmt.Errorf("row %d col %s: %v, want %d", i, f.Name, got.Rows[i][c], want.Out.Int(c, i))
				}
			case storage.TFloat:
				g, ok := got.Rows[i][c].(float64)
				w := want.Out.Float(c, i)
				if !ok || (g != w && math.Abs(g-w) > 1e-9*math.Max(math.Abs(g), math.Abs(w))) {
					return fmt.Errorf("row %d col %s: %v, want %v", i, f.Name, got.Rows[i][c], w)
				}
			default:
				if got.Rows[i][c] != want.Out.Str(c, i) {
					return fmt.Errorf("row %d col %s: %v, want %q", i, f.Name, got.Rows[i][c], want.Out.Str(c, i))
				}
			}
		}
	}
	return nil
}
