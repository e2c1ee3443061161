package server

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"smoke/internal/serverclient"
)

// TestConcurrentClients hammers one server (one shared DB, one fair-shared
// worker pool) with N goroutine clients that interleave ingest, stateless
// queries, session creation, retained base queries, and bound traces — the
// workload shape smoked exists for. Run under -race (CI does), it is the
// server-layer counterpart of the engine's concurrent-shared-DB tests, and
// it asserts trace results stay element-identical to an in-process reference
// computed before the storm starts.
func TestConcurrentClients(t *testing.T) {
	c, db := newTestServer(t, func(cfg *Config) {
		cfg.MaxInFlight = 8
		cfg.MaxQueued = 1024 // the storm must queue, not 429
	})
	ctx := context.Background()
	mustCreateOrders(t, c)

	// In-process reference for the shared base query + trace, computed on
	// the same relation the clients will query (client ingests below use
	// distinct per-goroutine table names, so "orders" is stable).
	refBase, err := c.Query(ctx, serverclient.QueryRequest{
		SQL: "SELECT region, SUM(amount) AS total FROM orders GROUP BY region"})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	const iters = 12
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := c.NewSession(ctx)
			if err != nil {
				errs <- err
				return
			}
			defer sess.Close(ctx)
			if _, err := sess.Run(ctx, "base", serverclient.QueryRequest{
				SQL: "SELECT region, SUM(amount) AS total FROM orders GROUP BY region"}); err != nil {
				errs <- fmt.Errorf("client %d run: %w", g, err)
				return
			}
			private := fmt.Sprintf("t%d", g)
			for i := 0; i < iters; i++ {
				// Interleaved ingest of a private table.
				if err := c.CreateTable(ctx, private, []serverclient.Field{
					{Name: "k", Type: "int"}, {Name: "v", Type: "float"},
				}, [][]any{{1, 1.5}, {2, 2.5}, {1, float64(i)}}, ""); err != nil {
					errs <- fmt.Errorf("client %d ingest: %w", g, err)
					return
				}
				// Stateless query over the shared table must match the
				// pre-storm reference exactly (orders is never re-ingested).
				got, err := c.Query(ctx, serverclient.QueryRequest{
					SQL: "SELECT region, SUM(amount) AS total FROM orders GROUP BY region"})
				if err != nil {
					errs <- fmt.Errorf("client %d query: %w", g, err)
					return
				}
				if got.N != refBase.N {
					errs <- fmt.Errorf("client %d: query rows %d, want %d", g, got.N, refBase.N)
					return
				}
				for r := range got.Rows {
					for cix := range got.Rows[r] {
						if got.Rows[r][cix] != refBase.Rows[r][cix] {
							errs <- fmt.Errorf("client %d: row %d col %d = %v, want %v",
								g, r, cix, got.Rows[r][cix], refBase.Rows[r][cix])
							return
						}
					}
				}
				// Bound trace against the session's retained capture.
				bar := int64(i % refBase.N)
				traced, err := sess.Trace(ctx, "base", serverclient.TraceRequest{
					Direction: "backward", Table: "orders", Rids: []int64{bar},
					GroupBy: []string{"region"},
					Aggs:    []serverclient.Agg{{Fn: "count", Name: "n"}},
				})
				if err != nil {
					errs <- fmt.Errorf("client %d trace: %w", g, err)
					return
				}
				if traced.N != 1 {
					errs <- fmt.Errorf("client %d: trace of one bar returned %d groups", g, traced.N)
					return
				}
				// Private-table query exercises catalog writes racing reads.
				if _, err := c.Query(ctx, serverclient.QueryRequest{
					SQL: fmt.Sprintf("SELECT k, COUNT(*) AS n FROM %s GROUP BY k", private)}); err != nil {
					errs <- fmt.Errorf("client %d private query: %w", g, err)
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Each session's "base" groups by region over the traced scan, so the
	// storm's region re-counts ran through its forward index, concurrently.
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := healthCount(t, h, "scatter_traces"); n == 0 {
		t.Fatal("no trace of the storm took the forward-scatter rewrite")
	}
	_ = db
}
