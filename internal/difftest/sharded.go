package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"time"

	"smoke/internal/core"
	"smoke/internal/server"
	"smoke/internal/serverclient"
	"smoke/internal/shard"
	"smoke/internal/storage"
)

// ShardCounts is the scatter matrix: 1 (pure proxy — must be byte-exact
// single-node behavior), 2, and 4 (slices meet mid-group, so every merge
// primitive is exercised).
var ShardCounts = []int{1, 2, 4}

// shardStrategies is the capture-strategy axis of the sharded matrix. "auto"
// is deliberately absent: its resolution reads per-node runtime counters, and
// the coordinator fences the (rare) traces whose row order depends on it
// rather than guessing.
var shardStrategies = []string{"eager", "lazy", "hybrid"}

// CheckSharded is the horizontal-scaling differential gate: randomized SPJA
// queries and bound backward/forward traces (rid- and predicate-seeded, plain
// and consuming) must answer element-identically on a sharded coordinator —
// for every shard count × capture strategy × index representation — as on a
// single node. It drives both tiers through their public HTTP API, so the
// whole scatter/gather path is under test: routing and fencing read off the
// coordinator's optimized plan, seed translation, two-phase merge, the
// plan layer's scan-vs-index trace decision taken with global seed counts,
// and slot rebasing.
func CheckSharded(seed int64, queries int) error {
	r := rand.New(rand.NewSource(seed))
	ds := GenDataset(r)
	defer ds.DB.Close()
	dimFields, dimRows := wireTable(ds.Dim)
	factFields, factRows := wireTable(ds.Fact)

	ctx := context.Background()
	ref, closeRef, err := startRefServer()
	if err != nil {
		return err
	}
	defer closeRef()
	coords := make([]*serverclient.Client, len(ShardCounts))
	for i, n := range ShardCounts {
		c, closeCoord, err := startCoordServer(n)
		if err != nil {
			return err
		}
		defer closeCoord()
		coords[i] = c
	}
	ingestAll := func(c *serverclient.Client, factDist string) error {
		if err := c.CreateTableDist(ctx, "dim", dimFields, dimRows, "g", "replicate"); err != nil {
			return fmt.Errorf("difftest: sharded seed %d: ingest dim: %w", seed, err)
		}
		if err := c.CreateTableDist(ctx, "fact", factFields, factRows, "", factDist); err != nil {
			return fmt.Errorf("difftest: sharded seed %d: ingest fact: %w", seed, err)
		}
		return nil
	}
	if err := ingestAll(ref, ""); err != nil {
		return err
	}
	for _, c := range coords {
		if err := ingestAll(c, "shard"); err != nil {
			return err
		}
	}

	for _, strategy := range shardStrategies {
		for _, compress := range []bool{false, true} {
			cfg := fmt.Sprintf("strategy=%s compress=%v", strategy, compress)
			refSess, err := ref.NewSession(ctx)
			if err != nil {
				return fmt.Errorf("difftest: sharded seed %d %s: reference session: %w", seed, cfg, err)
			}
			sessions := make([]*serverclient.Session, len(coords))
			for i, c := range coords {
				if sessions[i], err = c.NewSession(ctx); err != nil {
					return fmt.Errorf("difftest: sharded seed %d %s shards=%d: session: %w", seed, cfg, ShardCounts[i], err)
				}
			}
			for qi := 0; qi < queries; qi++ {
				sqlText, keys := genShardSQL(r, ds)
				name := fmt.Sprintf("q%d", qi)
				req := serverclient.QueryRequest{SQL: sqlText, Strategy: strategy, Compress: compress}
				want, err := refSess.Run(ctx, name, req)
				if err != nil {
					return fmt.Errorf("difftest: sharded seed %d %s query %d (%s): reference run: %w", seed, cfg, qi, sqlText, err)
				}
				for i, sess := range sessions {
					got, err := sess.Run(ctx, name, req)
					if err != nil {
						return fmt.Errorf("difftest: sharded seed %d %s shards=%d query %d (%s): run: %w", seed, cfg, ShardCounts[i], qi, sqlText, err)
					}
					if err := diffWire(want, got); err != nil {
						return fmt.Errorf("difftest: sharded seed %d %s shards=%d query %d (%s): %w", seed, cfg, ShardCounts[i], qi, sqlText, err)
					}
				}
				for ti, tr := range genShardTraces(r, ds, keys, want.N) {
					wantT, err := refSess.Trace(ctx, name, tr)
					if err != nil {
						return fmt.Errorf("difftest: sharded seed %d %s query %d (%s) trace %d (%+v): reference: %w", seed, cfg, qi, sqlText, ti, tr, err)
					}
					for i, sess := range sessions {
						gotT, err := sess.Trace(ctx, name, tr)
						if err != nil {
							return fmt.Errorf("difftest: sharded seed %d %s shards=%d query %d (%s) trace %d (%+v): %w", seed, cfg, ShardCounts[i], qi, sqlText, ti, tr, err)
						}
						if err := diffWire(wantT, gotT); err != nil {
							return fmt.Errorf("difftest: sharded seed %d %s shards=%d query %d (%s) trace %d (%+v): %w", seed, cfg, ShardCounts[i], qi, sqlText, ti, tr, err)
						}
					}
				}
			}
			if err := refSess.Close(ctx); err != nil {
				return fmt.Errorf("difftest: sharded seed %d %s: reference session close: %w", seed, cfg, err)
			}
			for i, sess := range sessions {
				if err := sess.Close(ctx); err != nil {
					return fmt.Errorf("difftest: sharded seed %d %s shards=%d: session close: %w", seed, cfg, ShardCounts[i], err)
				}
			}
		}
	}
	return nil
}

// genShardSQL builds one randomized scatterable SPJA statement: a grouped
// aggregation over the sharded fact table, optionally joined against the
// replicated dim, optionally with a HAVING on the first group key — the
// optimizer sinks a key-only HAVING into a scan, so the plan layer admits it.
// COUNT(DISTINCT), HAVING on aggregates, ORDER BY, and LIMIT are fenced
// under scatter, so the generator stays inside the supported surface — the
// fences themselves are pinned by the plan and shard packages' own tests.
func genShardSQL(r *rand.Rand, ds *Dataset) (string, []string) {
	aggs := "COUNT(*) AS cnt"
	if r.Intn(2) == 0 {
		aggs += ", SUM(v) AS sum_v"
	}
	if r.Intn(2) == 0 {
		aggs += ", MIN(v) AS min_v"
	}
	if r.Intn(3) == 0 {
		aggs += ", AVG(v) AS avg_v"
	}
	where := ""
	switch r.Intn(4) {
	case 0:
	case 1:
		where = fmt.Sprintf(" WHERE v <= %d", r.Intn(100))
	case 2:
		where = fmt.Sprintf(" WHERE b = %d", r.Intn(6))
	default:
		where = fmt.Sprintf(" WHERE s = 'S1' OR v > %d", r.Intn(80))
	}
	var from string
	var keys []string
	if r.Intn(2) == 0 {
		from, keys = "fact", [][]string{{"b"}, {"s"}, {"k"}, {"b", "s"}}[r.Intn(4)]
	} else {
		// Joins write the sharded fact LAST — the probe side. That is the
		// only join shape the coordinator admits, and it makes every order
		// additive.
		from, keys = "dim JOIN fact ON fact.k = dim.g", []string{[]string{"label", "b"}[r.Intn(2)]}
	}
	having := ""
	if r.Intn(3) == 0 {
		having = " HAVING " + keySeedPred(r, keys[0])
	}
	cols := strings.Join(keys, ", ")
	return fmt.Sprintf("SELECT %s, %s FROM %s%s GROUP BY %s%s", cols, aggs, from, where, cols, having), keys
}

// genShardTraces builds the trace battery for one retained result: explicit
// global rids (the seed-translation path), trace-all and key-predicate seeds
// (the plan layer's scan-vs-index decision on single-table bases; per-seed
// order-exact gather on probe-last joins), a non-key predicate seed (always per-seed), filtered
// and consuming variants, and forward traces both rid- and predicate-seeded.
// outN gates rid selection so every seed is globally valid.
func genShardTraces(r *rand.Rand, ds *Dataset, keys []string, outN int) []serverclient.TraceRequest {
	trs := []serverclient.TraceRequest{
		{Direction: "forward", Table: "fact", Rids: []int64{int64(r.Intn(ds.FactN)), int64(r.Intn(ds.FactN))}},
		{Direction: "forward", Table: "fact", SeedWhere: fmt.Sprintf("v < %d", r.Intn(60)), Where: "cnt > 1"},
	}
	trs = append(trs,
		serverclient.TraceRequest{Direction: "backward", Table: "fact"},
		serverclient.TraceRequest{Direction: "backward", Table: "fact", SeedWhere: fmt.Sprintf("cnt >= %d", 1+r.Intn(20))},
	)
	if outN > 0 {
		rids := []int64{int64(r.Intn(outN))}
		if outN > 1 {
			rids = append(rids, int64(r.Intn(outN)))
		}
		trs = append(trs,
			serverclient.TraceRequest{Direction: "backward", Table: "fact", Rids: rids},
			serverclient.TraceRequest{Direction: "backward", Table: "fact", Rids: rids, Where: fmt.Sprintf("b < %d", 1+r.Intn(8))},
			serverclient.TraceRequest{Direction: "backward", Table: "fact", Rids: rids,
				GroupBy: []string{"b"}, Aggs: []serverclient.Agg{{Fn: "count", Name: "n"}, {Fn: "sum", Arg: "v", Name: "sv"}}},
		)
	}
	if pred := keySeedPred(r, keys[0]); pred != "" {
		trs = append(trs,
			serverclient.TraceRequest{Direction: "backward", Table: "fact", SeedWhere: pred},
			serverclient.TraceRequest{Direction: "backward", Table: "fact", SeedWhere: pred,
				GroupBy: []string{"s"}, Aggs: []serverclient.Agg{{Fn: "count", Name: "n"}, {Fn: "max", Arg: "v", Name: "mx"}}},
		)
	}
	return trs
}

// keySeedPred builds a predicate over a group-key column — the seed shape
// whose trace the plan layer collapses to a scan, and the HAVING shape it
// sinks into one.
func keySeedPred(r *rand.Rand, key string) string {
	switch key {
	case "b", "k":
		return fmt.Sprintf("%s >= %d", key, r.Intn(6))
	case "s":
		return fmt.Sprintf("s = 'S%d'", r.Intn(3))
	case "label":
		return fmt.Sprintf("label = 'L%d'", r.Intn(4))
	}
	return ""
}

// diffWire compares two wire results: schema, cardinality, group counts, and
// every cell — ints and strings exact, floats within relative 1e-9 (parallel
// and merged float addition reassociates).
func diffWire(want, got *serverclient.Result) error {
	if got.N != want.N || len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("rows: %d, want %d", got.N, want.N)
	}
	if len(got.Columns) != len(want.Columns) {
		return fmt.Errorf("columns: %d, want %d", len(got.Columns), len(want.Columns))
	}
	for i := range want.Columns {
		if got.Columns[i] != want.Columns[i] || got.Types[i] != want.Types[i] {
			return fmt.Errorf("schema col %d: %s/%s, want %s/%s", i, got.Columns[i], got.Types[i], want.Columns[i], want.Types[i])
		}
	}
	if len(got.GroupCounts) != len(want.GroupCounts) {
		return fmt.Errorf("group counts: %d, want %d", len(got.GroupCounts), len(want.GroupCounts))
	}
	for i := range want.GroupCounts {
		if got.GroupCounts[i] != want.GroupCounts[i] {
			return fmt.Errorf("group count %d: %d, want %d", i, got.GroupCounts[i], want.GroupCounts[i])
		}
	}
	for ri := range want.Rows {
		for ci := range want.Rows[ri] {
			w, g := want.Rows[ri][ci], got.Rows[ri][ci]
			if wf, ok := w.(float64); ok {
				gf, ok := g.(float64)
				if !ok {
					return fmt.Errorf("row %d col %d: %T, want float64", ri, ci, g)
				}
				if !floatsClose(wf, gf) {
					return fmt.Errorf("row %d col %d: %v, want %v", ri, ci, gf, wf)
				}
				continue
			}
			if g != w {
				return fmt.Errorf("row %d col %d: %v (%T), want %v (%T)", ri, ci, g, g, w, w)
			}
		}
	}
	return nil
}

// wireTable converts a generated relation to the HTTP ingest shape.
func wireTable(rel *storage.Relation) ([]serverclient.Field, [][]any) {
	fields := make([]serverclient.Field, len(rel.Schema))
	for i, f := range rel.Schema {
		switch f.Type {
		case storage.TInt:
			fields[i] = serverclient.Field{Name: f.Name, Type: "int"}
		case storage.TFloat:
			fields[i] = serverclient.Field{Name: f.Name, Type: "float"}
		default:
			fields[i] = serverclient.Field{Name: f.Name, Type: "string"}
		}
	}
	rows := make([][]any, rel.N)
	for r := 0; r < rel.N; r++ {
		row := make([]any, len(rel.Schema))
		for c, f := range rel.Schema {
			switch f.Type {
			case storage.TInt:
				row[c] = rel.Cols[c].Ints[r]
			case storage.TFloat:
				row[c] = rel.Cols[c].Floats[r]
			default:
				row[c] = rel.Cols[c].Strs[r]
			}
		}
		rows[r] = row
	}
	return fields, rows
}

// startRefServer spins up the single-node reference over HTTP.
func startRefServer() (*serverclient.Client, func(), error) {
	db := core.Open(core.WithWorkers(3))
	srv := server.New(server.Config{DB: db})
	ts := httptest.NewServer(srv)
	closeAll := func() {
		ts.Close()
		_ = srv.Close()
		db.Close()
	}
	return serverclient.New(ts.URL, nil), closeAll, nil
}

// startCoordServer spins up an n-shard coordinator over HTTP.
func startCoordServer(n int) (*serverclient.Client, func(), error) {
	coord := shard.New(shard.Config{Shards: n, ShardTimeout: 30 * time.Second})
	ts := httptest.NewServer(coord)
	closeAll := func() {
		ts.Close()
		_ = coord.Close()
	}
	return serverclient.New(ts.URL, nil), closeAll, nil
}
