package main

import (
	"fmt"
	"strings"
	"time"

	"smoke/internal/core"
	"smoke/internal/exec"
	"smoke/internal/expr"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/plan"
	"smoke/internal/pool"
	"smoke/internal/sql"
	"smoke/internal/storage"
)

// Traced passes of the two in-process workloads. Each replayed op is a root
// span around the call the timed window makes (opaque), and under it the
// calls into the layers below that together do the same work, replayed.
// trace.coverage_frac is how much of the opaque call those calls explain.

// inprocTracer carries what the span helpers share.
type inprocTracer struct {
	rec      *recorder
	db       *core.DB
	pool     *pool.Pool
	req      int
	coverage []float64 // per op: children / root
	tracedMS map[string][]float64
}

func newInprocTracer(db *core.DB, pl *pool.Pool) *inprocTracer {
	return &inprocTracer{rec: newRecorder(), db: db, pool: pl, tracedMS: map[string][]float64{}}
}

func (t *inprocTracer) popts(mode ops.CaptureMode, compress bool) exec.PlanOpts {
	return exec.PlanOpts{Mode: mode, Compress: compress, Workers: workers, Pool: t.pool}
}

// cover records how much of root its direct children explain.
func (t *inprocTracer) cover(root, firstChild int) {
	var parts int64
	for _, s := range t.rec.spans[firstChild:] {
		if s.Parent == root {
			parts += s.durNS()
		}
	}
	if d := t.rec.spans[root-1].durNS(); d > 0 {
		t.coverage = append(t.coverage, float64(parts)/float64(d))
	}
}

// groupBy traces one SQL group-by the way capture-olap runs it: the opaque
// sql.Compile + Query.Run, then parse, lower, optimize, execute — and under
// execute, the hash aggregation and (compressed) the encode.
func (t *inprocTracer) groupBy(kind, stmt string, rel *storage.Relation, key string, mode ops.CaptureMode, compress bool) error {
	t.req++
	var err error
	root := t.rec.call(t.req, 0, "core", "Query.Run "+kind, func() {
		var q *core.Query
		if q, err = sql.Compile(t.db, stmt); err == nil {
			_, err = q.Run(core.CaptureOptions{Mode: mode, Compress: compress})
		}
	})
	if err != nil {
		return err
	}
	t.tracedMS["Query.Run "+kind] = append(t.tracedMS["Query.Run "+kind], float64(t.rec.spans[root-1].durNS())/1e6)
	first := len(t.rec.spans)
	var st *sql.Stmt
	var node, opt plan.Node
	t.rec.call(t.req, root, "sql", "Parse", func() { st, err = sql.Parse(stmt) })
	if err == nil {
		t.rec.call(t.req, root, "sql", "Lower", func() { node, err = sql.Lower(t.db, st) })
	}
	if err != nil {
		return err
	}
	t.rec.call(t.req, root, "plan", "Optimize", func() { opt = plan.OptimizeNoTrace(node, plan.Opts{Catalog: t.db.Catalog()}) })
	e := t.rec.call(t.req, root, "exec", "RunPlan", func() { _, err = exec.RunPlan(opt, t.popts(mode, compress)) })
	if err != nil {
		return err
	}
	t.cover(root, first)

	under := len(t.rec.spans)
	spec := ops.GroupBySpec{Keys: []string{key}, Aggs: []ops.AggSpec{
		{Fn: ops.Count, Name: "cnt"}, {Fn: ops.Sum, Arg: expr.C("v"), Name: "sv"}}}
	var agg ops.AggResult
	t.rec.call(t.req, e, "ops", "HashAgg", func() {
		agg, err = ops.HashAgg(rel, nil, spec, ops.AggOpts{Mode: mode, Dirs: ops.CaptureBoth, Workers: workers, Pool: t.pool})
	})
	if err != nil {
		return err
	}
	if compress && agg.BW != nil {
		t.rec.call(t.req, e, "lineage", "EncodeRidIndex", func() { _ = lineage.EncodeRidIndex(agg.BW) })
	}
	rebaseSequential(t.rec, under, e)
	rebaseSequential(t.rec, first, root)
	return nil
}

// resultTrace traces one Result.Trace: the opaque call, then what answers
// it — an index read for a captured result, plan + optimize + re-execution
// for a lazy one.
func (t *inprocTracer) resultTrace(kind string, res *core.Result, dir core.TraceDir, table string, seeds []core.Rid) error {
	t.req++
	var err error
	seed := core.Rids(seeds...)
	root := t.rec.call(t.req, 0, "core", "Result.Trace "+kind, func() { _, err = res.Trace(dir, table, seed) })
	if err != nil {
		return err
	}
	t.tracedMS["Result.Trace "+kind] = append(t.tracedMS["Result.Trace "+kind], float64(t.rec.spans[root-1].durNS())/1e6)
	first := len(t.rec.spans)
	if res.TraceStrategy(table, dir) == core.StrategyLazy {
		var node plan.Node
		t.rec.call(t.req, root, "core", "Query.Plan", func() { node, err = t.db.Query().Trace(res, dir, table, seed).Plan() })
		if err != nil {
			return err
		}
		t.rec.call(t.req, root, "plan", "OptimizeNoTrace", func() { node = plan.OptimizeNoTrace(node, plan.Opts{Catalog: t.db.Catalog()}) })
		t.rec.call(t.req, root, "exec", "TraceRids", func() { _, err = exec.TraceRids(node, t.popts(ops.None, false)) })
	} else {
		var rids []lineage.Rid
		name, read := "Capture.Backward", res.Capture().Backward
		if dir == core.TraceForward {
			name, read = "Capture.Forward", res.Capture().Forward
		}
		id := t.rec.call(t.req, root, "lineage", name, func() { rids, err = read(table, seeds) })
		t.rec.count(id, "rids_out", int64(len(rids)))
	}
	if err != nil {
		return err
	}
	t.cover(root, first)
	rebaseSequential(t.rec, first, root)
	return nil
}

// consume traces one lineage-consuming query: the opaque
// Query.Trace(...).GroupBy(...).Run, then plan, optimize and execute, and
// under execute the lineage read and the re-aggregation.
func (t *inprocTracer) consume(kind string, res *core.Result, table string, seeds []core.Rid, mode ops.CaptureMode) error {
	t.req++
	build := func() *core.Query {
		return t.db.Query().Trace(res, core.TraceBackward, table, core.Rids(seeds...)).
			GroupBy("b").Agg(ops.Count, nil, "cnt").Agg(ops.Sum, expr.C("v"), "sv")
	}
	var err error
	root := t.rec.call(t.req, 0, "core", "Query.Trace.Run "+kind, func() { _, err = build().Run(core.CaptureOptions{Mode: mode}) })
	if err != nil {
		return err
	}
	first := len(t.rec.spans)
	var node plan.Node
	t.rec.call(t.req, root, "core", "Query.Plan", func() { node, err = build().Plan() })
	if err != nil {
		return err
	}
	t.rec.call(t.req, root, "plan", "OptimizeNoTrace", func() { node = plan.OptimizeNoTrace(node, plan.Opts{Catalog: t.db.Catalog()}) })
	e := t.rec.call(t.req, root, "exec", "RunPlan", func() { _, err = exec.RunPlan(node, t.popts(mode, false)) })
	if err != nil {
		return err
	}
	t.cover(root, first)
	if res.TraceStrategy(table, core.TraceBackward) != core.StrategyLazy {
		under := len(t.rec.spans)
		var rids []lineage.Rid
		t.rec.call(t.req, e, "lineage", "Capture.Backward", func() { rids, err = res.Capture().Backward(table, seeds) })
		if err != nil {
			return err
		}
		spec := ops.GroupBySpec{Keys: []string{"b"}, Aggs: []ops.AggSpec{
			{Fn: ops.Count, Name: "cnt"}, {Fn: ops.Sum, Arg: expr.C("v"), Name: "sv"}}}
		t.rec.call(t.req, e, "ops", "HashAgg", func() {
			_, err = ops.HashAgg(res.BaseRelation(table), rids, spec, ops.AggOpts{Mode: mode, Dirs: ops.CaptureBoth, Workers: workers, Pool: t.pool, DupRids: true})
		})
		if err != nil {
			return err
		}
		rebaseSequential(t.rec, under, e)
	}
	rebaseSequential(t.rec, first, root)
	return nil
}

// finish fills the trace.* metrics and the self-time shares. untraced maps a
// root span name to the same op's untraced per-op wall times.
func (t *inprocTracer) finish(out *outcome, untraced map[string][]float64) {
	out.rec = t.rec
	out.layer["trace.coverage_frac"] = median(t.coverage)
	var overhead []float64
	for name, traced := range t.tracedMS {
		if u := median(untraced[name]); u > 0 {
			overhead = append(overhead, (median(traced)-u)/u)
		}
	}
	out.layer["trace.overhead_frac"] = median(overhead)
	out.shares = map[string]map[string]float64{"all ops": layerShares(t.rec.spans, "")}
	roots := map[string]bool{}
	for _, s := range t.rec.spans {
		if s.Parent == 0 && !roots[s.Name] {
			roots[s.Name] = true
			out.shares[s.Name] = layerShares(t.rec.spans, s.Name)
		}
	}
}

// ---- capture-olap ----------------------------------------------------------

func (r *olapRun) tracedRun(cfg config, out *outcome) error {
	m := out.layer
	probe := startRuntimeProbe()
	w, err := r.loop(cfg.dur(0.3))
	if err != nil {
		return err
	}
	out.attempted, out.failed, _ = w.counts()
	for k, v := range probe.finish(out.attempted) {
		m[k] = v
	}

	// The traced replay: cycles of the same passes, op by op.
	t := newInprocTracer(r.db, r.pool)
	untraced := map[string][]float64{}
	deadline := time.Now().Add(cfg.dur(0.3))
	for cycle := 0; cycle < 200 && time.Now().Before(deadline); cycle++ {
		for _, mode := range olapModes {
			for i, spec := range r.specs {
				t.req++
				var err error
				t.rec.call(t.req, 0, "exec", "exec.Run "+olapTPCH[i]+" "+mode.name, func() {
					_, err = exec.Run(spec, exec.Opts{Mode: mode.mode, Dirs: ops.CaptureBoth, Workers: workers, Pool: r.pool, Compress: mode.compress})
				})
				if err != nil {
					return err
				}
			}
			results := make([]*core.Result, len(olapTables))
			for ti, table := range olapTables {
				rel, err := r.db.Table(table)
				if err != nil {
					return err
				}
				if err := t.groupBy(mode.name, olapGroupBySQL(table), rel, "z", mode.mode, mode.compress); err != nil {
					return err
				}
				if results[ti], err = runView(r.db, olapGroupBySQL(table), core.CaptureOptions{Mode: mode.mode, Compress: mode.compress}); err != nil {
					return err
				}
			}
			for _, set := range r.seeds {
				if err := t.resultTrace(mode.name, results[0], core.TraceBackward, olapTables[0], set); err != nil {
					return err
				}
			}
		}
	}
	// Untraced per-op wall of the same ops, from the counter window.
	for _, mode := range olapModes {
		untraced["Result.Trace "+mode.name] = w.byClass(mode.trace)
	}
	t.finish(out, untraced)

	// exec on the four TPC-H plans; ops on the TPC-H join and the group-by table.
	for i, name := range olapTPCH {
		for _, mode := range olapModes[:2] {
			key := fmt.Sprintf("exec.tpch_%s_%s_ms", strings.ToLower(name), mode.name)
			m[key] = median(t.rec.durationsMS("exec", "exec.Run "+olapTPCH[i]+" "+mode.name))
		}
	}
	join := func(dirs ops.Directions) float64 {
		return medianMS(probeReps, func() {
			_, e := ops.HashJoinPKFK(r.tp.Orders, "o_orderkey", nil, r.tp.Lineitem, "l_orderkey", nil,
				ops.JoinOpts{Dirs: dirs, Materialize: true, Workers: workers, Pool: r.pool})
			if e != nil && err == nil {
				err = e
			}
		})
	}
	m["ops.joinpkfk_none_ms"], m["ops.joinpkfk_inject_ms"] = join(0), join(ops.CaptureBoth)
	if err != nil {
		return err
	}
	rel, err := r.db.Table("zipf")
	if err != nil {
		return err
	}
	kit := probeKit{
		db: r.db, pool: r.pool, stmt: olapGroupBySQL("zipf"), table: "zipf", rel: rel,
		filter: expr.LtE(expr.C("v"), expr.F(50)), key: "z", consumeKey: "z", seeds: r.seeds[0],
	}
	for i := 0; i < rel.N; i += max(1, rel.N/1000) {
		kit.fwd = append(kit.fwd, core.Rid(i))
	}
	return kit.measure(m)
}

// ---- trace-sweep -----------------------------------------------------------

func (r *sweepRun) tracedRun(cfg config, out *outcome) error {
	m := out.layer
	probe := startRuntimeProbe()
	w, err := r.loop(cfg.dur(0.3))
	if err != nil {
		return err
	}
	out.attempted, out.failed, _ = w.counts()
	for k, v := range probe.finish(out.attempted) {
		m[k] = v
	}

	pl := pool.New(workers)
	defer pl.Close()
	t := newInprocTracer(r.db, pl)
	deadline := time.Now().Add(cfg.dur(0.3))
	for pass := 0; pass < 200 && time.Now().Before(deadline); pass++ {
		for rep, sr := range sweepReps {
			for _, st := range r.script {
				res, table := r.res[rep][st.table], sweepTables[st.table].name
				var err error
				switch st.kind {
				case stepBackward:
					err = t.resultTrace(sr.name, res, core.TraceBackward, table, st.seeds)
				case stepForward:
					err = t.resultTrace(sr.name, res, core.TraceForward, table, st.seeds)
				case stepConsume:
					err = t.consume(sr.name, res, table, st.seeds, ops.None)
				case stepConsumeInject:
					err = t.consume(sr.name, res, table, st.seeds, ops.Inject)
				}
				if err != nil {
					return err
				}
			}
		}
	}
	// The raw pass's trace steps are class trace in the counter window; the
	// other two passes report every step under their own class.
	t.finish(out, map[string][]float64{"Result.Trace raw": w.byClass(clsTrace)})

	table := sweepTables[0].name
	rel, err := r.db.Table(table)
	if err != nil {
		return err
	}
	kit := probeKit{
		db: r.db, pool: pl, stmt: "SELECT z, COUNT(*) AS cnt, SUM(v) AS sv FROM " + table + " GROUP BY z",
		table: table, rel: rel, filter: expr.LtE(expr.C("v"), expr.F(50)), key: "z", consumeKey: "b",
		seeds: r.script[0].seeds, fwd: r.script[3].seeds,
	}
	return kit.measure(m)
}
