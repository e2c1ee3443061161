package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"smoke/internal/core"
	"smoke/internal/diskstore"
	"smoke/internal/exec"
	"smoke/internal/expr"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/plan"
	"smoke/internal/pool"
	"smoke/internal/sql"
	"smoke/internal/storage"
)

// The traced run measures each layer from outside: the benchmark calls the
// layer's public functions on the workload's own statements, relations and
// seeds and times the calls. No file under internal/ carries a timer.

// probeReps is how often a layer call is repeated for its median.
const probeReps = 7

// probeKit is what a workload hands the layer probes.
type probeKit struct {
	db         *core.DB
	pool       *pool.Pool
	stmt       string // the workload's group-by statement
	table      string
	rel        *storage.Relation
	filter     expr.Expr  // what ops.Select evaluates: the statement's WHERE, or a stand-in of similar selectivity
	key        string     // the statement's group-by column
	consumeKey string     // the column its consuming queries re-aggregate by
	seeds      []core.Rid // output rids its traces start from
	fwd        []core.Rid // base rids its forward traces start from
}

// measure fills the sql, plan, core, exec, ops, lineage and pool metrics.
func (k probeKit) measure(m map[string]float64) error {
	var err error
	fail := func(what string, e error) {
		if e != nil && err == nil {
			err = fmt.Errorf("layer probe %s: %w", what, e)
		}
	}
	popts := func(mode ops.CaptureMode, compress bool, w int) exec.PlanOpts {
		o := exec.PlanOpts{Mode: mode, Compress: compress, Workers: w}
		if w > 1 {
			o.Pool = k.pool
		}
		return o
	}

	// sql, plan
	var st *sql.Stmt
	m["sql.parse_ms"] = medianMS(probeReps, func() { var e error; st, e = sql.Parse(k.stmt); fail("sql.Parse", e) })
	if err != nil {
		return err
	}
	var node plan.Node
	m["sql.lower_ms"] = medianMS(probeReps, func() { var e error; node, e = sql.Lower(k.db, st); fail("sql.Lower", e) })
	if err != nil {
		return err
	}
	var opt plan.Node
	var fired []plan.Trace
	m["plan.optimize_ms"] = medianMS(probeReps, func() { opt, fired = plan.Optimize(node, plan.Opts{Catalog: k.db.Catalog()}) })
	m["plan.rules_fired"] = float64(len(fired))
	m["plan.fingerprint_ms"] = medianMS(probeReps, func() { _ = plan.Fingerprint(opt) })

	// exec, pool
	run := func(mode ops.CaptureMode, compress bool, w int) float64 {
		return medianMS(probeReps, func() { _, e := exec.RunPlan(opt, popts(mode, compress, w)); fail("exec.RunPlan", e) })
	}
	none, inject := run(ops.None, false, workers), run(ops.Inject, false, workers)
	m["exec.run_none_ms"], m["exec.run_inject_ms"] = none, inject
	m["exec.run_compress_ms"] = run(ops.Inject, true, workers)
	m["exec.capture_self_ms"] = inject - none
	m["exec.rows_per_s"] = float64(k.rel.N) / (inject / 1000)
	m["pool.speedup_w2_none"] = run(ops.None, false, 1) / none
	m["pool.speedup_w2_inject"] = run(ops.Inject, false, 1) / inject
	if err != nil {
		return err
	}

	// core
	var raw, enc, lazy *core.Result
	compileRun := func(opts core.CaptureOptions, dst **core.Result) func() {
		return func() {
			q, e := sql.CompileStmt(k.db, st)
			if e == nil {
				*dst, e = q.Run(opts)
			}
			fail("Query.Run", e)
		}
	}
	m["core.run_ms"] = medianMS(probeReps, compileRun(core.CaptureOptions{Mode: ops.Inject}, &raw))
	compileRun(core.CaptureOptions{Mode: ops.Inject, Compress: true}, &enc)()
	compileRun(core.CaptureOptions{Strategy: core.StrategyLazy}, &lazy)()
	if err != nil {
		return err
	}
	m["core.result_mem_bytes"] = float64(raw.MemBytes())
	seed := core.Rids(k.seeds...)
	m["core.trace_eager_ms"] = medianMS(probeReps, func() { _, e := raw.Trace(core.TraceBackward, k.table, seed); fail("Result.Trace eager", e) })
	m["core.trace_lazy_ms"] = medianMS(probeReps, func() { _, e := lazy.Trace(core.TraceBackward, k.table, seed); fail("Result.Trace lazy", e) })
	m["core.consume_ms"] = medianMS(probeReps, func() {
		_, e := k.db.Query().Trace(raw, core.TraceBackward, k.table, seed).GroupBy(k.consumeKey).Agg(ops.Count, nil, "cnt").Run(core.CaptureOptions{})
		fail("Query.Trace.Run", e)
	})
	traceNode, e := k.db.Query().Trace(raw, core.TraceBackward, k.table, seed).Plan()
	fail("Query.Plan", e)
	if err != nil {
		return err
	}
	traceNode = plan.OptimizeNoTrace(traceNode, plan.Opts{Catalog: k.db.Catalog()})
	m["exec.trace_rids_ms"] = medianMS(probeReps, func() { _, e := exec.TraceRids(traceNode, popts(ops.None, false, workers)); fail("exec.TraceRids", e) })

	// ops
	pred, e := expr.CompilePred(k.filter, k.rel, nil)
	fail("expr.CompilePred", e)
	if err != nil {
		return err
	}
	sel := func(mode ops.CaptureMode) float64 {
		return medianMS(probeReps, func() {
			ops.Select(k.rel.N, pred, ops.SelectOpts{Mode: mode, Dirs: ops.CaptureBoth, Workers: workers, Pool: k.pool})
		})
	}
	m["ops.select_none_ms"], m["ops.select_inject_ms"] = sel(ops.None), sel(ops.Inject)
	spec := ops.GroupBySpec{Keys: []string{k.key}, Aggs: []ops.AggSpec{{Fn: ops.Count, Name: "cnt"}}}
	agg := func(mode ops.CaptureMode) float64 {
		return medianMS(probeReps, func() {
			_, e := ops.HashAgg(k.rel, nil, spec, ops.AggOpts{Mode: mode, Dirs: ops.CaptureBoth, Workers: workers, Pool: k.pool})
			fail("ops.HashAgg", e)
		})
	}
	m["ops.hashagg_none_ms"], m["ops.hashagg_inject_ms"], m["ops.hashagg_defer_ms"] = agg(ops.None), agg(ops.Inject), agg(ops.Defer)

	// lineage: a fresh raw capture per EncodeAll, since it encodes in place.
	var encodeMS []float64
	var rawCap, encCap *lineage.Capture
	for i := 0; i < probeReps && err == nil; i++ {
		pres, e := exec.RunPlan(opt, popts(ops.Inject, false, workers))
		fail("exec.RunPlan", e)
		if e != nil {
			break
		}
		if i == 0 {
			rawCap = pres.Capture
			m["lineage.raw_bytes"], m["lineage.edges"] = float64(rawCap.MemBytes()), float64(captureEdges(rawCap))
			continue
		}
		encCap = pres.Capture
		encodeMS = append(encodeMS, timeMS(encCap.EncodeAll))
	}
	if err != nil {
		return err
	}
	m["lineage.encode_ms"], m["lineage.encoded_bytes"] = median(encodeMS), float64(encCap.MemBytes())
	var traced int
	m["lineage.backward_raw_ms"] = medianMS(probeReps, func() {
		rids, e := rawCap.Backward(k.table, k.seeds)
		traced = len(rids)
		fail("Capture.Backward", e)
	})
	if ms := m["lineage.backward_raw_ms"]; ms > 0 {
		m["lineage.traced_rids_per_s"] = float64(traced) / (ms / 1000)
	}
	if ix, e := encCap.BackwardIndex(k.table); e == nil && ix.Kind == lineage.EncodedMany {
		m["lineage.backward_insitu_ms"] = medianMS(probeReps, func() { _ = ix.Enc.TraceInSitu(k.seeds) })
		m["lineage.backward_decode_ms"] = medianMS(probeReps, func() { _ = ix.Enc.TraceInSitu(k.seeds).AppendTo(nil) })
	}
	m["lineage.forward_raw_ms"] = medianMS(probeReps, func() { _, e := rawCap.Forward(k.table, k.fwd); fail("Capture.Forward", e) })
	m["lineage.forward_encoded_ms"] = medianMS(probeReps, func() { _, e := encCap.Forward(k.table, k.fwd); fail("Capture.Forward encoded", e) })
	return err
}

// diskstoreProbes times the disk tier's public calls on one retained
// result and its base table, in a store of their own under dir, and the two
// core restore paths on the segment it wrote.
func diskstoreProbes(db *core.DB, res *core.Result, rel *storage.Relation, dir string, m map[string]float64) error {
	storeDir, err := os.MkdirTemp(dir, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(storeDir)
	store, err := diskstore.Open(storeDir)
	if err != nil {
		return err
	}
	defer store.Close()
	fail := func(what string, e error) {
		if e != nil && err == nil {
			err = fmt.Errorf("diskstore probe %s: %w", what, e)
		}
	}
	m["diskstore.put_table_ms"] = medianMS(3, func() { fail("PutTable", store.PutTable(rel, "")) })
	disk := &diskstore.Result{Out: res.Out, GroupCounts: res.GroupCounts, Capture: res.Capture(), Bases: res.Bases()}
	var segBytes int64
	i := 0
	m["diskstore.put_result_ms"] = medianMS(probeReps, func() {
		var e error
		segBytes, e = store.PutResultNoPublish("probe", fmt.Sprint("r", i), disk)
		i++
		fail("PutResultNoPublish", e)
	})
	m["diskstore.publish_ms"] = medianMS(probeReps, func() { fail("Publish", store.Publish()) })
	var loaded *diskstore.Result
	m["diskstore.load_result_ms"] = medianMS(probeReps, func() {
		var e error
		loaded, e = store.LoadResult("probe", "r0")
		fail("LoadResult", e)
	})
	if err != nil {
		return err
	}
	m["diskstore.segment_bytes"] = float64(segBytes)
	m["diskstore.write_amp"] = float64(segBytes) / math.Max(float64(res.MemBytes()), 1)
	m["core.restore_view_ms"] = medianMS(probeReps, func() {
		_ = core.RestoreView(db, loaded.Out, loaded.GroupCounts, loaded.Capture, loaded.Bases)
	})
	m["core.restore_result_ms"] = medianMS(probeReps, func() {
		_ = core.RestoreResult(db, loaded.Out, loaded.GroupCounts, loaded.Capture, loaded.Bases)
	})
	return nil
}

// renderRows mirrors what the server's handlers hand json.Marshal: the
// response shape of a result, with boxed cells.
func renderRows(rel *storage.Relation) any {
	cols, types := make([]string, len(rel.Schema)), make([]string, len(rel.Schema))
	for i, f := range rel.Schema {
		cols[i] = f.Name
		types[i] = [...]string{storage.TInt: "int", storage.TFloat: "float", storage.TString: "string"}[f.Type]
	}
	rows := make([][]any, rel.N)
	for i := range rows {
		rows[i] = rel.Row(i)
	}
	return map[string]any{"columns": cols, "types": types, "rows": rows, "row_count": rel.N}
}

func marshalResult(rel *storage.Relation) error {
	_, err := json.Marshal(renderRows(rel))
	return err
}
