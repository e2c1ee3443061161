package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"smoke/internal/core"
	"smoke/internal/expr"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/storage"
)

// Consume is the lineage-consuming-query experiment (beyond-paper): a
// crossfilter-style roundtrip — highlight a bar in one view, trace backward
// to the base rows, re-aggregate them into a second view, and trace the rows
// forward into the second view's bars — measured over two implementations:
//
//   - preplan: the pre-plan serial side path (index expansion via
//     Capture.Backward, serial rid-set HashAgg, serial forward Trace) — how
//     consuming queries ran before they were plan citizens.
//   - plan: the same roundtrip as trace-then-aggregate plans
//     (core.Query.Trace backward → GroupBy, then forward), at workers=1 and
//     workers=4 — the morsel-parallel physical trace operator plus the
//     duplicate-tolerant parallel aggregation.
//
// Before timing, every plan-path run is checked element-identical to the
// preplan reference (output, backward lineage, and forward rid lists);
// timing divergent lineage would be meaningless. Results land in
// BENCH_consume.json.
func Consume(cfg Config) error {
	n := 1_000_000
	bars1, bars2 := 200, 100
	switch {
	case cfg.paper():
		n = 5_000_000
	case cfg.tiny():
		n = 100_000
		bars1, bars2 = 100, 50
	}
	workers := 4
	db := core.Open(core.WithWorkers(workers))
	defer db.Close()

	rel := consumeData(n, bars1, bars2)
	db.Register(rel)

	// Base views (the crossfilter setup cost): d1 histogram with full
	// capture, d2 histogram with forward capture (the roundtrip target).
	view1, err := db.Query().From("interact", nil).GroupBy("d1").
		Agg(ops.Count, nil, "count").
		Run(core.CaptureOptions{Mode: ops.Inject, Parallelism: 1})
	if err != nil {
		return err
	}
	view2, err := db.Query().From("interact", nil).GroupBy("d2").
		Agg(ops.Count, nil, "count").
		Run(core.CaptureOptions{Mode: ops.Inject, Parallelism: 1})
	if err != nil {
		return err
	}
	consSpec := ops.GroupBySpec{Keys: []string{"d2"},
		Aggs: []ops.AggSpec{{Fn: ops.Count, Name: "n"}, {Fn: ops.Sum, Arg: expr.C("v"), Name: "sv"}}}

	bw, err := view1.Capture().BackwardIndex("interact")
	if err != nil {
		return err
	}
	fw2, err := view2.Capture().ForwardIndex("interact")
	if err != nil {
		return err
	}

	// The sampled interactions: every 8th bar of view 1.
	var bars []lineage.Rid
	for b := 0; b < view1.Out.N; b += 8 {
		bars = append(bars, lineage.Rid(b))
	}

	// preplan reference for one bar: serial expansion + serial rid-set
	// aggregation + serial forward trace.
	preplan := func(bar lineage.Rid) (ops.AggResult, []lineage.Rid, error) {
		rids := bw.Trace([]lineage.Rid{bar})
		if rids == nil {
			rids = []lineage.Rid{}
		}
		cons, err := ops.HashAgg(rel, rids, consSpec, ops.AggOpts{Mode: ops.Inject, Dirs: ops.CaptureBoth})
		if err != nil {
			return ops.AggResult{}, nil, err
		}
		return cons, fw2.Trace(rids), nil
	}
	// plan path for one bar at a given parallelism.
	planPath := func(bar lineage.Rid, par int) (*core.Result, *core.Result, error) {
		cons, err := db.Query().Trace(view1, core.TraceBackward, "interact", core.Rids(bar)).
			GroupBy("d2").Agg(ops.Count, nil, "n").Agg(ops.Sum, expr.C("v"), "sv").
			Run(core.CaptureOptions{Mode: ops.Inject, Parallelism: par})
		if err != nil {
			return nil, nil, err
		}
		rids := bw.Trace([]lineage.Rid{bar})
		fwRes, err := db.Query().Trace(view2, core.TraceForward, "interact", core.Rids(rids...)).
			Run(core.CaptureOptions{Mode: ops.None, Parallelism: par})
		if err != nil {
			return nil, nil, err
		}
		return cons, fwRes, nil
	}

	// Lineage-equality gate: the plan path (serial and parallel) must match
	// the preplan reference element-for-element on every sampled bar.
	for _, bar := range bars {
		ref, refFwd, err := preplan(bar)
		if err != nil {
			return err
		}
		for _, par := range []int{1, workers} {
			cons, fwRes, err := planPath(bar, par)
			if err != nil {
				return err
			}
			if err := diffConsume(rel, &ref, refFwd, cons, fwRes, view2); err != nil {
				return fmt.Errorf("consume: plan path (workers=%d) diverges from preplan on bar %d: %w", par, bar, err)
			}
		}
	}

	type row struct {
		Path    string  `json:"path"`
		Workers int     `json:"workers"`
		Ms      float64 `json:"ms"`
		Speedup float64 `json:"speedup_vs_preplan"`
	}
	report := struct {
		Tuples  int    `json:"tuples"`
		Bars    int    `json:"sampled_bars"`
		Cores   int    `json:"cores"`
		Mode    string `json:"mode"`
		Rows    []row  `json:"rows"`
		Created string `json:"created"`
	}{Tuples: n, Bars: len(bars), Cores: runtime.NumCPU(), Mode: "inject+both", Created: time.Now().Format(time.RFC3339)}

	cfg.printf("Figure C (beyond-paper): consuming-query roundtrip (backward trace + re-aggregate + forward trace), total latency over %d interactions (ms), %d tuples\n", len(bars), n)
	cfg.printf("%-14s %-10s %-14s %-10s\n", "path", "workers", "ms", "vs preplan")

	var preplanD time.Duration
	runAll := func(name string, w int, f func()) {
		d := cfg.Median(f)
		if name == "preplan" {
			preplanD = d
		}
		sp := 0.0
		if preplanD > 0 {
			sp = float64(preplanD) / float64(d)
		}
		report.Rows = append(report.Rows, row{Path: name, Workers: w, Ms: ms(d), Speedup: sp})
		cfg.printf("%-14s %-10d %-14.1f %-10.2f\n", name, w, ms(d), sp)
	}
	runAll("preplan", 1, func() {
		for _, bar := range bars {
			_, _, err := preplan(bar)
			must(err)
		}
	})
	for _, par := range []int{1, workers} {
		par := par
		name := fmt.Sprintf("plan/w%d", par)
		runAll(name, par, func() {
			for _, bar := range bars {
				_, _, err := planPath(bar, par)
				must(err)
			}
		})
	}

	if cfg.JSONDir != "" {
		path := filepath.Join(cfg.JSONDir, "BENCH_consume.json")
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

// diffConsume compares one plan-path roundtrip against the preplan reference.
func diffConsume(rel *storage.Relation, ref *ops.AggResult, refFwd []lineage.Rid,
	cons *core.Result, fwRes *core.Result, view2 *core.Result) error {
	if cons.Out.N != ref.Out.N {
		return fmt.Errorf("consuming groups: %d, want %d", cons.Out.N, ref.Out.N)
	}
	for c := range ref.Out.Cols {
		// Float aggregates tolerate last-ulp drift from partition-order
		// addition in parallel runs; everything else must match exactly.
		if fs := ref.Out.Cols[c].Floats; fs != nil {
			for i, w := range fs {
				g := cons.Out.Cols[c].Floats[i]
				if w != g && math.Abs(g-w) > 1e-9*math.Max(math.Abs(g), math.Abs(w)) {
					return fmt.Errorf("consuming output column %d row %d: %v, want %v", c, i, g, w)
				}
			}
			continue
		}
		if !reflect.DeepEqual(cons.Out.Cols[c], ref.Out.Cols[c]) {
			return fmt.Errorf("consuming output column %d diverges", c)
		}
	}
	for o := 0; o < ref.Out.N; o++ {
		got, err := cons.Backward("interact", []lineage.Rid{lineage.Rid(o)})
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, ref.BW.List(o)) {
			return fmt.Errorf("consuming backward lineage of group %d diverges", o)
		}
	}
	// The forward plan result's rows are view-2 bars in trace order; compare
	// the bar identities (first output column of view 2) against the raw
	// forward rid expansion.
	if fwRes.Out.N != len(refFwd) {
		return fmt.Errorf("forward trace rows: %d, want %d", fwRes.Out.N, len(refFwd))
	}
	for i, r := range refFwd {
		if fwRes.Out.Int(0, i) != view2.Out.Int(0, int(r)) {
			return fmt.Errorf("forward trace row %d is bar %d, want %d", i, fwRes.Out.Int(0, i), view2.Out.Int(0, int(r)))
		}
	}
	return nil
}

// consumeData generates interact(d1, d2, v): two binned dimensions with a
// mild skew plus a value column.
func consumeData(n, bars1, bars2 int) *storage.Relation {
	r := rand.New(rand.NewSource(7))
	rel := storage.NewRelation("interact", storage.Schema{
		{Name: "d1", Type: storage.TInt},
		{Name: "d2", Type: storage.TInt},
		{Name: "v", Type: storage.TFloat},
	}, n)
	for i := 0; i < n; i++ {
		u := r.Float64()
		rel.Cols[0].Ints[i] = int64(u * u * float64(bars1))
		rel.Cols[1].Ints[i] = int64(r.Intn(bars2))
		rel.Cols[2].Floats[i] = float64(r.Intn(10000)) / 100
	}
	return rel
}
