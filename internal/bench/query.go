package bench

import (
	"fmt"
	"time"

	"smoke/internal/baselines"
	"smoke/internal/cube"
	"smoke/internal/datagen"
	"smoke/internal/expr"
	"smoke/internal/ops"
	"smoke/internal/tpch"
)

// Fig9 measures backward lineage query latency over the group-by microbench
// output across zipf skews: Smoke-L (index scan) vs Lazy (selection scan) vs
// scanning the Logic-Rid / Logic-Tup annotated relations.
func Fig9(cfg Config) error {
	n, g := 10_000_000, 5000
	if !cfg.paper() {
		n = 1_000_000
	}
	spec := microAggSpec()
	cfg.printf("Figure 9: backward lineage query latency (ms avg/max over sampled groups), %d tuples, %d groups\n", n, g)
	cfg.printf("%-6s %-20s %-20s %-20s %-20s\n", "theta", "smoke-l", "lazy", "logic-rid", "logic-tup")
	for _, theta := range []float64{0, 0.4, 0.8, 1.6} {
		rel := datagen.Zipf("zipf", theta, n, g, 11)
		smoke, err := ops.HashAgg(rel, nil, spec, ops.AggOpts{Mode: ops.Inject, Dirs: ops.CaptureBoth})
		if err != nil {
			return err
		}
		annRid, err := baselines.GroupByLogical(rel, nil, spec, baselines.LogicRid, nil, nil)
		if err != nil {
			return err
		}
		annTup, err := baselines.GroupByLogical(rel, nil, spec, baselines.LogicTup, nil, nil)
		if err != nil {
			return err
		}
		// Sample output groups; the query is SELECT * FROM Lb(o, zipf).
		sample := sampleGroups(smoke.Out.N, 40)
		var sAvg, sMax, lAvg, lMax, rAvg, rMax, tAvg, tMax time.Duration
		for _, o := range sample {
			d := timeOne(func() {
				rids := smoke.BW.List(int(o))
				sinkRel(rel.Gather("lq", rids))
			})
			sAvg += d
			sMax = maxd(sMax, d)

			d = timeOne(func() {
				rids, err := baselines.LazyBackward(rel, []string{"z"}, smoke.Out, int(o), nil, nil)
				must(err)
				sinkRel(rel.Gather("lq", rids))
			})
			lAvg += d
			lMax = maxd(lMax, d)

			d = timeOne(func() {
				rids := baselines.BackwardFromAnnotated(&annRid, findGroup(annRid.Out, smoke.Out, int(o)))
				sinkRel(rel.Gather("lq", rids))
			})
			rAvg += d
			rMax = maxd(rMax, d)

			d = timeOne(func() {
				rids := baselines.BackwardFromAnnotated(&annTup, findGroup(annTup.Out, smoke.Out, int(o)))
				sinkRids(rids)
			})
			tAvg += d
			tMax = maxd(tMax, d)
		}
		k := time.Duration(len(sample))
		cfg.printf("%-6.1f %-20s %-20s %-20s %-20s\n", theta,
			avgMax(sAvg/k, sMax), avgMax(lAvg/k, lMax), avgMax(rAvg/k, rMax), avgMax(tAvg/k, tMax))
	}
	return nil
}

// q1Groups captures TPC-H Q1 and returns the capture result used as the base
// query of the §6.4 experiments.
func q1Capture(db *tpch.DB, partitionBy []string) (ops.AggResult, error) {
	return ops.HashAgg(db.Lineitem, nil, microQ1Single(db), ops.AggOpts{
		Mode: ops.Inject, Dirs: ops.CaptureBoth, PartitionBy: partitionBy,
	})
}

// q1aSpec is the Q1a drill-down: group by year-month of shipdate, keeping
// Q1's aggregates.
func q1aSpec() ops.GroupBySpec {
	revenue := expr.MulE(expr.C("l_extendedprice"), expr.SubE(expr.F(1), expr.C("l_discount")))
	return ops.GroupBySpec{
		Keys: []string{"l_shipym"},
		Aggs: []ops.AggSpec{
			{Fn: ops.Sum, Arg: expr.C("l_quantity"), Name: "sum_qty"},
			{Fn: ops.Sum, Arg: expr.C("l_extendedprice"), Name: "sum_base_price"},
			{Fn: ops.Sum, Arg: revenue, Name: "sum_disc_price"},
			{Fn: ops.Avg, Arg: expr.C("l_quantity"), Name: "avg_qty"},
			{Fn: ops.Avg, Arg: expr.C("l_discount"), Name: "avg_disc"},
			{Fn: ops.Count, Name: "count_order"},
		},
	}
}

// Fig10 measures Q1b lineage-consuming query latency vs selectivity for
// Lazy, lineage indexes without data skipping, and with data skipping.
func Fig10(cfg Config) error {
	db := tpch.Generate(cfg.tpchSF(), 42)
	li := db.Lineitem

	// Base query capture, with and without partitioned rid arrays.
	partAttrs := []string{"l_shipmode", "l_shipinstruct"}
	noSkip, err := q1Capture(db, nil)
	if err != nil {
		return err
	}
	skip, err := q1Capture(db, partAttrs)
	if err != nil {
		return err
	}
	cfg.printf("Figure 10: Q1b lineage-consuming query latency (ms) vs selectivity\n")
	cfg.printf("%-10s %-26s %-10s %-10s %-14s %-14s\n", "group", "params", "sel%", "lazy", "no-skipping", "skipping")

	spec := q1aSpec()
	keys := []string{"l_returnflag", "l_linestatus"}
	for o := 0; o < noSkip.Out.N; o++ {
		for _, mode := range []string{"MAIL", "SHIP", "AIR"} {
			for _, instr := range []string{"NONE", "COLLECT COD"} {
				params := expr.Params{"p1": mode, "p2": instr}
				consumingPred := expr.AndE(
					expr.EqE(expr.C("l_shipmode"), expr.P("p1")),
					expr.EqE(expr.C("l_shipinstruct"), expr.P("p2")),
				)
				// Lazy: full selection scan with group keys + parameters.
				lazyT := timeOne(func() {
					lazyPred, err := baselines.LazyPredicate(li, keys, noSkip.Out, o, consumingPred)
					must(err)
					p, err := expr.CompilePred(lazyPred, li, params)
					must(err)
					var rids []int32
					for rid := int32(0); rid < int32(li.N); rid++ {
						if p(rid) {
							rids = append(rids, rid)
						}
					}
					res, err := ops.HashAgg(li, rids, spec, ops.AggOpts{})
					must(err)
					sinkRel(res.Out)
				})
				// No data skipping: secondary index scan + filter + agg.
				var matched int
				noSkipT := timeOne(func() {
					p, err := expr.CompilePred(consumingPred, li, params)
					must(err)
					all := noSkip.BW.List(o)
					rids := make([]int32, 0, 64)
					for _, rid := range all {
						if p(rid) {
							rids = append(rids, rid)
						}
					}
					matched = len(rids)
					res, err := ops.HashAgg(li, rids, spec, ops.AggOpts{})
					must(err)
					sinkRel(res.Out)
				})
				// Data skipping: read only the matching partition.
				skipT := timeOne(func() {
					key, ok := ops.PartitionKey(skip.BWPart, li, partAttrs, []any{mode, instr})
					var rids []int32
					if ok {
						rids = skip.BWPart.Partition(o, key)
					}
					res, err := ops.HashAgg(li, rids, spec, ops.AggOpts{})
					must(err)
					sinkRel(res.Out)
				})
				sel := 0.0
				if li.N > 0 {
					sel = float64(matched) / float64(li.N) * 100
				}
				cfg.printf("%-10d %-26s %-10.2f %-10.1f %-14.1f %-14.1f\n",
					o, mode+"/"+instr, sel, ms(lazyT), ms(noSkipT), ms(skipT))
			}
		}
	}
	cfg.printf("(interactive threshold: 150ms)\n")
	return nil
}

// Fig11 measures Q1c latency: Lazy vs lineage index scan vs the materialized
// cube from aggregation push-down (≈0ms).
func Fig11(cfg Config) error {
	db := tpch.Generate(cfg.tpchSF(), 42)
	li := db.Lineitem
	base, err := q1Capture(db, nil)
	if err != nil {
		return err
	}
	// Q1b acts as the base query for Q1c (§6.4): capture it with a cube on
	// l_taxpct.
	q1cSpec := ops.GroupBySpec{
		Keys: []string{"l_shipym", "l_taxpct"},
		Aggs: q1aSpec().Aggs,
	}
	cfg.printf("Figure 11: Q1c lineage-consuming query latency (ms)\n")
	cfg.printf("%-10s %-10s %-12s %-16s %-12s\n", "group", "sel%", "lazy", "no-pushdown", "pushdown")
	keys := []string{"l_returnflag", "l_linestatus"}
	for o := 0; o < base.Out.N; o++ {
		rids := base.BW.List(o)
		// Q1b with capture + cube: its backward lineage feeds Q1c.
		q1b, err := ops.HashAgg(li, rids, q1aSpec(), ops.AggOpts{Mode: ops.Inject, Dirs: ops.CaptureBackward,
			Observe: nil})
		must(err)
		cb, err := cube.NewBuilder(li, cube.Spec{
			Dims: []string{"l_shipym", "l_taxpct"},
			Aggs: []cube.AggDef{{Fn: ops.Count, Name: "count_order"}, {Fn: ops.Sum, Arg: expr.C("l_quantity"), Name: "sum_qty"}},
		}, nil)
		must(err)
		// Build the cube during (re-)capture of the base group's scan.
		_, err = ops.HashAgg(li, rids, ops.GroupBySpec{Keys: []string{"l_shipym"},
			Aggs: []ops.AggSpec{{Fn: ops.Count, Name: "c"}}},
			ops.AggOpts{Mode: ops.None, Observe: func(slot int32, rid int32) { cb.Observe(slot, rid) }})
		must(err)
		q1bCube := cb.Build()

		// Probe a few Q1b output groups (year-months) as oc.
		sample := sampleGroups(q1b.Out.N, 4)
		for _, oc := range sample {
			sel := float64(len(q1b.BW.List(int(oc)))) / float64(li.N) * 100

			lazyT := timeOne(func() {
				ymVal := q1b.Out.Int(0, int(oc))
				pred := expr.AndE(
					mustPred(keys, base.Out, o),
					expr.EqE(expr.C("l_shipym"), expr.I(ymVal)),
				)
				p, err := expr.CompilePred(pred, li, nil)
				must(err)
				var sub []int32
				for rid := int32(0); rid < int32(li.N); rid++ {
					if p(rid) {
						sub = append(sub, rid)
					}
				}
				res, err := ops.HashAgg(li, sub, q1cSpec, ops.AggOpts{})
				must(err)
				sinkRel(res.Out)
			})
			noPushT := timeOne(func() {
				sub := q1b.BW.List(int(oc))
				res, err := ops.HashAgg(li, sub, q1cSpec, ops.AggOpts{})
				must(err)
				sinkRel(res.Out)
			})
			pushT := timeOne(func() {
				ans, err := q1bCube.Query(int32(oc), nil)
				must(err)
				sinkRel(ans)
			})
			cfg.printf("%-10d %-10.2f %-12.1f %-16.1f %-12.3f\n", o, sel, ms(lazyT), ms(noPushT), ms(pushT))
		}
	}
	return nil
}

func mustPred(keys []string, out interface {
	Int(int, int) int64
	Str(int, int) string
}, o int) expr.Expr {
	// Q1's keys are the two flag strings.
	return expr.AndE(
		expr.EqE(expr.C("l_returnflag"), expr.S(out.Str(0, o))),
		expr.EqE(expr.C("l_linestatus"), expr.S(out.Str(1, o))),
	)
}

// Fig12 measures the capture-side cost of aggregation push-down: the Q1a
// capture per base group, without and with the cube (paper: 2.9% → 9.15%).
func Fig12(cfg Config) error {
	db := tpch.Generate(cfg.tpchSF(), 42)
	li := db.Lineitem
	base, err := q1Capture(db, nil)
	if err != nil {
		return err
	}
	cfg.printf("Figure 12: aggregation push-down capture overhead per Q1 group (%% over uninstrumented)\n")
	cfg.printf("%-8s %-14s %-14s %-14s\n", "group", "baseline(ms)", "no-pushdown", "pushdown")
	for o := 0; o < base.Out.N; o++ {
		rids := base.BW.List(o)
		noCap := cfg.Median(func() {
			_, err := ops.HashAgg(li, rids, q1aSpec(), ops.AggOpts{})
			must(err)
		})
		noPush := cfg.Median(func() {
			_, err := ops.HashAgg(li, rids, q1aSpec(), ops.AggOpts{Mode: ops.Inject, Dirs: ops.CaptureBoth})
			must(err)
		})
		push := cfg.Median(func() {
			cb, err := cube.NewBuilder(li, cube.Spec{
				Dims: []string{"l_taxpct"},
				Aggs: []cube.AggDef{{Fn: ops.Count, Name: "c"}, {Fn: ops.Sum, Arg: expr.C("l_quantity"), Name: "s"}},
			}, nil)
			must(err)
			_, err = ops.HashAgg(li, rids, q1aSpec(), ops.AggOpts{
				Mode: ops.Inject, Dirs: ops.CaptureBoth, Observe: cb.Observe,
			})
			must(err)
			cb.Build()
		})
		cfg.printf("%-8d %-14.1f %-14s %-14s\n", o, ms(noCap), pct(noPush, noCap), pct(push, noCap))
	}
	return nil
}

// --- helpers ---

func sampleGroups(n, k int) []int {
	if n <= k {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, 0, k)
	step := n / k
	for i := 0; i < n; i += step {
		out = append(out, i)
	}
	return out
}

// findGroup maps a Smoke output group to the logical run's group with the
// same key (group discovery order can differ).
func findGroup(logicalOut, smokeOut interface {
	Int(int, int) int64
}, o int) int32 {
	key := smokeOut.Int(0, o)
	// logical outputs share the key in column 0
	type intser interface{ Int(int, int) int64 }
	lo := logicalOut.(intser)
	for i := 0; ; i++ {
		if lo.Int(0, i) == key {
			return int32(i)
		}
	}
}

func timeOne(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

func maxd(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

func avgMax(avg, max time.Duration) string {
	return fmt.Sprintf("%.2f/%.2f", ms(avg), ms(max))
}

var relSink int

func sinkRel(r interface{}) { relSink++ }
