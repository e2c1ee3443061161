package bench

import (
	"smoke/internal/baselines"
	"smoke/internal/datagen"
	"smoke/internal/expr"
	"smoke/internal/ops"
)

// microAggSpec is the §6.1.1 base query: z plus seven aggregates, chosen so
// visualizations can surface new statistics without rescanning.
func microAggSpec() ops.GroupBySpec {
	return ops.GroupBySpec{
		Keys: []string{"z"},
		Aggs: []ops.AggSpec{
			{Fn: ops.Count, Name: "cnt"},
			{Fn: ops.Sum, Arg: expr.C("v"), Name: "sum_v"},
			{Fn: ops.Sum, Arg: expr.MulE(expr.C("v"), expr.C("v")), Name: "sum_vv"},
			{Fn: ops.Sum, Arg: expr.Sqrt{E: expr.C("v")}, Name: "sum_sqrt"},
			{Fn: ops.Min, Arg: expr.C("v"), Name: "min_v"},
			{Fn: ops.Max, Arg: expr.C("v"), Name: "max_v"},
		},
	}
}

// Fig5 compares group-by aggregation lineage capture latency across
// techniques, relation cardinalities (columns of the paper's figure) and
// group counts (rows).
func Fig5(cfg Config) error {
	sizes := []int{100_000, 1_000_000, 10_000_000}
	groups := []int{100, 10_000}
	if !cfg.paper() {
		sizes = []int{100_000, 500_000}
		groups = []int{100, 10_000}
	}
	cfg.printf("Figure 5: group-by aggregation lineage capture latency (ms; overhead x over baseline)\n")
	cfg.printf("%-10s %-8s %-12s %-16s %-16s %-16s %-16s %-16s %-16s\n",
		"tuples", "groups", "baseline", "smoke-i", "smoke-d", "logic-rid", "logic-tup", "phys-mem", "phys-bdb")
	spec := microAggSpec()
	for _, n := range sizes {
		for _, g := range groups {
			rel := datagen.Zipf("zipf", 1.0, n, g, 42)
			base := cfg.Median(func() {
				_, err := ops.HashAgg(rel, nil, spec, ops.AggOpts{Mode: ops.None})
				must(err)
			})
			smokeI := cfg.Median(func() {
				_, err := ops.HashAgg(rel, nil, spec, ops.AggOpts{Mode: ops.Inject, Dirs: ops.CaptureBoth})
				must(err)
			})
			smokeD := cfg.Median(func() {
				_, err := ops.HashAgg(rel, nil, spec, ops.AggOpts{Mode: ops.Defer, Dirs: ops.CaptureBoth})
				must(err)
			})
			logicRid := cfg.Median(func() {
				_, err := baselines.GroupByLogical(rel, nil, spec, baselines.LogicRid, nil, nil)
				must(err)
			})
			logicTup := cfg.Median(func() {
				_, err := baselines.GroupByLogical(rel, nil, spec, baselines.LogicTup, nil, nil)
				must(err)
			})
			physMem := cfg.Median(func() {
				_, err := baselines.GroupByPhysical(rel, spec, baselines.NewMemSink(rel.N), nil)
				must(err)
			})
			physBdb := cfg.Median(func() {
				_, err := baselines.GroupByPhysical(rel, spec, baselines.NewBdbSink(), nil)
				must(err)
			})
			cfg.printf("%-10d %-8d %-12.1f %-16s %-16s %-16s %-16s %-16s %-16s\n",
				n, g, ms(base),
				withOv(smokeI, base), withOv(smokeD, base),
				withOv(logicRid, base), withOv(logicTup, base),
				withOv(physMem, base), withOv(physBdb, base))
		}
	}
	return nil
}

// Fig5TC is the §6.1.1 "Cardinality Statistics" result: exact group counts
// preallocate the rid lists and cut Smoke-I's overhead (the paper reports
// −52% on average, 0.7× → 0.3×).
func Fig5TC(cfg Config) error {
	n, g := 1_000_000, 10_000
	if !cfg.paper() {
		n = 500_000
	}
	rel := datagen.Zipf("zipf", 1.0, n, g, 42)
	spec := microAggSpec()
	counts := datagen.GroupCounts(rel, "z", g)
	base := cfg.Median(func() {
		_, err := ops.HashAgg(rel, nil, spec, ops.AggOpts{Mode: ops.None})
		must(err)
	})
	plain := cfg.Median(func() {
		_, err := ops.HashAgg(rel, nil, spec, ops.AggOpts{Mode: ops.Inject, Dirs: ops.CaptureBoth})
		must(err)
	})
	tc := cfg.Median(func() {
		_, err := ops.HashAgg(rel, nil, spec, ops.AggOpts{Mode: ops.Inject, Dirs: ops.CaptureBoth, CountsByKey: counts})
		must(err)
	})
	cfg.printf("Figure 5 (cardinality statistics): group-by capture, %d tuples, %d groups\n", n, g)
	cfg.printf("%-14s %-14s %-14s\n", "baseline(ms)", "smoke-i", "smoke-i+tc")
	cfg.printf("%-14.1f %-14s %-14s\n", ms(base), withOv(plain, base), withOv(tc, base))
	reduction := 1 - overhead(tc, base)/overhead(plain, base)
	cfg.printf("overhead reduction from statistics: %.0f%% (paper: ~52%%)\n", reduction*100)
	return nil
}

// Fig6 compares pk-fk join capture: Baseline, Logic-Idx, Smoke-I, and
// Smoke-I+TC (known join cardinalities).
func Fig6(cfg Config) error {
	sizes := []int{1_000_000, 5_000_000, 10_000_000}
	if !cfg.paper() {
		sizes = []int{200_000, 1_000_000}
	}
	groups := []int{100, 10_000}
	cfg.printf("Figure 6: pk-fk join lineage capture latency (ms; overhead x over baseline)\n")
	cfg.printf("%-10s %-8s %-12s %-16s %-16s %-16s\n",
		"tuples", "groups", "baseline", "logic-idx", "smoke-i", "smoke-i+tc")
	for _, n := range sizes {
		for _, g := range groups {
			gids := datagen.Gids("gids", g, 1)
			zipf := datagen.Zipf("zipf", 1.0, n, g, 2)
			counts := datagen.GroupCounts(zipf, "z", g)
			base := cfg.Median(func() {
				_, err := ops.HashJoinPKFK(gids, "id", nil, zipf, "z", nil, ops.JoinOpts{Materialize: true})
				must(err)
			})
			logicIdx := cfg.Median(func() {
				_, err := baselines.JoinLogicIdx(gids, "id", zipf, "z")
				must(err)
			})
			smokeI := cfg.Median(func() {
				_, err := ops.HashJoinPKFK(gids, "id", nil, zipf, "z", nil,
					ops.JoinOpts{Dirs: ops.CaptureBoth, Materialize: true})
				must(err)
			})
			smokeTC := cfg.Median(func() {
				_, err := ops.HashJoinPKFK(gids, "id", nil, zipf, "z", nil,
					ops.JoinOpts{Dirs: ops.CaptureBoth, Materialize: true, CountsByBuildKey: counts})
				must(err)
			})
			cfg.printf("%-10d %-8d %-12.1f %-16s %-16s %-16s\n",
				n, g, ms(base), withOv(logicIdx, base), withOv(smokeI, base), withOv(smokeTC, base))
		}
	}
	return nil
}

// Fig7 compares M:N join capture variants on a heavily skewed join; the
// output is not materialized (§6.1.3), so the times are dominated by rid
// array resizing — which is what deferring avoids.
func Fig7(cfg Config) error {
	rights := []int{10_000, 50_000, 100_000}
	if !cfg.paper() {
		rights = []int{10_000, 50_000}
	}
	leftGroups := []int{10, 100}
	cfg.printf("Figure 7: M:N join lineage capture latency (ms), left=1000 tuples\n")
	cfg.printf("%-12s %-10s %-12s %-18s %-12s\n", "left-groups", "right-n", "smoke-i", "smoke-d-deferforw", "smoke-d")
	for _, lg := range leftGroups {
		left := datagen.Zipf("zipf1", 1.0, 1000, lg, 3)
		for _, rn := range rights {
			right := datagen.Zipf("zipf2", 1.0, rn, 100, 4)
			tInj := cfg.Median(func() {
				_, err := ops.HashJoinMN(left, "z", right, "z", ops.MNInject, ops.JoinOpts{Dirs: ops.CaptureBoth})
				must(err)
			})
			tDF := cfg.Median(func() {
				_, err := ops.HashJoinMN(left, "z", right, "z", ops.MNDeferForward, ops.JoinOpts{Dirs: ops.CaptureBoth})
				must(err)
			})
			tD := cfg.Median(func() {
				_, err := ops.HashJoinMN(left, "z", right, "z", ops.MNDefer, ops.JoinOpts{Dirs: ops.CaptureBoth})
				must(err)
			})
			cfg.printf("%-12d %-10d %-12.1f %-18.1f %-12.1f\n", lg, rn, ms(tInj), ms(tDF), ms(tD))
		}
	}
	return nil
}

// Fig21 (Appendix G.1) measures selection capture across predicate
// selectivities. The paper's Smoke-I+EC variant (a selectivity estimate
// presizes the rid array) has no column: the bitmap kernel sizes it exactly
// from the popcount, so every Smoke-I run already has exact preallocation.
func Fig21(cfg Config) error {
	sizes := []int{1_000_000, 5_000_000}
	if !cfg.paper() {
		sizes = []int{200_000, 1_000_000}
	}
	cfg.printf("Figure 21: selection lineage capture latency (ms)\n")
	cfg.printf("%-10s %-8s %-12s %-12s\n", "tuples", "sel%", "baseline", "smoke-i")
	for _, n := range sizes {
		rel := datagen.Zipf("zipf", 0, n, 100, 7)
		for _, selPct := range []int{1, 10, 25, 50} {
			e := expr.LtE(expr.C("v"), expr.F(float64(selPct)))
			pred, err := expr.CompilePred(e, rel, nil)
			must(err)
			base := cfg.Median(func() {
				r := ops.Select(rel.N, pred, ops.SelectOpts{Mode: ops.None})
				sinkRids(r.OutRids)
			})
			smokeI := cfg.Median(func() {
				r := ops.Select(rel.N, pred, ops.SelectOpts{Mode: ops.Inject, Dirs: ops.CaptureBoth})
				sinkRids(r.OutRids)
			})
			cfg.printf("%-10d %-8d %-12.1f %-12.1f\n", n, selPct, ms(base), ms(smokeI))
		}
	}
	return nil
}

var ridSink int32

func sinkRids(r []int32) {
	if len(r) > 0 {
		ridSink += r[len(r)-1]
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
