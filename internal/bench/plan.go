package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"smoke/internal/difftest"
	"smoke/internal/exec"
	"smoke/internal/expr"
	"smoke/internal/ops"
	"smoke/internal/plan"
	"smoke/internal/pool"
	"smoke/internal/storage"
)

// PlanBench is the plan-layer experiment (beyond-paper): multi-block queries
// run through both lowerings — the optimizer's SPJA-fused plan and the
// generic operator-at-a-time plan — end to end (execute + Inject capture,
// both directions). Before timing, it asserts that fused, generic, serial,
// and morsel-parallel runs all produce element-identical output and lineage
// (difftest.DiffPlanResults); timing numbers for divergent lineage would be
// meaningless.
func PlanBench(cfg Config) error {
	dimN, factN := 2_000, 1_000_000
	switch {
	case cfg.paper():
		factN = 10_000_000
	case cfg.tiny():
		dimN, factN = 200, 100_000
	}
	workerCounts := []int{1, 2, 4, 8}
	workers := workerCounts[len(workerCounts)-1]
	pl := pool.New(workers)
	defer pl.Close()

	dim, fact := planBenchData(dimN, factN)

	// q-star: a fully fusible SPJA block — the fused path runs it in one
	// pass with no intermediate lineage; the generic path materializes the
	// join and composes per-operator indexes.
	qStar := plan.Node(plan.GroupBy{
		Child: plan.Join{
			Left:     plan.Scan{Table: "dim", Rel: dim},
			Right:    plan.Scan{Table: "fact", Rel: fact, Filter: expr.LtE(expr.C("v"), expr.F(50))},
			LeftKey:  "g",
			RightKey: "k",
		},
		Keys: []string{"label"},
		Aggs: []plan.AggDef{
			{Fn: ops.Count, Name: "cnt"},
			{Fn: ops.Sum, Arg: expr.C("v"), Name: "sv"},
		},
	})
	// q-multiblock: aggregation over a join over a grouped subquery with
	// HAVING/ORDER BY/LIMIT residue — only the outer block fuses; the inner
	// aggregation stays a subplan input.
	qMulti := plan.Node(plan.Limit{
		N: 10,
		Child: plan.OrderBy{
			Keys: []plan.SortKey{{Col: "total", Desc: true}, {Col: "label"}},
			Child: plan.Filter{
				Pred: expr.GeE(expr.C("total"), expr.I(1)),
				Child: plan.GroupBy{
					Child: plan.Join{
						Left: plan.GroupBy{
							Child: plan.Scan{Table: "fact", Rel: fact},
							Keys:  []string{"k"},
							Aggs:  []plan.AggDef{{Fn: ops.Count, Name: "cnt"}},
						},
						Right:    plan.Scan{Table: "dim", Rel: dim},
						LeftKey:  "k",
						RightKey: "g",
					},
					Keys: []string{"label"},
					Aggs: []plan.AggDef{{Fn: ops.Sum, Arg: expr.C("cnt"), Name: "total"}},
				},
			},
		},
	})

	cfg.printf("Figure Q (beyond-paper): plan layer, fused vs generic lowering, execute+capture latency (ms), dim=%d fact=%d, %d cores\n", dimN, factN, runtime.NumCPU())
	cfg.printf("%-14s %-10s %-10s", "query", "path", "")
	for _, w := range workerCounts {
		cfg.printf(" %-16s", fmt.Sprintf("workers=%d", w))
	}
	cfg.printf("\n")

	for _, q := range []struct {
		name string
		node plan.Node
	}{{"star", qStar}, {"multiblock", qMulti}} {
		generic, _ := plan.Optimize(q.node, plan.Opts{NoFusion: true})
		fused, _ := plan.Optimize(q.node, plan.Opts{})

		// Lineage-equality gate across lowerings and parallelism.
		ref, err := exec.RunPlan(generic, exec.PlanOpts{Mode: ops.Inject})
		if err != nil {
			return err
		}
		for _, alt := range []struct {
			name string
			n    plan.Node
			w    int
		}{
			{"fused/serial", fused, 1},
			{"generic/par", generic, workers},
			{"fused/par", fused, workers},
		} {
			got, err := exec.RunPlan(alt.n, exec.PlanOpts{Mode: ops.Inject, Workers: alt.w, Pool: pl})
			if err != nil {
				return err
			}
			if err := difftest.DiffPlanResults(ref, got); err != nil {
				return fmt.Errorf("plan bench: %s lineage diverges on %s: %w", alt.name, q.name, err)
			}
		}

		var genericSerial time.Duration
		for _, path := range []struct {
			name string
			n    plan.Node
		}{{"generic", generic}, {"fused", fused}} {
			cfg.printf("%-14s %-10s %-10s", q.name, path.name, "")
			for _, w := range workerCounts {
				w := w
				n := path.n
				d := cfg.Median(func() {
					_, err := exec.RunPlan(n, exec.PlanOpts{Mode: ops.Inject, Workers: w, Pool: pl})
					must(err)
				})
				if path.name == "generic" && w == 1 {
					genericSerial = d
				}
				sp := 0.0
				if genericSerial > 0 {
					sp = float64(genericSerial) / float64(d)
				}
				cfg.printf(" %-16s", fmt.Sprintf("%.1f (%.2fx)", ms(d), sp))
			}
			cfg.printf("\n")
		}
	}
	return nil
}

// planBenchData generates the star dataset: dim(g pk, label) and
// fact(k fk, b, v) with a zipf-ish skew on k.
func planBenchData(dimN, factN int) (*storage.Relation, *storage.Relation) {
	r := rand.New(rand.NewSource(42))
	dim := storage.NewRelation("dim", storage.Schema{
		{Name: "g", Type: storage.TInt},
		{Name: "label", Type: storage.TString},
	}, dimN)
	for i := 0; i < dimN; i++ {
		dim.Cols[0].Ints[i] = int64(i)
		dim.Cols[1].Strs[i] = fmt.Sprintf("L%d", i%16)
	}
	fact := storage.NewRelation("fact", storage.Schema{
		{Name: "k", Type: storage.TInt},
		{Name: "b", Type: storage.TInt},
		{Name: "v", Type: storage.TFloat},
	}, factN)
	for i := 0; i < factN; i++ {
		// Square the uniform draw for a mild skew toward low keys.
		u := r.Float64()
		fact.Cols[0].Ints[i] = int64(u * u * float64(dimN))
		fact.Cols[1].Ints[i] = int64(r.Intn(8))
		fact.Cols[2].Floats[i] = float64(r.Intn(10000)) / 100
	}
	return dim, fact
}
