package bench

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"smoke/internal/datagen"
	"smoke/internal/expr"
	"smoke/internal/ops"
	"smoke/internal/pool"
)

// ParScale is the worker-scaling experiment for the morsel-parallel engine:
// the select and group-by microbenchmarks (§6.1) run end-to-end (execute +
// capture, Inject, both directions) at workers = 1/2/4/8 over one shared
// pool. Before timing, it asserts that every parallel run's lineage is
// element-for-element identical to the serial run — scaling numbers for
// wrong lineage would be meaningless.
//
// Speedups track physical core count: expect ~1x at every worker count on a
// single-core machine and >= 2x at workers=4 on >= 4 cores.
func ParScale(cfg Config) error {
	n := 1_000_000
	groups := 10_000
	switch {
	case cfg.paper():
		n = 10_000_000
	case cfg.tiny():
		n = 100_000
		groups = 1_000
	}
	workerCounts := []int{1, 2, 4, 8}
	p := pool.New(workerCounts[len(workerCounts)-1])
	defer p.Close()

	rel := datagen.Zipf("zipf", 1.0, n, groups, 42)
	filter := expr.LtE(expr.C("v"), expr.F(50))
	pred, err := expr.CompilePred(filter, rel, nil)
	if err != nil {
		return err
	}
	kern := expr.CompileBitKernel(filter, rel, nil)
	aggSpec := microAggSpec()

	// Correctness gate: parallel lineage must equal serial lineage.
	serialSel := ops.Select(rel.N, pred, ops.SelectOpts{Mode: ops.Inject, Dirs: ops.CaptureBoth, Kernel: kern})
	serialAgg, err := ops.HashAgg(rel, nil, aggSpec, ops.AggOpts{Mode: ops.Inject, Dirs: ops.CaptureBoth})
	if err != nil {
		return err
	}
	for _, w := range workerCounts[1:] {
		sres := ops.Select(rel.N, pred, ops.SelectOpts{Mode: ops.Inject, Dirs: ops.CaptureBoth, Workers: w, Pool: p, Kernel: kern})
		if !reflect.DeepEqual(sres.BW, serialSel.BW) || !reflect.DeepEqual(sres.FW, serialSel.FW) {
			return fmt.Errorf("parscale: select lineage at workers=%d differs from serial", w)
		}
		ares, err := ops.HashAgg(rel, nil, aggSpec, ops.AggOpts{Mode: ops.Inject, Dirs: ops.CaptureBoth, Workers: w, Pool: p})
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(ares.FW, serialAgg.FW) {
			return fmt.Errorf("parscale: group-by forward lineage at workers=%d differs from serial", w)
		}
		for g := 0; g < serialAgg.BW.Len(); g++ {
			sl, pl := serialAgg.BW.List(g), ares.BW.List(g)
			if len(sl) != len(pl) || (len(sl) > 0 && !reflect.DeepEqual(sl, pl)) {
				return fmt.Errorf("parscale: group-by backward lineage at workers=%d differs from serial (group %d)", w, g)
			}
		}
	}

	cfg.printf("Figure P (beyond-paper): worker scaling, execute+capture latency (ms; speedup vs workers=1), %d tuples, %d cores\n", n, runtime.NumCPU())
	cfg.printf("%-10s", "op")
	for _, w := range workerCounts {
		cfg.printf(" %-16s", fmt.Sprintf("workers=%d", w))
	}
	cfg.printf("\n")

	run := func(op string, f func(w int)) {
		var serial time.Duration
		cfg.printf("%-10s", op)
		for _, w := range workerCounts {
			w := w
			d := cfg.Median(func() { f(w) })
			if w == 1 {
				serial = d
			}
			cfg.printf(" %-16s", fmt.Sprintf("%.1f (%.2fx)", ms(d), float64(serial)/float64(d)))
		}
		cfg.printf("\n")
	}
	run("select", func(w int) {
		ops.Select(rel.N, pred, ops.SelectOpts{Mode: ops.Inject, Dirs: ops.CaptureBoth, Workers: w, Pool: p, Kernel: kern})
	})
	run("groupby", func(w int) {
		_, err := ops.HashAgg(rel, nil, aggSpec, ops.AggOpts{Mode: ops.Inject, Dirs: ops.CaptureBoth, Workers: w, Pool: p})
		must(err)
	})
	return nil
}
