// Command benchgate is the CI bench-regression gate: it compares the
// BENCH_*.json reports emitted by a smokebench run against the checked-in
// baselines and exits non-zero when a measured row regressed beyond the
// latency budget (baseline_ms * tol + slack) or vanished. Lineage-equality
// failures abort smokebench itself, so a green gate means both "no
// wrong-lineage" and "no silent slowdown".
//
// It also enforces the worker-scaling ratio on the current reports: for every
// measurement present at both workers=1 and workers=N (identical identity
// otherwise), the parallel run must be at least min-speedup times faster.
// Reports whose detected-cores annotation is below N skip the scaling gate
// with a logged annotation — a 1-core runner cannot demonstrate a speedup,
// and failing there would just test the CI hardware.
//
// The paper's end-to-end claims (capture overhead, trace vs re-execution,
// the served and sharded interactive loop) are measured by the claims
// benchmark under benchmark/, not here; see docs/benchmarks.md.
//
// Usage:
//
//	smokebench -exp compress,parscale,plan -scale tiny -reps 1 -json bench/out
//	benchgate -baseline bench/baselines -current bench/out -tol 2.0 -slack-ms 10 \
//	    -at-workers 4 -min-speedup 1.2 -scaling-min-ms 20
package main

import (
	"flag"
	"fmt"
	"os"

	"smoke/internal/bench"
)

func main() {
	baseline := flag.String("baseline", "bench/baselines", "directory of checked-in baseline BENCH_*.json files")
	current := flag.String("current", "bench/out", "directory of freshly emitted BENCH_*.json files")
	tol := flag.Float64("tol", 2.0, "multiplicative latency tolerance (fail when current > baseline*tol + slack)")
	slack := flag.Float64("slack-ms", 10, "additive slack in milliseconds (absorbs timer noise on tiny rows)")
	atWorkers := flag.Int("at-workers", 4, "parallel worker count compared against workers=1 by the scaling gate")
	minSpeedup := flag.Float64("min-speedup", 1.2, "required ms(workers=1)/ms(workers=N) ratio; 0 disables the scaling gate")
	scalingMinMS := flag.Float64("scaling-min-ms", 20, "scaling-gate noise floor: skip pairs whose serial latency is below this")
	flag.Parse()

	cfg := bench.GateConfig{Tolerance: *tol, SlackMS: *slack}
	fail := false
	if err := bench.CompareGateDirs(*baseline, *current, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL\n%v\n", err)
		fail = true
	}
	scfg := bench.ScalingConfig{
		AtWorkers:  *atWorkers,
		MinSpeedup: *minSpeedup,
		MinMS:      *scalingMinMS,
		Logf: func(format string, args ...any) {
			fmt.Printf("benchgate: "+format+"\n", args...)
		},
	}
	if err := bench.ScalingGateDir(*current, scfg); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL\n%v\n", err)
		fail = true
	}
	if fail {
		os.Exit(1)
	}
	fmt.Printf("benchgate: OK (%s vs %s, tol %.1fx + %.0fms; scaling w%d >= %.2fx)\n",
		*current, *baseline, *tol, *slack, *atWorkers, *minSpeedup)
}
