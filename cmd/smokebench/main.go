// Command smokebench regenerates the paper's tables and figures (DESIGN.md
// per-experiment index). Each experiment prints the series the corresponding
// figure plots. The end-to-end claims benchmark is `bash benchmark/run.sh`.
//
// Usage:
//
//	smokebench -exp fig5,fig8          # run specific experiments
//	smokebench -exp all                # run everything, paper order
//	smokebench -exp fig13 -scale paper # paper-scale datasets (slow, RAM-hungry)
//	smokebench -exp compress,parscale,plan -scale tiny -reps 1
//	                                   # CI smoke-job: lineage-equality gates at
//	                                   # sub-second scale
//	smokebench -exp plan -profile prof # also write prof/profile_cpu.pprof and
//	                                   # prof/profile_heap.pprof for
//	                                   # `go tool pprof` drill-down
//	smokebench -list                   # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"smoke/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids (see -list), or 'all'")
	scale := flag.String("scale", "small", "dataset scale: tiny | small | paper")
	reps := flag.Int("reps", 3, "timed repetitions per measurement (median reported)")
	profileDir := flag.String("profile", "", "directory for pprof artifacts (created if missing): CPU profile over the whole experiment run (profile_cpu.pprof) plus an end-of-run heap profile (profile_heap.pprof)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, id := range bench.Order() {
			fmt.Println(id)
		}
		return
	}

	cfg := bench.Config{Scale: *scale, Reps: *reps, W: os.Stdout}
	runners := bench.Experiments()

	var cpuProf *os.File
	if *profileDir != "" {
		if err := os.MkdirAll(*profileDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "smokebench: %v\n", err)
			os.Exit(1)
		}
		var err error
		cpuProf, err = os.Create(filepath.Join(*profileDir, "profile_cpu.pprof"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "smokebench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(cpuProf); err != nil {
			fmt.Fprintf(os.Stderr, "smokebench: start cpu profile: %v\n", err)
			os.Exit(1)
		}
	}

	var ids []string
	if *exp == "all" {
		ids = bench.Order()
	} else {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		r, ok := runners[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "smokebench: unknown experiment %q (try -list)\n", id)
			os.Exit(1)
		}
		start := time.Now()
		if err := r(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "smokebench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stdout, "[%s completed in %s]\n\n", id, time.Since(start).Round(time.Millisecond))
	}

	if cpuProf != nil {
		pprof.StopCPUProfile()
		cpuProf.Close()
		heapProf, err := os.Create(filepath.Join(*profileDir, "profile_heap.pprof"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "smokebench: %v\n", err)
			os.Exit(1)
		}
		runtime.GC() // settle live-heap accounting before the snapshot
		if err := pprof.WriteHeapProfile(heapProf); err != nil {
			fmt.Fprintf(os.Stderr, "smokebench: heap profile: %v\n", err)
			os.Exit(1)
		}
		heapProf.Close()
		fmt.Fprintf(os.Stdout, "wrote %s and %s\n",
			filepath.Join(*profileDir, "profile_cpu.pprof"),
			filepath.Join(*profileDir, "profile_heap.pprof"))
	}
}
