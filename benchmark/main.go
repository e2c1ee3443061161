// Command benchmark is the repository's claims benchmark: five closed-loop
// workloads that measure the system as its users meet it (crossfilter
// sessions over HTTP; in-process analysts running captured queries and
// lineage queries), and each layer from outside by timing calls into its
// public functions. README.md defines every metric; BENCHMARK.json declares
// them to the driver.
//
//	benchmark -workload NAME -seed N -seconds S -trace 0|1   one workload, in this process
//	benchmark -all [-trace 1] [-out DIR]                     every workload, one subprocess each
//	benchmark -calibrate N                                   N back-to-back -all runs: spread and implied bound
//	benchmark -compare A.json B.json                         apply each bound per workload row
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one workload run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     string // "full" | "tiny" (the smoke test's scale)
	outDir   string
	tmpDir   string // scratch for disk stores, inside outDir
}

// warmup lets caches fill, pools start and the flusher reach steady state
// before anything is timed.
func (c config) warmup() time.Duration { return c.dur(0.15) }

// window is the timed window of the untraced run.
func (c config) window() time.Duration { return c.dur(1) }

func (c config) dur(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// outcome is what a workload hands back: the timed window of an untraced
// run, or the per-layer metrics and spans of a traced one.
type outcome struct {
	setupS      float64
	bytesPerRid float64
	window      *windowStats       // untraced run
	layer       map[string]float64 // traced run: declared per-layer metrics (absent = 0)
	rec         *recorder          // traced run
	shares      map[string]map[string]float64
	attempted   int // traced run: ops replayed
	failed      int
}

// metricValue and result are the driver's output shape: the last line of
// standard output is one result.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var runners = map[string]func(config) (*outcome, error){
	"xfilter-http":   runXFilter,
	"xfilter-churn":  runXFilter,
	"xfilter-shard2": runXFilter,
	"capture-olap":   runOLAP,
	"trace-sweep":    runSweep,
}

// runWorkload executes one workload in this process and returns its result
// plus the flags that mark it unstable.
func runWorkload(cfg config) (*result, []string, error) {
	run, ok := runners[cfg.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)
	cfg.tmpDir = tmp

	var probe *runtimeProbe
	if !cfg.trace {
		probe = startRuntimeProbe()
	}
	goroutines0 := runtime.NumGoroutine()
	out, err := run(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	// The runner has torn its deployment down: whatever still runs leaked.
	out.layer["runtime.goroutines_leaked"] = float64(max(0, settleGoroutines(goroutines0)-goroutines0))
	res := &result{Metrics: map[string]metricValue{}}
	var unstable []string

	if cfg.trace {
		res.Attempted, res.Failed = max(out.attempted, 1), out.failed
		for _, d := range perLayer {
			res.Metrics[d.Name] = metricValue{out.layer[d.Name], d.Unit}
		}
		for k := range out.layer {
			if _, declared := res.Metrics[k]; !declared {
				return nil, nil, fmt.Errorf("%s: traced run produced undeclared metric %q", cfg.workload, k)
			}
		}
		if out.layer["runtime.calib_drift"] > 0.10 {
			unstable = append(unstable, "calib_drift")
		}
		if out.rec != nil {
			path := filepath.Join(cfg.outDir, cfg.workload+".trace.jsonl")
			if err := out.rec.flush(path); err != nil {
				return nil, nil, err
			}
			fmt.Printf("# %d spans -> %s\n", len(out.rec.spans), path)
		}
		for _, root := range sortedKeys(out.shares) {
			fmt.Printf("# self-time shares of %s:", root)
			for _, layer := range sortedKeys(out.shares[root]) {
				fmt.Printf(" %s=%.3f", layer, out.shares[root][layer])
			}
			fmt.Println()
		}
	} else {
		e2e, err := endToEndMetrics(out.window, out.setupS, out.bytesPerRid)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", cfg.workload, err)
		}
		res.Attempted, res.Failed, _ = out.window.counts()
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metricValue{e2e[d.Name], d.Unit}
		}
		rt := probe.finish(res.Attempted)
		if rt["runtime.calib_drift"] > 0.10 {
			unstable = append(unstable, "calib_drift")
		}
		for c := opClass(0); c < numClasses; c++ {
			if xs := out.window.byClass(c); len(xs) > 0 {
				fmt.Printf("# %-14s %s ms\n", c, summarize(xs))
			}
		}
		fmt.Printf("# failed_frac %.6f (%d of %d)  window %.2f s  calib_drift %.3f  leaked goroutines %.0f\n",
			float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted, out.window.windowS,
			rt["runtime.calib_drift"], out.layer["runtime.goroutines_leaked"])
		if out.layer["runtime.goroutines_leaked"] > 0 {
			unstable = append(unstable, "goroutines_leaked")
		}
	}
	res.Correct = res.Failed == 0
	return res, unstable, nil
}

// printMetrics lists every metric by name with its unit.
func printMetrics(workload string, res *result, defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("%-16s %-34s %14.6g %s\n", workload, d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
}

func main() {
	var (
		cfg        config
		trace      int
		all        bool
		appendRun  bool
		calibrateN int
		compare    bool
		manifest   bool
	)
	flag.StringVar(&cfg.workload, "workload", "", "run one workload in this process")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: same seed, same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run (per-layer metrics, span file); 0: end-to-end run")
	flag.StringVar(&cfg.size, "size", "full", "full | tiny (smoke-test scale)")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("benchmark", "out"), "directory for result, trace and scratch files")
	flag.BoolVar(&all, "all", false, "run every workload, each in its own subprocess")
	flag.BoolVar(&appendRun, "append", false, "with -all: add this run to the summary's runs instead of replacing them")
	flag.IntVar(&calibrateN, "calibrate", 0, "run -all N times; print per-metric spread and the bound it implies")
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare A.json B.json")
	flag.BoolVar(&manifest, "manifest", false, "print BENCHMARK.json as the metric tables define it")
	flag.Parse()
	cfg.trace = trace != 0

	var err error
	switch {
	case manifest:
		_, err = os.Stdout.Write(manifestJSON())
	case compare:
		err = runCompare(flag.Args())
	case calibrateN > 0:
		err = runCalibrate(cfg, calibrateN)
	case all:
		_, err = runAll(cfg, appendRun)
	case cfg.workload != "":
		err = runOne(cfg)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne is the driver's entry: one workload in this process, the result as
// the last line of standard output.
func runOne(cfg config) error {
	res, unstable, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	printMetrics(cfg.workload, res, defs)
	if len(unstable) > 0 {
		fmt.Printf("# unstable: %v\n", unstable)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
