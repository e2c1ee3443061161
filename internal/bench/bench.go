// Package bench regenerates every table and figure of the paper's evaluation
// (§6 and Appendix G). Each Fig* runner executes the experiment's workload
// and prints the same series the paper plots; cmd/smokebench exposes them as
// a CLI, and the repository root's bench_test.go exposes them as testing.B
// benchmarks. Absolute numbers differ from the paper (different hardware and
// language runtime); the orderings and rough ratios are the reproduction
// target — see docs/benchmarks.md for the per-experiment index and gates.
// The engine-level end-to-end claims live in the benchmark/ program instead.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// Config controls experiment scale and output.
type Config struct {
	// Scale is "small" (seconds per experiment; the default for tests and
	// benchmarks), "paper" (the paper's dataset sizes where feasible), or
	// "tiny" (sub-second; the CI smoke-job scale — correctness gates still
	// run, timings are noise).
	Scale string
	// Reps is how many timed repetitions the median is taken over.
	Reps int
	// W receives the experiment's rows.
	W io.Writer
}

// DefaultConfig returns the small-scale configuration.
func DefaultConfig(w io.Writer) Config {
	return Config{Scale: "small", Reps: 3, W: w}
}

func (c Config) paper() bool { return c.Scale == "paper" }
func (c Config) tiny() bool  { return c.Scale == "tiny" }

// Median runs f reps times and returns the median wall-clock duration. A GC
// runs before each repetition so one experiment's garbage is not charged to
// the next (the GC-noise repro note in DESIGN.md).
func (c Config) Median(f func()) time.Duration {
	reps := c.Reps
	if reps < 1 {
		reps = 1
	}
	times := make([]time.Duration, reps)
	for i := range times {
		runtime.GC()
		start := time.Now()
		f()
		times[i] = time.Since(start)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[reps/2]
}

func (c Config) printf(format string, args ...any) {
	fmt.Fprintf(c.W, format, args...)
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000.0 }

// overhead reports the relative overhead of d over baseline, the paper's
// headline capture metric ("0.22×" means 22% slower than no capture).
func overhead(d, baseline time.Duration) float64 {
	if baseline <= 0 {
		return 0
	}
	return float64(d-baseline) / float64(baseline)
}

// withOv renders "latency (overhead×)" relative to a baseline.
func withOv(d, base time.Duration) string {
	return fmt.Sprintf("%.1f (%.2fx)", ms(d), overhead(d, base))
}

// Runner executes one experiment.
type Runner func(Config) error

// Experiments maps experiment ids (DESIGN.md per-experiment index) to
// runners.
func Experiments() map[string]Runner {
	return map[string]Runner{
		"fig5":     Fig5,
		"fig5tc":   Fig5TC,
		"fig6":     Fig6,
		"fig7":     Fig7,
		"fig8":     Fig8,
		"fig9":     Fig9,
		"fig10":    Fig10,
		"fig11":    Fig11,
		"fig12":    Fig12,
		"fig13":    Fig13,
		"fig14":    Fig14,
		"fig15":    Fig15,
		"fig21":    Fig21,
		"fig22":    Fig22,
		"fig23":    Fig23,
		"parscale": ParScale,
		"compress": Compress,
		"plan":     PlanBench,
	}
}

// Order lists experiment ids in paper order (map iteration is random).
func Order() []string {
	return []string{
		"fig5", "fig5tc", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig21", "fig22", "fig23",
		"parscale", "compress", "plan",
	}
}
