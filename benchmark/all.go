package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// runRecord is one -all run: every workload's result, in the driver's shape.
type runRecord struct {
	Env       environment        `json:"env"`
	Traced    bool               `json:"traced"`
	Workloads map[string]*result `json:"workloads"`
}

// resultFile is what -all and -calibrate write and -compare reads. Runs
// holds one entry per run; -all -append and -calibrate add to it.
type resultFile struct {
	Runs []runRecord `json:"runs"`
}

func summaryPath(cfg config) string {
	name := "summary.json"
	if cfg.trace {
		name = "summary.trace.json"
	}
	return filepath.Join(cfg.outDir, name)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s: holds no run", path)
	}
	return &f, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runSubprocess runs one workload in a fresh process of this binary, so
// peak_rss_mb, GC state and warmed caches never leak between workloads. It
// returns the parsed last line and any unstable flags the child printed.
func runSubprocess(cfg config, echo bool) (*result, []string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(exe,
		"-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-trace", trace, "-size", cfg.size, "-out", cfg.outDir)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = io.Writer(&buf), os.Stderr
	if echo {
		cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	}
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	var last string
	var unstable []string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if flags, ok := strings.CutPrefix(line, "# unstable: ["); ok {
			unstable = strings.Fields(strings.TrimSuffix(flags, "]"))
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, nil, fmt.Errorf("%s: last line is not a result: %w", cfg.workload, err)
	}
	return &res, unstable, nil
}

// runAll runs every workload in its own subprocess and writes
// <out>/<workload>.json plus the summary. With appendRun the summary keeps
// the runs it already holds (the alternating-pairs procedure).
func runAll(cfg config, appendRun bool) (*runRecord, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	rec := runRecord{Env: currentEnv(cfg), Traced: cfg.trace, Workloads: map[string]*result{}}
	var failed []string
	for _, w := range workloads {
		c := cfg
		c.workload = w.Name
		res, unstable, err := runSubprocess(c, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			failed = append(failed, w.Name)
			continue
		}
		for _, u := range unstable {
			rec.Env.Unstable = append(rec.Env.Unstable, w.Name+":"+u)
		}
		rec.Workloads[w.Name] = res
		suffix := ".json"
		if cfg.trace {
			suffix = ".layers.json"
		}
		one := runRecord{Env: rec.Env, Traced: cfg.trace, Workloads: map[string]*result{w.Name: res}}
		if err := writeJSON(filepath.Join(cfg.outDir, w.Name+suffix), resultFile{Runs: []runRecord{one}}); err != nil {
			return nil, err
		}
	}
	file := &resultFile{}
	if appendRun {
		if old, err := readResultFile(summaryPath(cfg)); err == nil {
			file = old
		}
	}
	file.Runs = append(file.Runs, rec)
	if err := writeJSON(summaryPath(cfg), file); err != nil {
		return nil, err
	}
	fmt.Printf("# wrote %s (%d run(s))\n", summaryPath(cfg), len(file.Runs))
	if len(failed) > 0 {
		return &rec, fmt.Errorf("workloads failed: %v", failed)
	}
	for name, res := range rec.Workloads {
		if !res.Correct {
			return &rec, fmt.Errorf("%s: %d of %d ops failed", name, res.Failed, res.Attempted)
		}
	}
	return &rec, nil
}

// series collects one metric's values over a file's runs.
func series(f *resultFile, workload, metric string) []float64 {
	var xs []float64
	for _, r := range f.Runs {
		if res, ok := r.Workloads[workload]; ok {
			if m, ok := res.Metrics[metric]; ok {
				xs = append(xs, m.Value)
			}
		}
	}
	return xs
}

// runCalibrate runs -all n times back to back and prints, per workload and
// end-to-end metric, the spread seen and the bound it implies:
// max(0.05, 2 × (max − min)/median).
func runCalibrate(cfg config, n int) error {
	if err := os.Remove(summaryPath(cfg)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	for i := 0; i < n; i++ {
		c := cfg
		c.seed = cfg.seed + int64(i) // the driver's spread check varies the seed too
		fmt.Printf("# calibrate run %d of %d (seed %d)\n", i+1, n, c.seed)
		if _, err := runAll(c, true); err != nil {
			return err
		}
	}
	f, err := readResultFile(summaryPath(cfg))
	if err != nil {
		return err
	}
	fmt.Printf("\n%-16s %-24s %12s %12s %12s %8s %8s %8s %8s\n",
		"workload", "metric", "min", "median", "max", "range", "iqr", "implied", "declared")
	for _, w := range workloads {
		for _, d := range endToEnd {
			xs := series(f, w.Name, d.Name)
			if len(xs) == 0 {
				continue
			}
			s := sorted(xs)
			med := median(xs)
			rng := 0.0
			if med != 0 {
				rng = (s[len(s)-1] - s[0]) / math.Abs(med)
			}
			implied := math.Max(0.05, 2*rng)
			flag := ""
			if spread(xs) > d.Bound/3 {
				flag = "  <- iqr above a third of the declared bound"
			}
			fmt.Printf("%-16s %-24s %12.5g %12.5g %12.5g %8.3f %8.3f %8.3f %8.3f%s\n",
				w.Name, d.Name, s[0], med, s[len(s)-1], rng, spread(xs), implied, d.Bound, flag)
		}
	}
	return nil
}

// runCompare applies each end-to-end metric's bound to every workload row of
// two result files (A is the base, B the candidate) and prints a verdict per
// row: ok, regressed, improved, or unresolved when either side's own runs
// spread wider than the bound.
func runCompare(args []string) error {
	if len(args) != 2 {
		return errors.New("-compare wants two result files: A.json B.json")
	}
	a, err := readResultFile(args[0])
	if err != nil {
		return err
	}
	b, err := readResultFile(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("A: %s (%d runs, commit %s)\nB: %s (%d runs, commit %s)\n",
		args[0], len(a.Runs), a.Runs[0].Env.Commit, args[1], len(b.Runs), b.Runs[0].Env.Commit)
	fmt.Printf("%-16s %-24s %12s %12s %-22s %8s %8s %6s %7s  %s\n",
		"workload", "metric", "A median", "B median", "B/A (base)", "A iqr", "B iqr", "bound", "B wins", "verdict")
	counts := map[string]int{}
	for _, w := range workloads {
		for _, d := range endToEnd {
			xa, xb := series(a, w.Name, d.Name), series(b, w.Name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := compareRow(d, xa, xb)
			counts[v.verdict]++
			fmt.Printf("%-16s %-24s %12.5g %12.5g %-22s %8.3f %8.3f %6.2f %7s  %s\n",
				w.Name, d.Name, v.medA, v.medB, fmt.Sprintf("%.3f (%.5g %s)", v.ratio, v.medA, d.Unit),
				v.spreadA, v.spreadB, d.Bound, v.wins, v.verdict)
		}
	}
	fmt.Printf("ok %d  improved %d  regressed %d  unresolved %d\n",
		counts["ok"], counts["improved"], counts["regressed"], counts["unresolved"])
	if counts["regressed"] > 0 {
		return fmt.Errorf("%d row(s) regressed", counts["regressed"])
	}
	return nil
}

type rowVerdict struct {
	medA, medB, ratio float64
	spreadA, spreadB  float64
	wins              string
	verdict           string
}

// compareRow judges one metric on one workload. worse is B's change in the
// metric's bad direction as a share of A's median.
func compareRow(d metricDef, xa, xb []float64) rowVerdict {
	v := rowVerdict{medA: median(xa), medB: median(xb), wins: "-"}
	if len(xa) > 1 {
		v.spreadA = spread(xa)
	}
	if len(xb) > 1 {
		v.spreadB = spread(xb)
	}
	if v.medA != 0 {
		v.ratio = v.medB / v.medA
	}
	worse := v.ratio - 1
	if d.Better == "higher" {
		worse = -worse
	}
	if n := min(len(xa), len(xb)); n > 1 {
		won := 0
		for i := 0; i < n; i++ {
			if (d.Better == "lower" && xb[i] < xa[i]) || (d.Better == "higher" && xb[i] > xa[i]) {
				won++
			}
		}
		v.wins = fmt.Sprintf("%d/%d", won, n)
	}
	switch {
	case math.Max(v.spreadA, v.spreadB) > d.Bound:
		v.verdict = "unresolved"
	case worse > d.Bound:
		v.verdict = "regressed"
	case worse < -d.Bound:
		v.verdict = "improved"
	default:
		v.verdict = "ok"
	}
	return v
}
