package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Bench-regression gating: CI runs the smoke experiments at tiny scale with
// -json, then compares the emitted BENCH_*.json files against the
// checked-in baselines (bench/baselines/*.json) with a latency tolerance.
// Lineage-equality failures abort the experiments themselves (non-zero
// exit), so the gate only has to catch latency regressions and vanished
// measurement rows.
//
// Rows are matched by their identity fields (every non-numeric field plus
// integer shape fields like workers), and a row regresses when
//
//	current_ms > baseline_ms * tolerance + slackMS
//
// The additive slack absorbs scheduler noise on sub-millisecond tiny-scale
// rows, where a pure ratio would flake; a genuine regression clears both.

// GateConfig tunes the comparison.
type GateConfig struct {
	// Tolerance is the multiplicative latency budget (e.g. 2.0 = fail when
	// a row is more than 2x slower than its baseline).
	Tolerance float64
	// SlackMS is the additive grace in milliseconds on top of the ratio.
	SlackMS float64
}

// benchReport is the shape every BENCH_*.json shares: a "rows" array of flat
// objects with an "ms" measurement, an optional "capture_rows" array of the
// same shape (worker-scaling measurements of the capture itself), and a
// "cores" annotation recording how many CPUs the emitting machine detected —
// the scaling gate trusts it to decide whether a multi-worker comparison is
// meaningful on that machine.
type benchReport struct {
	Cores       int              `json:"cores"`
	Rows        []map[string]any `json:"rows"`
	CaptureRows []map[string]any `json:"capture_rows"`
}

// allRows flattens the regular and capture-scaling rows; both are gated.
func (r benchReport) allRows() []map[string]any {
	if len(r.CaptureRows) == 0 {
		return r.Rows
	}
	all := make([]map[string]any, 0, len(r.Rows)+len(r.CaptureRows))
	all = append(all, r.Rows...)
	return append(all, r.CaptureRows...)
}

// measurementField reports whether a row field is a measurement (gated or
// derived) rather than part of the row's identity. Latency fields ("ms" and
// any "*_ms") are gated; speedups and compress's size columns are derived
// and ignored — they vary run to run and must never split a row's identity.
func measurementField(k string) bool {
	return latencyField(k) || strings.HasPrefix(k, "speedup") ||
		k == "bytes_per_rid" || k == "index_bytes" || k == "cardinality"
}

// latencyField reports whether a measurement is a gated latency.
func latencyField(k string) bool {
	return k == "ms" || strings.HasSuffix(k, "_ms")
}

// rowKey builds a row's identity: every non-measurement field, rendered in
// sorted field order.
func rowKey(row map[string]any) string {
	keys := make([]string, 0, len(row))
	for k := range row {
		if measurementField(k) {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%v", k, row[k])
	}
	return strings.Join(parts, " ")
}

// CompareGateFile compares one current bench JSON against its baseline:
// every baseline row with an "ms" field must exist in the current report
// and stay within the latency budget.
func CompareGateFile(baselinePath, currentPath string, cfg GateConfig) error {
	base, err := readReport(baselinePath)
	if err != nil {
		return fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	cur, err := readReport(currentPath)
	if err != nil {
		return fmt.Errorf("current %s: %w", currentPath, err)
	}
	curMS := map[string]map[string]float64{}
	for _, row := range cur.allRows() {
		m := map[string]float64{}
		for k, v := range row {
			if f, ok := v.(float64); ok && latencyField(k) {
				m[k] = f
			}
		}
		curMS[rowKey(row)] = m
	}
	var failures []string
	for _, row := range base.allRows() {
		key := rowKey(row)
		var fields []string
		for k, v := range row {
			if _, ok := v.(float64); ok && latencyField(k) {
				fields = append(fields, k)
			}
		}
		if len(fields) == 0 {
			continue
		}
		sort.Strings(fields)
		got, ok := curMS[key]
		if !ok {
			failures = append(failures, fmt.Sprintf("row %q vanished from %s", key, filepath.Base(currentPath)))
			continue
		}
		for _, k := range fields {
			baseMS := row[k].(float64)
			cur, ok := got[k]
			if !ok {
				failures = append(failures, fmt.Sprintf("row %q lost field %s", key, k))
				continue
			}
			if budget := baseMS*cfg.Tolerance + cfg.SlackMS; cur > budget {
				failures = append(failures,
					fmt.Sprintf("row %q %s regressed: %.2fms > %.2fms (baseline %.2fms x %.1f + %.0fms slack)",
						key, k, cur, budget, baseMS, cfg.Tolerance, cfg.SlackMS))
			}
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench gate: %s:\n  %s", filepath.Base(baselinePath), strings.Join(failures, "\n  "))
	}
	return nil
}

// CompareGateDirs gates every baseline file against the matching file in
// currentDir. A baseline without a current counterpart fails (the experiment
// silently stopped emitting).
func CompareGateDirs(baselineDir, currentDir string, cfg GateConfig) error {
	matches, err := filepath.Glob(filepath.Join(baselineDir, "*.json"))
	if err != nil {
		return err
	}
	if len(matches) == 0 {
		return fmt.Errorf("bench gate: no baselines under %s", baselineDir)
	}
	var failures []string
	for _, basePath := range matches {
		curPath := filepath.Join(currentDir, filepath.Base(basePath))
		if _, err := os.Stat(curPath); err != nil {
			failures = append(failures, fmt.Sprintf("missing current report %s", filepath.Base(basePath)))
			continue
		}
		if err := CompareGateFile(basePath, curPath, cfg); err != nil {
			failures = append(failures, err.Error())
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%s", strings.Join(failures, "\n"))
	}
	return nil
}

// ScalingConfig tunes the worker-scaling gate. It inspects only the CURRENT
// reports (no baseline needed): for every measurement that exists at both
// workers=1 and workers=AtWorkers with otherwise-identical identity, the
// parallel run must be at least MinSpeedup times faster than the serial one.
// This is the regression net for the morsel dispatch path — a merge that
// stops scaling, a pool that serializes, a kernel that re-grows scratch per
// morsel all show up as a collapsed ratio long before they show up as
// absolute latency.
type ScalingConfig struct {
	// AtWorkers is the parallel worker count compared against workers=1.
	AtWorkers int
	// MinSpeedup is the required ms(workers=1) / ms(workers=AtWorkers)
	// ratio. <= 0 disables the gate.
	MinSpeedup float64
	// MinMS is the noise floor: a pair whose serial latency is below this is
	// skipped — sub-millisecond tiny-scale rows are dominated by dispatch
	// constants and scheduler jitter, and a ratio on them would flake.
	MinMS float64
	// Logf, when set, receives skip annotations (machine too small, pairs
	// under the noise floor). Defaults to discarding them.
	Logf func(format string, args ...any)
}

func (cfg ScalingConfig) logf(format string, args ...any) {
	if cfg.Logf != nil {
		cfg.Logf(format, args...)
	}
}

// scalingKey is a row's identity with the workers field removed, suffixed
// with the latency field name, so the same measurement at different worker
// counts collides into one comparison group.
func scalingKey(row map[string]any, field string) string {
	keys := make([]string, 0, len(row))
	for k := range row {
		if measurementField(k) || k == "workers" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys)+1)
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%v", k, row[k]))
	}
	return strings.Join(parts, " ") + " [" + field + "]"
}

// ScalingGateFile enforces the worker-scaling ratio on one current report.
// When the report's detected-cores annotation is below AtWorkers the gate
// skips with a logged annotation instead of failing: on a 1- or 2-core CI
// runner a workers=4 run CANNOT be faster, and gating on it would make the
// check machine-dependent in exactly the wrong direction.
func ScalingGateFile(path string, cfg ScalingConfig) error {
	if cfg.MinSpeedup <= 0 || cfg.AtWorkers <= 1 {
		return nil
	}
	rep, err := readReport(path)
	if err != nil {
		return fmt.Errorf("scaling gate: %s: %w", path, err)
	}
	if rep.Cores > 0 && rep.Cores < cfg.AtWorkers {
		cfg.logf("scaling gate: %s: skipped (detected %d cores < %d workers)",
			filepath.Base(path), rep.Cores, cfg.AtWorkers)
		return nil
	}
	serial := map[string]float64{}
	parallel := map[string]float64{}
	for _, row := range rep.allRows() {
		w, ok := row["workers"].(float64)
		if !ok {
			continue
		}
		for k, v := range row {
			f, isNum := v.(float64)
			if !isNum || !latencyField(k) {
				continue
			}
			switch int(w) {
			case 1:
				serial[scalingKey(row, k)] = f
			case cfg.AtWorkers:
				parallel[scalingKey(row, k)] = f
			}
		}
	}
	var failures []string
	keys := make([]string, 0, len(serial))
	for k := range serial {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		s := serial[key]
		p, ok := parallel[key]
		if !ok {
			// Serial-only measurements (e.g. a reference path that has no
			// parallel variant) are not scaling pairs. Vanished rows are the
			// regression gate's job, not this one's.
			cfg.logf("scaling gate: %s: %q skipped (no workers=%d counterpart)",
				filepath.Base(path), key, cfg.AtWorkers)
			continue
		}
		if s < cfg.MinMS {
			cfg.logf("scaling gate: %s: %q skipped (serial %.2fms under %.2fms noise floor)",
				filepath.Base(path), key, s, cfg.MinMS)
			continue
		}
		if p <= 0 {
			continue
		}
		if ratio := s / p; ratio < cfg.MinSpeedup {
			failures = append(failures,
				fmt.Sprintf("%q scaling collapsed: workers=%d is %.2fx vs workers=1 (%.2fms vs %.2fms), need >= %.2fx",
					key, cfg.AtWorkers, ratio, p, s, cfg.MinSpeedup))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("scaling gate: %s:\n  %s", filepath.Base(path), strings.Join(failures, "\n  "))
	}
	return nil
}

// ScalingGateDir applies the scaling gate to every report in currentDir.
// Reports without multi-worker rows pass trivially.
func ScalingGateDir(currentDir string, cfg ScalingConfig) error {
	matches, err := filepath.Glob(filepath.Join(currentDir, "*.json"))
	if err != nil {
		return err
	}
	var failures []string
	for _, path := range matches {
		if err := ScalingGateFile(path, cfg); err != nil {
			failures = append(failures, err.Error())
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%s", strings.Join(failures, "\n"))
	}
	return nil
}

func readReport(path string) (benchReport, error) {
	var rep benchReport
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, err
	}
	return rep, nil
}
