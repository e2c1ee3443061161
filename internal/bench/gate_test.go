package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const gateBaseline = `{
  "tuples": 100000,
  "rows": [
    {"op": "select", "workers": 1, "ms": 10.0, "speedup_vs_serial": 1.0},
    {"op": "select", "workers": 4, "ms": 4.0, "speedup_vs_serial": 2.5},
    {"op": "groupby", "workers": 1, "ms": 20.0, "speedup_vs_serial": 1.0}
  ]
}`

// TestGateCoversSuffixedLatencyFields: a row may measure *_ms fields
// instead of ms; those gate too, and derived fields (bytes_per_rid,
// index_bytes) stay out of the identity.
func TestGateCoversSuffixedLatencyFields(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", `{
  "rows": [
    {"workload": "zipf", "repr": "raw", "bytes_per_rid": 4.0, "index_bytes": 1000, "backward_trace_ms": 1.0, "forward_trace_ms": 0.5}
  ]
}`)
	cur := writeReport(t, dir, "cur.json", `{
  "rows": [
    {"workload": "zipf", "repr": "raw", "bytes_per_rid": 3.5, "index_bytes": 900, "backward_trace_ms": 30.0, "forward_trace_ms": 0.5}
  ]
}`)
	err := CompareGateFile(base, cur, GateConfig{Tolerance: 2.0, SlackMS: 5})
	if err == nil || !strings.Contains(err.Error(), "backward_trace_ms") {
		t.Fatalf("suffixed latency regression must fail and name the field, got: %v", err)
	}
}

// TestGatePassesWithinTolerance: small drift (and speedup changes, which are
// not identity fields) stays green.
func TestGatePassesWithinTolerance(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", gateBaseline)
	cur := writeReport(t, dir, "cur.json", `{
  "rows": [
    {"op": "select", "workers": 1, "ms": 14.0, "speedup_vs_serial": 0.9},
    {"op": "select", "workers": 4, "ms": 7.0, "speedup_vs_serial": 2.0},
    {"op": "groupby", "workers": 1, "ms": 25.0, "speedup_vs_serial": 1.0},
    {"op": "groupby", "workers": 4, "ms": 9.0, "speedup_vs_serial": 2.0}
  ]
}`)
	if err := CompareGateFile(base, cur, GateConfig{Tolerance: 2.0, SlackMS: 5}); err != nil {
		t.Fatalf("within-tolerance run should pass: %v", err)
	}
}

// TestGateFailsOnSeededRegression: a >2x latency regression on one row fails
// with that row named — the CI acceptance demonstration.
func TestGateFailsOnSeededRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", gateBaseline)
	cur := writeReport(t, dir, "cur.json", `{
  "rows": [
    {"op": "select", "workers": 1, "ms": 60.0},
    {"op": "select", "workers": 4, "ms": 4.0},
    {"op": "groupby", "workers": 1, "ms": 20.0}
  ]
}`)
	err := CompareGateFile(base, cur, GateConfig{Tolerance: 2.0, SlackMS: 5})
	if err == nil {
		t.Fatal("seeded 6x regression must fail the gate")
	}
	if !strings.Contains(err.Error(), "op=select") || !strings.Contains(err.Error(), "workers=1") {
		t.Fatalf("failure should name the regressed row, got: %v", err)
	}
}

// TestGateFailsOnVanishedRow: dropping a measured row (an experiment
// silently losing coverage) fails.
func TestGateFailsOnVanishedRow(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", gateBaseline)
	cur := writeReport(t, dir, "cur.json", `{
  "rows": [
    {"op": "select", "workers": 1, "ms": 10.0}
  ]
}`)
	err := CompareGateFile(base, cur, GateConfig{Tolerance: 2.0, SlackMS: 5})
	if err == nil || !strings.Contains(err.Error(), "vanished") {
		t.Fatalf("vanished rows must fail the gate, got: %v", err)
	}
}

// TestGateCoversCaptureRows: capture_rows are gated like rows — a vanished
// or regressed scaling measurement fails even though it lives in the second
// array.
func TestGateCoversCaptureRows(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", `{
  "rows": [],
  "capture_rows": [
    {"workload": "zipf", "op": "capture-compressed", "workers": 4, "ms": 5.0}
  ]
}`)
	cur := writeReport(t, dir, "cur.json", `{
  "rows": [],
  "capture_rows": [
    {"workload": "zipf", "op": "capture-compressed", "workers": 4, "ms": 60.0}
  ]
}`)
	err := CompareGateFile(base, cur, GateConfig{Tolerance: 2.0, SlackMS: 5})
	if err == nil || !strings.Contains(err.Error(), "capture-compressed") {
		t.Fatalf("capture_rows regression must fail and name the row, got: %v", err)
	}
}

const scalingHealthy = `{
  "cores": 8,
  "rows": [
    {"query": "star", "path": "fused", "workers": 1, "ms": 100.0},
    {"query": "star", "path": "fused", "workers": 4, "ms": 30.0}
  ],
  "capture_rows": [
    {"workload": "zipf", "op": "capture-compressed", "workers": 1, "ms": 80.0},
    {"workload": "zipf", "op": "capture-compressed", "workers": 4, "ms": 25.0}
  ]
}`

// TestScalingGatePassesOnHealthyRatio: 100ms -> 30ms at workers=4 clears a
// 1.2x floor, in both rows and capture_rows.
func TestScalingGatePassesOnHealthyRatio(t *testing.T) {
	dir := t.TempDir()
	path := writeReport(t, dir, "BENCH_plan.json", scalingHealthy)
	cfg := ScalingConfig{AtWorkers: 4, MinSpeedup: 1.2, MinMS: 1}
	if err := ScalingGateFile(path, cfg); err != nil {
		t.Fatalf("healthy scaling should pass: %v", err)
	}
}

// TestScalingGateFailsOnCollapse: a parallel run slower than serial on an
// 8-core report fails with the pair named.
func TestScalingGateFailsOnCollapse(t *testing.T) {
	dir := t.TempDir()
	path := writeReport(t, dir, "BENCH_plan.json", `{
  "cores": 8,
  "rows": [
    {"query": "star", "path": "fused", "workers": 1, "ms": 100.0},
    {"query": "star", "path": "fused", "workers": 4, "ms": 95.0}
  ]
}`)
	err := ScalingGateFile(path, ScalingConfig{AtWorkers: 4, MinSpeedup: 1.2, MinMS: 1})
	if err == nil || !strings.Contains(err.Error(), "scaling collapsed") || !strings.Contains(err.Error(), "query=star") {
		t.Fatalf("collapsed scaling must fail and name the pair, got: %v", err)
	}
}

// TestScalingGateSkipsOnSmallMachine: the same collapsed report passes when
// the emitting machine detected fewer cores than the compared worker count,
// and the skip is announced through Logf.
func TestScalingGateSkipsOnSmallMachine(t *testing.T) {
	dir := t.TempDir()
	path := writeReport(t, dir, "BENCH_plan.json", `{
  "cores": 1,
  "rows": [
    {"query": "star", "path": "fused", "workers": 1, "ms": 100.0},
    {"query": "star", "path": "fused", "workers": 4, "ms": 95.0}
  ]
}`)
	var logged []string
	cfg := ScalingConfig{AtWorkers: 4, MinSpeedup: 1.2, MinMS: 1,
		Logf: func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }}
	if err := ScalingGateFile(path, cfg); err != nil {
		t.Fatalf("1-core report must skip, not fail: %v", err)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "skipped") {
		t.Fatalf("skip must be annotated via Logf, got: %v", logged)
	}
}

// TestScalingGateSkipsNoiseFloorAndUnpaired: sub-floor pairs and serial-only
// rows are logged skips, never failures.
func TestScalingGateSkipsNoiseFloorAndUnpaired(t *testing.T) {
	dir := t.TempDir()
	path := writeReport(t, dir, "BENCH_plan.json", `{
  "cores": 8,
  "rows": [
    {"path": "reference", "workers": 1, "ms": 50.0},
    {"path": "tinyrow", "workers": 1, "ms": 0.4},
    {"path": "tinyrow", "workers": 4, "ms": 0.9}
  ]
}`)
	var logged []string
	cfg := ScalingConfig{AtWorkers: 4, MinSpeedup: 1.2, MinMS: 5,
		Logf: func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }}
	if err := ScalingGateFile(path, cfg); err != nil {
		t.Fatalf("unpaired and sub-floor rows must skip: %v", err)
	}
	if len(logged) != 2 {
		t.Fatalf("expected 2 skip annotations, got: %v", logged)
	}
}

// TestScalingGateDisabled: MinSpeedup <= 0 turns the gate off entirely.
func TestScalingGateDisabled(t *testing.T) {
	dir := t.TempDir()
	writeReport(t, dir, "BENCH_plan.json", `{
  "cores": 8,
  "rows": [
    {"query": "star", "path": "fused", "workers": 1, "ms": 100.0},
    {"query": "star", "path": "fused", "workers": 4, "ms": 500.0}
  ]
}`)
	if err := ScalingGateDir(dir, ScalingConfig{AtWorkers: 4, MinSpeedup: 0}); err != nil {
		t.Fatalf("disabled gate must pass: %v", err)
	}
}

// TestGateDirs: a baseline file with no current counterpart fails; matching
// directories pass.
func TestGateDirs(t *testing.T) {
	baseDir, curDir := t.TempDir(), t.TempDir()
	writeReport(t, baseDir, "BENCH_x.json", gateBaseline)
	if err := CompareGateDirs(baseDir, curDir, GateConfig{Tolerance: 2.0, SlackMS: 5}); err == nil {
		t.Fatal("missing current report must fail")
	}
	writeReport(t, curDir, "BENCH_x.json", gateBaseline)
	if err := CompareGateDirs(baseDir, curDir, GateConfig{Tolerance: 2.0, SlackMS: 5}); err != nil {
		t.Fatalf("matching dirs should pass: %v", err)
	}
	if err := CompareGateDirs(filepath.Join(baseDir, "empty"), curDir, GateConfig{}); err == nil {
		t.Fatal("empty baseline dir must fail")
	}
}
