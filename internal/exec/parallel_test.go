package exec_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"smoke/internal/exec"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/pool"
	"smoke/internal/storage"
	"smoke/internal/tpch"
)

// sameIndex asserts two lineage indexes are element-for-element identical.
func sameIndex(t *testing.T, what string, got, want *lineage.Index) {
	t.Helper()
	if got.Kind != want.Kind {
		t.Fatalf("%s: kind %v, want %v", what, got.Kind, want.Kind)
	}
	if got.Kind == lineage.OneToOne {
		if !reflect.DeepEqual(got.Arr, want.Arr) {
			t.Fatalf("%s: rid arrays differ (len %d vs %d)", what, len(got.Arr), len(want.Arr))
		}
		return
	}
	if got.Many.Len() != want.Many.Len() {
		t.Fatalf("%s: %d entries, want %d", what, got.Many.Len(), want.Many.Len())
	}
	for i := 0; i < want.Many.Len(); i++ {
		g, w := got.Many.List(i), want.Many.List(i)
		if len(g) == 0 && len(w) == 0 {
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s[%d]: %v, want %v", what, i, g, w)
		}
	}
}

func sameCapture(t *testing.T, tag string, got, want *lineage.Capture) {
	t.Helper()
	gr, wr := got.Relations(), want.Relations()
	if len(gr) != len(wr) {
		t.Fatalf("%s: captured relations %v, want %v", tag, gr, wr)
	}
	for _, rel := range wr {
		if want.HasBackward(rel) != got.HasBackward(rel) || want.HasForward(rel) != got.HasForward(rel) {
			t.Fatalf("%s: direction presence differs for %s", tag, rel)
		}
		if want.HasBackward(rel) {
			wix, _ := want.BackwardIndex(rel)
			gix, _ := got.BackwardIndex(rel)
			sameIndex(t, tag+" bw "+rel, gix, wix)
		}
		if want.HasForward(rel) {
			wix, _ := want.ForwardIndex(rel)
			gix, _ := got.ForwardIndex(rel)
			sameIndex(t, tag+" fw "+rel, gix, wix)
		}
	}
}

// TestSPJAParallelMatchesSerial runs every TPC-H evaluation query under all
// capture modes and both directions at several worker counts and requires
// the output relation, group counts, and every backward/forward index to be
// element-for-element identical to the serial run.
func TestSPJAParallelMatchesSerial(t *testing.T) {
	db := tpch.Generate(0.002, 42)
	p := pool.New(4)
	defer p.Close()
	for name, spec := range db.Queries() {
		for _, mode := range []ops.CaptureMode{ops.None, ops.Inject, ops.Defer} {
			for _, dirs := range []ops.Directions{ops.CaptureBackward, ops.CaptureForward, ops.CaptureBoth} {
				serial, err := exec.Run(spec, exec.Opts{Mode: mode, Dirs: dirs})
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{2, 4, 5} {
					par, err := exec.Run(spec, exec.Opts{Mode: mode, Dirs: dirs, Workers: workers, Pool: p})
					if err != nil {
						t.Fatal(err)
					}
					tag := fmt.Sprintf("%s mode=%v dirs=%b w=%d", name, mode, dirs, workers)
					if par.Out.N != serial.Out.N {
						t.Fatalf("%s: %d groups, want %d", tag, par.Out.N, serial.Out.N)
					}
					for c, f := range serial.Out.Schema {
						if f.Type == storage.TFloat {
							// Partial sums accumulate per partition, so float
							// aggregates can differ from serial in the last
							// ulp (addition order); lineage never does.
							for i, w := range serial.Out.Cols[c].Floats {
								g := par.Out.Cols[c].Floats[i]
								if diff := math.Abs(g - w); diff > 1e-9*(1+math.Abs(w)) {
									t.Fatalf("%s: %s[%d] = %v, want %v", tag, f.Name, i, g, w)
								}
							}
							continue
						}
						if !reflect.DeepEqual(par.Out.Cols[c], serial.Out.Cols[c]) {
							t.Fatalf("%s: output column %s differs", tag, f.Name)
						}
					}
					if !reflect.DeepEqual(par.GroupCounts, serial.GroupCounts) {
						t.Fatalf("%s: group counts differ", tag)
					}
					if mode != ops.None {
						sameCapture(t, tag, par.Capture, serial.Capture)
					}
				}
			}
		}
	}
}

// TestSPJAParallelTableDirsPruning checks the §4.1 pruning knobs survive the
// parallel path: per-table direction overrides must prune the same indexes.
func TestSPJAParallelTableDirsPruning(t *testing.T) {
	db := tpch.Generate(0.002, 42)
	p := pool.New(4)
	defer p.Close()
	spec := db.Q3()
	dirs := make([]ops.Directions, len(spec.Tables))
	dirs[len(dirs)-1] = ops.CaptureBackward // only the fact table, backward only
	serial, err := exec.Run(spec, exec.Opts{Mode: ops.Inject, TableDirs: dirs})
	if err != nil {
		t.Fatal(err)
	}
	par, err := exec.Run(spec, exec.Opts{Mode: ops.Inject, TableDirs: dirs, Workers: 4, Pool: p})
	if err != nil {
		t.Fatal(err)
	}
	sameCapture(t, "q3 pruned", par.Capture, serial.Capture)
	if len(par.Capture.Relations()) != 1 {
		t.Fatalf("pruning failed: captured %v", par.Capture.Relations())
	}
}
