package exec_test

import (
	"fmt"
	"reflect"
	"testing"

	"smoke/internal/exec"
	"smoke/internal/ops"
	"smoke/internal/pool"
)

// TestRunLogicIdxMatchesSmokeCapture uses Logic-Idx — lineage re-derived by
// joining the SPJA output back to the join result — as a reference
// independent of the capture code: at every partition count, under both
// capture modes, raw and compressed, Smoke's end-to-end backward and forward
// indexes, decoded, must equal it element for element, order included.
func TestRunLogicIdxMatchesSmokeCapture(t *testing.T) {
	db := testDB(t)
	p := pool.New(4)
	defer p.Close()
	for name, spec := range db.Queries() {
		logic, annotated, err := exec.RunLogicIdx(spec, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, mode := range []ops.CaptureMode{ops.Inject, ops.Defer} {
			for _, compress := range []bool{false, true} {
				for _, workers := range []int{1, 2, 4, 5} {
					tag := fmt.Sprintf("%s mode=%v compress=%v w=%d", name, mode, compress, workers)
					smoke, err := exec.Run(spec, exec.Opts{Mode: mode, Dirs: ops.CaptureBoth, Workers: workers, Pool: p, Compress: compress})
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					if logic.Out.N != smoke.Out.N {
						t.Fatalf("%s: output cardinality differs", tag)
					}
					// The annotated relation is denormalized: one row per join result.
					total := 0
					for _, c := range smoke.GroupCounts {
						total += int(c)
					}
					if annotated.N != total {
						t.Fatalf("%s: annotated N = %d, want %d", tag, annotated.N, total)
					}
					for _, tbl := range spec.Tables {
						rel := tbl.Rel.Name
						sb, err1 := smoke.Capture.BackwardIndex(rel)
						lb, err2 := logic.Capture.BackwardIndex(rel)
						sf, err3 := smoke.Capture.ForwardIndex(rel)
						lf, err4 := logic.Capture.ForwardIndex(rel)
						if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
							t.Fatalf("%s: missing index for %s", tag, rel)
						}
						if sb.Encoded() != compress {
							t.Fatalf("%s: %s backward encoded = %v", tag, rel, sb.Encoded())
						}
						for o := int32(0); o < int32(smoke.Out.N); o++ {
							if a, b := sb.TraceOne(o, nil), lb.TraceOne(o, nil); !reflect.DeepEqual(a, b) {
								t.Fatalf("%s: %s backward differs at group %d", tag, rel, o)
							}
						}
						for r := int32(0); r < int32(tbl.Rel.N); r++ {
							if a, b := sf.TraceOne(r, nil), lf.TraceOne(r, nil); !reflect.DeepEqual(a, b) {
								t.Fatalf("%s: %s forward differs at rid %d: %v, want %v", tag, rel, r, a, b)
							}
						}
					}
				}
			}
		}
	}
}
