package exec_test

import (
	"reflect"
	"testing"

	"smoke/internal/exec"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/tpch"
)

// TestCompressedQ3OrdersForwardDirectory pins the byte budget of a
// dimension table's compressed forward lineage. In TPC-H Q3 at SF 0.02 only
// a few hundred of the 30,000 orders join a result row, so the encoded
// forward index keeps a presence bitmap and offsets for the non-empty
// entries only: under 16 KB where a dense offset directory alone is 120 KB.
// It traces element-identically to the raw rid index of the same capture.
func TestCompressedQ3OrdersForwardDirectory(t *testing.T) {
	db := tpch.Generate(0.02, 1)
	raw, err := exec.Run(db.Q3(), exec.Opts{Mode: ops.Inject, Dirs: ops.CaptureBoth})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := exec.Run(db.Q3(), exec.Opts{Mode: ops.Inject, Dirs: ops.CaptureBoth, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	rawFW, err := raw.Capture.ForwardIndex("orders")
	if err != nil {
		t.Fatal(err)
	}
	fw, err := enc.Capture.ForwardIndex("orders")
	if err != nil {
		t.Fatal(err)
	}
	if rawFW.Kind != lineage.OneToMany || fw.Kind != lineage.EncodedMany {
		t.Fatalf("orders forward kinds %v / %v, want a raw and an encoded rid index", rawFW.Kind, fw.Kind)
	}
	n, words, offs, _, _ := fw.Enc.Parts()
	if n != db.Orders.N || words == nil || len(offs)-1 >= n/10 {
		t.Fatalf("orders forward: %d entries, bitmap %v, %d offsets; want the directory form", n, words != nil, len(offs))
	}
	if size := fw.SizeBytes(); size >= 16<<10 {
		t.Fatalf("orders forward holds %d bytes, budget 16 KiB", size)
	}
	all := make([]lineage.Rid, n)
	for i := range all {
		all[i] = lineage.Rid(i)
		if got, want := fw.TraceOne(lineage.Rid(i), nil), rawFW.TraceOne(lineage.Rid(i), nil); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("orders forward entry %d = %v, want %v", i, got, want)
		}
	}
	if got, want := fw.Trace(all), rawFW.Trace(all); !reflect.DeepEqual(got, want) {
		t.Fatalf("orders forward trace of every order differs: %d rids, want %d", len(got), len(want))
	}
	if is := fw.Enc.TraceInSitu(all); !reflect.DeepEqual(is.AppendTo(nil), rawFW.Trace(all)) {
		t.Fatal("orders forward in-situ trace of every order differs")
	}
}
