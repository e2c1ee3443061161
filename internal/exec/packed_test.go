package exec

import (
	"slices"
	"testing"

	"smoke/internal/datagen"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/plan"
)

// TestCompressedGroupByForwardPacked pins the byte budget of a compressed
// full-table group-by. Its forward index holds one slot per base row, sized
// to the group count in bits: 10 for 1000 groups, 2 for 4 (every row maps to
// a group, so no -1 sentinel is reserved). The whole capture stays under a
// stated budget per lineage edge. The uncompressed capture is untouched: its
// forward index is still the 4-byte rid array the operator wrote, so capture
// timings do not move with the packed form.
func TestCompressedGroupByForwardPacked(t *testing.T) {
	const n = 300_000
	for _, tc := range []struct {
		groups    int
		bits      int
		maxPerRid float64 // compressed capture bytes per lineage edge
	}{
		{1000, 10, 3.0}, // measured 2.74; 16-bit slots were 3.49
		{4, 2, 1.0},     // measured 0.75; 8-bit slots were 1.50
	} {
		rel := datagen.Zipf("zipf", 1.0, n, tc.groups, 7)
		p := plan.GroupBy{
			Child: plan.Scan{Table: "zipf", Rel: rel},
			Keys:  []string{"z"},
			Aggs:  []plan.AggDef{{Fn: ops.Count, Name: "c"}},
		}
		raw, err := RunPlan(p, PlanOpts{Mode: ops.Inject})
		if err != nil {
			t.Fatal(err)
		}
		enc, err := RunPlan(p, PlanOpts{Mode: ops.Inject, Compress: true})
		if err != nil {
			t.Fatal(err)
		}
		if enc.Out.N != tc.groups {
			t.Fatalf("%d groups: the output has %d rows", tc.groups, enc.Out.N)
		}

		rawFW, err := raw.Capture.ForwardIndex("zipf")
		if err != nil {
			t.Fatal(err)
		}
		if rawFW.Kind != lineage.OneToOne || rawFW.SizeBytes() != 4*n {
			t.Fatalf("%d groups: uncompressed forward is kind %v with %d bytes, want the %d-byte rid array",
				tc.groups, rawFW.Kind, rawFW.SizeBytes(), 4*n)
		}
		fw, err := enc.Capture.ForwardIndex("zipf")
		if err != nil {
			t.Fatal(err)
		}
		want := 8 * ((tc.bits*n + 63) / 64)
		if fw.Kind != lineage.SparseOne || fw.SizeBytes() != want {
			t.Fatalf("%d groups: compressed forward is kind %v with %d bytes, want %d (%d bits a row)",
				tc.groups, fw.Kind, fw.SizeBytes(), want, tc.bits)
		}
		if _, words, bits, _, _ := fw.Sparse.Parts(); words != nil || bits != tc.bits {
			t.Fatalf("%d groups: compressed forward has a bitmap %v at %d bits, want a dense array at %d",
				tc.groups, words != nil, bits, tc.bits)
		}
		if got, want := fw.DenseForward(n), rawFW.Arr; !slices.Equal(got, want) {
			t.Fatalf("%d groups: packed forward differs from the raw array", tc.groups)
		}

		bw, err := enc.Capture.BackwardIndex("zipf")
		if err != nil {
			t.Fatal(err)
		}
		edges := bw.Enc.Cardinality()
		if edges != n {
			t.Fatalf("%d groups: backward index covers %d rids, want %d", tc.groups, edges, n)
		}
		if perRid := float64(enc.Capture.MemBytes()) / float64(edges); perRid > tc.maxPerRid {
			t.Fatalf("%d groups: compressed capture holds %.3f bytes per lineage edge, budget %.2f",
				tc.groups, perRid, tc.maxPerRid)
		}
	}
}
