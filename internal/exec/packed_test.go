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
// to the group count: 2 bytes for 1000 groups, 1 byte for 4. The whole
// capture stays under a stated budget per lineage edge. The uncompressed
// capture is untouched: its forward index is still the 4-byte rid array the
// operator wrote, so capture timings do not move with the packed form.
func TestCompressedGroupByForwardPacked(t *testing.T) {
	const n = 300_000
	for _, tc := range []struct {
		groups    int
		width     int
		maxPerRid float64 // compressed capture bytes per lineage edge
	}{
		{1000, 2, 3.75}, // measured 3.49; 4-byte slots would be 5.49
		{4, 1, 2.0},     // measured 1.50; 4-byte slots would be 4.50
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
		if fw.Kind != lineage.SparseOne || fw.SizeBytes() != tc.width*n {
			t.Fatalf("%d groups: compressed forward is kind %v with %d bytes, want %d (%d per row)",
				tc.groups, fw.Kind, fw.SizeBytes(), tc.width*n, tc.width)
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
