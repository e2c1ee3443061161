package ops

import (
	"reflect"
	"testing"

	"smoke/internal/datagen"
	"smoke/internal/expr"
	"smoke/internal/storage"
)

func selFixture(t *testing.T) (*storage.Relation, expr.Pred) {
	t.Helper()
	rel := datagen.Zipf("zipf", 0.5, 1000, 20, 1)
	pred, err := expr.CompilePred(expr.LtE(expr.C("v"), expr.F(30)), rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rel, pred
}

func naiveSelect(rel *storage.Relation, pred expr.Pred) []Rid {
	var out []Rid
	for i := int32(0); i < int32(rel.N); i++ {
		if pred(i) {
			out = append(out, i)
		}
	}
	return out
}

func TestSelectBaselineMatchesNaive(t *testing.T) {
	rel, pred := selFixture(t)
	res := Select(rel.N, pred, SelectOpts{Mode: None})
	if !reflect.DeepEqual(res.OutRids, naiveSelect(rel, pred)) {
		t.Fatal("baseline selection differs from naive scan")
	}
	if res.BW != nil || res.FW != nil {
		t.Fatal("baseline must not capture lineage")
	}
}

func TestSelectInjectLineage(t *testing.T) {
	rel, pred := selFixture(t)
	want := naiveSelect(rel, pred)
	res := Select(rel.N, pred, SelectOpts{Mode: Inject, Dirs: CaptureBoth})
	if !reflect.DeepEqual(res.OutRids, want) {
		t.Fatal("inject selection output differs")
	}
	if !reflect.DeepEqual(res.BW, want) {
		t.Fatal("backward rid array must equal selected rids")
	}
	if len(res.FW) != rel.N {
		t.Fatalf("forward array len %d, want %d", len(res.FW), rel.N)
	}
	// Round trip: fw(bw(o)) == o and fw of filtered records is -1.
	sel := map[Rid]Rid{}
	for o, in := range res.BW {
		sel[in] = Rid(o)
	}
	for in := int32(0); in < int32(rel.N); in++ {
		if o, ok := sel[in]; ok {
			if res.FW[in] != o {
				t.Fatalf("fw[%d] = %d, want %d", in, res.FW[in], o)
			}
		} else if res.FW[in] != -1 {
			t.Fatalf("fw[%d] = %d, want -1 for filtered record", in, res.FW[in])
		}
	}
}

// TestSelectEstimatePreallocates: the bitmap kernel sizes the backward rid
// array exactly from the popcount — no selectivity estimate, no growth slack.
func TestSelectEstimatePreallocates(t *testing.T) {
	rel, pred := selFixture(t)
	want := naiveSelect(rel, pred)
	res := Select(rel.N, pred, SelectOpts{Mode: Inject, Dirs: CaptureBoth})
	if !reflect.DeepEqual(res.BW, want) || len(res.BW) != cap(res.BW) {
		t.Fatalf("backward array len %d cap %d, want exactly %d", len(res.BW), cap(res.BW), len(want))
	}
}

func TestSelectDirectionPruning(t *testing.T) {
	rel, pred := selFixture(t)
	want := naiveSelect(rel, pred)

	bwOnly := Select(rel.N, pred, SelectOpts{Mode: Inject, Dirs: CaptureBackward})
	if bwOnly.FW != nil {
		t.Fatal("forward index should be pruned")
	}
	if !reflect.DeepEqual(bwOnly.BW, want) {
		t.Fatal("backward-only output differs")
	}

	fwOnly := Select(rel.N, pred, SelectOpts{Mode: Inject, Dirs: CaptureForward})
	if fwOnly.BW != nil {
		t.Fatal("backward index should be pruned")
	}
	if !reflect.DeepEqual(fwOnly.OutRids, want) {
		t.Fatal("forward-only output differs")
	}
	count := 0
	for _, o := range fwOnly.FW {
		if o >= 0 {
			count++
		}
	}
	if count != len(want) {
		t.Fatalf("forward entries = %d, want %d", count, len(want))
	}

	neither := Select(rel.N, pred, SelectOpts{Mode: Inject})
	if neither.BW != nil || neither.FW != nil {
		t.Fatal("fully pruned capture should produce no indexes")
	}
	if !reflect.DeepEqual(neither.OutRids, want) {
		t.Fatal("fully pruned output differs")
	}
}

func TestSelectMaterialize(t *testing.T) {
	rel, pred := selFixture(t)
	out, res := SelectMaterialize(rel, pred, SelectOpts{Mode: Inject, Dirs: CaptureBoth})
	if out.N != len(res.OutRids) {
		t.Fatalf("materialized %d rows, rid list has %d", out.N, len(res.OutRids))
	}
	vcol := out.Schema.MustCol("v")
	for i := 0; i < out.N; i++ {
		if out.Float(vcol, i) >= 30 {
			t.Fatalf("row %d violates predicate: v = %v", i, out.Float(vcol, i))
		}
	}
}

func TestSelectEmptyAndFullSelectivity(t *testing.T) {
	rel, _ := selFixture(t)
	never, err := expr.CompilePred(expr.LtE(expr.C("v"), expr.F(-1)), rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := Select(rel.N, never, SelectOpts{Mode: Inject, Dirs: CaptureBoth})
	if len(res.OutRids) != 0 {
		t.Fatal("impossible predicate selected rows")
	}
	always, err := expr.CompilePred(expr.GeE(expr.C("v"), expr.F(0)), rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	res = Select(rel.N, always, SelectOpts{Mode: Inject, Dirs: CaptureBoth})
	if len(res.OutRids) != rel.N {
		t.Fatalf("tautology selected %d of %d", len(res.OutRids), rel.N)
	}
	for i, o := range res.FW {
		if o != Rid(i) {
			t.Fatal("full selection forward array must be identity")
		}
	}
}
