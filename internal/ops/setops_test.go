package ops

import (
	"reflect"
	"sort"
	"testing"

	"smoke/internal/storage"
)

func setRel(name string, vals ...int) *storage.Relation {
	r := storage.NewEmpty(name, storage.Schema{{Name: "k", Type: storage.TInt}})
	for _, v := range vals {
		r.AppendRow(v)
	}
	return r
}

func outInts(r *storage.Relation) []int64 {
	out := append([]int64(nil), r.Cols[0].Ints...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestSetUnionBothModes(t *testing.T) {
	a := setRel("a", 1, 2, 2, 3)
	b := setRel("b", 3, 4, 4)
	for _, mode := range []CaptureMode{Inject, Defer} {
		res, err := SetUnion(a, []string{"k"}, b, []string{"k"}, mode, CaptureBoth, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := outInts(res.Out); !reflect.DeepEqual(got, []int64{1, 2, 3, 4}) {
			t.Fatalf("mode %v: union = %v", mode, got)
		}
		// Backward lists must cover all input duplicates.
		if res.ABW.Cardinality() != a.N {
			t.Fatalf("mode %v: A backward covers %d, want %d", mode, res.ABW.Cardinality(), a.N)
		}
		if res.BBW.Cardinality() != b.N {
			t.Fatalf("mode %v: B backward covers %d, want %d", mode, res.BBW.Cardinality(), b.N)
		}
		// fw/bw consistency on both sides.
		for o := 0; o < res.Out.N; o++ {
			for _, r := range res.ABW.List(o) {
				if res.AFW[r] != Rid(o) {
					t.Fatalf("mode %v: A fw/bw mismatch", mode)
				}
			}
			for _, r := range res.BBW.List(o) {
				if res.BFW[r] != Rid(o) {
					t.Fatalf("mode %v: B fw/bw mismatch", mode)
				}
			}
		}
		// Every output value's lineage must hold records with that value.
		for o := 0; o < res.Out.N; o++ {
			v := res.Out.Int(0, o)
			for _, r := range res.ABW.List(o) {
				if a.Int(0, int(r)) != v {
					t.Fatalf("mode %v: lineage of %d includes A row with %d", mode, v, a.Int(0, int(r)))
				}
			}
		}
	}
}

func TestSetUnionInjectDeferEquivalent(t *testing.T) {
	a := setRel("a", 5, 6, 7, 5)
	b := setRel("b", 7, 8)
	inj, err := SetUnion(a, []string{"k"}, b, []string{"k"}, Inject, CaptureBoth, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	def, err := SetUnion(a, []string{"k"}, b, []string{"k"}, Defer, CaptureBoth, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inj.AFW, def.AFW) || !reflect.DeepEqual(inj.BFW, def.BFW) {
		t.Fatal("forward indexes differ between modes")
	}
	for o := 0; o < inj.Out.N; o++ {
		if !reflect.DeepEqual(inj.ABW.List(o), def.ABW.List(o)) {
			t.Fatalf("A backward lists differ at output %d", o)
		}
	}
}

func TestSetIntersect(t *testing.T) {
	a := setRel("a", 1, 2, 2, 3, 5)
	b := setRel("b", 2, 3, 4, 3)
	for _, mode := range []CaptureMode{Inject, Defer} {
		res, err := SetIntersect(a, []string{"k"}, b, []string{"k"}, mode, CaptureBoth, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := outInts(res.Out); !reflect.DeepEqual(got, []int64{2, 3}) {
			t.Fatalf("mode %v: intersect = %v", mode, got)
		}
		// A rows with values 1 and 5 (rids 0, 4) produce no output.
		if res.AFW[0] != -1 || res.AFW[4] != -1 {
			t.Fatalf("mode %v: non-intersecting rows must map to -1", mode)
		}
		// Value 2's lineage in A must be rids {1, 2}.
		for o := 0; o < res.Out.N; o++ {
			if res.Out.Int(0, o) == 2 {
				got := append([]Rid(nil), res.ABW.List(o)...)
				sortRids(got)
				if !reflect.DeepEqual(got, []Rid{1, 2}) {
					t.Fatalf("mode %v: lineage of 2 in A = %v", mode, got)
				}
			}
		}
	}
}

func TestSetDiff(t *testing.T) {
	a := setRel("a", 1, 2, 2, 3)
	b := setRel("b", 2, 9)
	for _, mode := range []CaptureMode{Inject, Defer} {
		res, err := SetDiff(a, []string{"k"}, b, []string{"k"}, mode, CaptureBoth, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := outInts(res.Out); !reflect.DeepEqual(got, []int64{1, 3}) {
			t.Fatalf("mode %v: diff = %v", mode, got)
		}
		if res.BBW != nil || res.BFW != nil {
			t.Fatalf("mode %v: set difference must not capture lineage for B", mode)
		}
		// Rids of 2s must map nowhere.
		if res.AFW[1] != -1 || res.AFW[2] != -1 {
			t.Fatalf("mode %v: subtracted rows must map to -1", mode)
		}
		if res.AFW[0] == -1 || res.AFW[3] == -1 {
			t.Fatalf("mode %v: surviving rows must have forward entries", mode)
		}
	}
}

func TestBagUnion(t *testing.T) {
	a := setRel("a", 1, 2)
	b := setRel("b", 2, 3, 4)
	out, lin, err := BagUnion(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if out.N != 5 {
		t.Fatalf("bag union N = %d", out.N)
	}
	if got := out.Cols[0].Ints; !reflect.DeepEqual(got, []int64{1, 2, 2, 3, 4}) {
		t.Fatalf("bag union = %v", got)
	}
	fromB, rid := lin.Backward(1)
	if fromB || rid != 1 {
		t.Fatal("backward of output 1 should be A rid 1")
	}
	fromB, rid = lin.Backward(3)
	if !fromB || rid != 1 {
		t.Fatal("backward of output 3 should be B rid 1")
	}
	if lin.ForwardA(1) != 1 || lin.ForwardB(1) != 3 {
		t.Fatal("forward arithmetic wrong")
	}
}

func TestBagUnionErrors(t *testing.T) {
	a := setRel("a", 1)
	mismatch := storage.NewEmpty("m", storage.Schema{{Name: "k", Type: storage.TString}})
	if _, _, err := BagUnion(a, mismatch); err == nil {
		t.Error("type mismatch should error")
	}
	wide := storage.NewEmpty("w", storage.Schema{{Name: "k", Type: storage.TInt}, {Name: "j", Type: storage.TInt}})
	if _, _, err := BagUnion(a, wide); err == nil {
		t.Error("arity mismatch should error")
	}
}

func TestBagIntersect(t *testing.T) {
	// value 2: mA=2, mB=1 -> 2 outputs; value 3: mA=1, mB=2 -> 2 outputs.
	a := setRel("a", 1, 2, 2, 3)
	b := setRel("b", 2, 3, 3)
	res, err := BagIntersect(a, []string{"k"}, b, []string{"k"}, CaptureBoth)
	if err != nil {
		t.Fatal(err)
	}
	if res.OutN != 4 {
		t.Fatalf("OutN = %d, want 4 (mA*mB per value)", res.OutN)
	}
	if got := outInts(res.Out); !reflect.DeepEqual(got, []int64{2, 2, 3, 3}) {
		t.Fatalf("bag intersect = %v", got)
	}
	// Backward is 1-1: every output has exactly one rid per side, with the
	// right values.
	for o := 0; o < res.OutN; o++ {
		v := res.Out.Int(0, o)
		if a.Int(0, int(res.ABW[o])) != v || b.Int(0, int(res.BBW[o])) != v {
			t.Fatalf("output %d: backward rids carry wrong values", o)
		}
	}
	// Forward is 1-N and consistent.
	for r := 0; r < a.N; r++ {
		for _, o := range res.AFW.List(r) {
			if res.ABW[o] != Rid(r) {
				t.Fatalf("A fw/bw mismatch at rid %d", r)
			}
		}
	}
	if res.AFW.Cardinality() != res.OutN || res.BFW.Cardinality() != res.OutN {
		t.Fatal("forward cardinalities wrong")
	}
}

func TestBagDiff(t *testing.T) {
	// value 2: mA=3, mB=1 -> 2 copies survive; value 1: mA=1, mB=0 -> 1 copy;
	// value 3: mA=1, mB=2 -> 0 copies.
	a := setRel("a", 1, 2, 2, 2, 3)
	b := setRel("b", 2, 3, 3)
	res, err := BagDiff(a, []string{"k"}, b, []string{"k"}, CaptureBoth)
	if err != nil {
		t.Fatal(err)
	}
	if got := outInts(res.Out); !reflect.DeepEqual(got, []int64{1, 2, 2}) {
		t.Fatalf("bag diff = %v", got)
	}
	// Backward 1-1 and value-consistent.
	for o := 0; o < res.Out.N; o++ {
		if a.Int(0, int(res.ABW[o])) != res.Out.Int(0, o) {
			t.Fatalf("output %d: wrong backward rid", o)
		}
	}
	// Forward: exactly len(out) entries set.
	set := 0
	for _, o := range res.AFW {
		if o >= 0 {
			set++
		}
	}
	if set != res.Out.N {
		t.Fatalf("forward entries = %d, want %d", set, res.Out.N)
	}
}

func TestSetOpsMultiColumnAndStringKeys(t *testing.T) {
	a := storage.NewEmpty("a", storage.Schema{
		{Name: "s", Type: storage.TString},
		{Name: "n", Type: storage.TInt},
	})
	a.AppendRow("x", 1)
	a.AppendRow("x", 2)
	a.AppendRow("y", 1)
	b := storage.NewEmpty("b", storage.Schema{
		{Name: "s", Type: storage.TString},
		{Name: "n", Type: storage.TInt},
	})
	b.AppendRow("x", 2)
	b.AppendRow("z", 9)
	res, err := SetIntersect(a, []string{"s", "n"}, b, []string{"s", "n"}, Inject, CaptureBoth, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Out.N != 1 || res.Out.Str(0, 0) != "x" || res.Out.Int(1, 0) != 2 {
		t.Fatalf("composite intersect wrong: %d rows", res.Out.N)
	}
}

func TestSetOpsErrors(t *testing.T) {
	a := setRel("a", 1)
	b := setRel("b", 1)
	if _, err := SetUnion(a, []string{"nope"}, b, []string{"k"}, Inject, CaptureBoth, 1, nil); err == nil {
		t.Error("unknown A column should error")
	}
	if _, err := SetUnion(a, []string{"k"}, b, []string{"nope"}, Inject, CaptureBoth, 1, nil); err == nil {
		t.Error("unknown B column should error")
	}
	if _, err := SetUnion(a, []string{"k"}, b, []string{}, Inject, CaptureBoth, 1, nil); err == nil {
		t.Error("arity mismatch should error")
	}
}
