package lineage

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestAppendRidGrowthPolicy(t *testing.T) {
	var s []Rid
	s = AppendRid(s, 1)
	if cap(s) != initialCap {
		t.Fatalf("first append cap = %d, want %d", cap(s), initialCap)
	}
	for i := 1; i < initialCap; i++ {
		s = AppendRid(s, Rid(i))
	}
	if cap(s) != initialCap {
		t.Fatalf("cap after filling = %d, want %d", cap(s), initialCap)
	}
	s = AppendRid(s, 10)
	if cap(s) != 15 { // 10 * 1.5
		t.Fatalf("cap after first growth = %d, want 15", cap(s))
	}
	for i := len(s); i < 15; i++ {
		s = AppendRid(s, Rid(i))
	}
	s = AppendRid(s, 99)
	if cap(s) != 22 { // 15 + 15/2
		t.Fatalf("cap after second growth = %d, want 22", cap(s))
	}
	for i, v := range []Rid{0, 1, 2, 3, 4, 5, 6, 7, 8} {
		_ = v
		_ = i
	}
	if s[0] != 1 || s[10] != 10 || s[15] != 99 {
		t.Fatal("values lost across growth")
	}
}

func TestRidIndexAppendAndList(t *testing.T) {
	ix := NewRidIndex(3)
	ix.Append(0, 5)
	ix.Append(0, 6)
	ix.Append(2, 7)
	if got := ix.List(0); !reflect.DeepEqual(got, []Rid{5, 6}) {
		t.Errorf("List(0) = %v", got)
	}
	if got := ix.List(1); len(got) != 0 {
		t.Errorf("List(1) = %v, want empty", got)
	}
	if ix.Cardinality() != 3 {
		t.Errorf("Cardinality = %d, want 3", ix.Cardinality())
	}
	if ix.Len() != 3 {
		t.Errorf("Len = %d, want 3", ix.Len())
	}
}

func TestRidIndexWithCountsNoResize(t *testing.T) {
	counts := []int32{3, 0, 2}
	ix := NewRidIndexWithCounts(counts)
	base := ix.lists[0][:1]
	_ = base
	ix.AppendFast(0, 1)
	ix.AppendFast(0, 2)
	ix.AppendFast(0, 3)
	ix.AppendFast(2, 9)
	if got := ix.List(0); !reflect.DeepEqual(got, []Rid{1, 2, 3}) {
		t.Errorf("List(0) = %v", got)
	}
	if got := ix.List(2); !reflect.DeepEqual(got, []Rid{9}) {
		t.Errorf("List(2) = %v", got)
	}
	// Overflow past the estimate must still work (falls back to growth).
	ix.AppendFast(1, 4)
	if got := ix.List(1); !reflect.DeepEqual(got, []Rid{4}) {
		t.Errorf("List(1) overflow = %v", got)
	}
}

func TestRidIndexSetList(t *testing.T) {
	ix := NewRidIndex(2)
	ix.SetList(1, []Rid{7, 8, 9})
	if got := ix.List(1); !reflect.DeepEqual(got, []Rid{7, 8, 9}) {
		t.Errorf("List(1) = %v", got)
	}
}

func TestOneToOneTrace(t *testing.T) {
	ix := NewOneToOne([]Rid{2, -1, 0})
	if got := ix.Trace([]Rid{0, 1, 2}); !reflect.DeepEqual(got, []Rid{2, 0}) {
		t.Errorf("Trace = %v (filtered rid -1 must be skipped)", got)
	}
	if ix.Len() != 3 {
		t.Errorf("Len = %d", ix.Len())
	}
}

func TestOneToManyTrace(t *testing.T) {
	ridx := NewRidIndex(2)
	ridx.Append(0, 1)
	ridx.Append(0, 2)
	ridx.Append(1, 2)
	ix := NewOneToMany(ridx)
	got := ix.Trace([]Rid{0, 1})
	if !reflect.DeepEqual(got, []Rid{1, 2, 2}) {
		t.Errorf("Trace = %v, want duplicates preserved", got)
	}
	c := NewCapture()
	c.SetBackward("r", ix)
	if d, err := c.BackwardDistinct("r", []Rid{0, 1}); err != nil || !reflect.DeepEqual(d, []Rid{1, 2}) {
		t.Errorf("BackwardDistinct = %v, %v", d, err)
	}
}

func TestComposeOneToOne(t *testing.T) {
	outer := NewOneToOne([]Rid{1, -1, 0})
	inner := NewOneToOne([]Rid{5, 6})
	c := Compose(outer, inner)
	if c.Kind != OneToOne {
		t.Fatal("compose of two 1-1 should stay 1-1")
	}
	if !reflect.DeepEqual(c.Arr, []Rid{6, -1, 5}) {
		t.Errorf("composed = %v", c.Arr)
	}
}

func TestComposeMixed(t *testing.T) {
	// outer: output -> intermediate (1:N), inner: intermediate -> base (1:1)
	ridx := NewRidIndex(2)
	ridx.Append(0, 0)
	ridx.Append(0, 1)
	ridx.Append(1, 2)
	outer := NewOneToMany(ridx)
	inner := NewOneToOne([]Rid{10, 11, 12})
	c := Compose(outer, inner)
	if got := c.Trace([]Rid{0}); !reflect.DeepEqual(got, []Rid{10, 11}) {
		t.Errorf("Trace(0) = %v", got)
	}
	if got := c.Trace([]Rid{1}); !reflect.DeepEqual(got, []Rid{12}) {
		t.Errorf("Trace(1) = %v", got)
	}
}

func TestInvertOneToOne(t *testing.T) {
	// forward: input rid -> output rid
	fw := NewOneToOne([]Rid{1, -1, 0, 1})
	bw := Invert(fw, 2)
	if got := bw.Trace([]Rid{1}); !reflect.DeepEqual(got, []Rid{0, 3}) {
		t.Errorf("Invert Trace(1) = %v", got)
	}
	if got := bw.Trace([]Rid{0}); !reflect.DeepEqual(got, []Rid{2}) {
		t.Errorf("Invert Trace(0) = %v", got)
	}
}

func TestInvertRoundTripProperty(t *testing.T) {
	// For random 1-1 forward maps, inverting twice preserves the relation.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nIn, nOut := 1+rng.Intn(50), 1+rng.Intn(20)
		fw := make([]Rid, nIn)
		for i := range fw {
			if rng.Intn(4) == 0 {
				fw[i] = -1
			} else {
				fw[i] = Rid(rng.Intn(nOut))
			}
		}
		bw := Invert(NewOneToOne(fw), nOut)
		// Every (in -> out) edge must appear in the inverse and vice versa.
		for in, out := range fw {
			if out < 0 {
				continue
			}
			found := false
			for _, r := range bw.Many.List(int(out)) {
				if r == Rid(in) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		edges := 0
		for o := 0; o < nOut; o++ {
			for _, in := range bw.Many.List(o) {
				if fw[in] != Rid(o) {
					return false
				}
				edges++
			}
		}
		want := 0
		for _, out := range fw {
			if out >= 0 {
				want++
			}
		}
		return edges == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCaptureAccessors(t *testing.T) {
	c := NewCapture()
	bw := NewOneToOne([]Rid{0, 1})
	c.SetBackward("r", bw)
	if !c.HasBackward("r") || c.HasForward("r") {
		t.Fatal("Has* flags wrong")
	}
	got, err := c.Backward("r", []Rid{1})
	if err != nil || !reflect.DeepEqual(got, []Rid{1}) {
		t.Fatalf("Backward = %v, %v", got, err)
	}
	if _, err := c.Backward("missing", nil); err == nil {
		t.Fatal("Backward on missing relation should error")
	}
	if _, err := c.Forward("r", nil); err == nil {
		t.Fatal("Forward should error when only backward captured (pruning)")
	}
	c.SetForward("r", NewOneToOne([]Rid{1, 0}))
	fwd, err := c.Forward("r", []Rid{0})
	if err != nil || !reflect.DeepEqual(fwd, []Rid{1}) {
		t.Fatalf("Forward = %v, %v", fwd, err)
	}
	if rels := c.Relations(); !reflect.DeepEqual(rels, []string{"r"}) {
		t.Errorf("Relations = %v", rels)
	}
}

func TestCaptureDistinct(t *testing.T) {
	c := NewCapture()
	ridx := NewRidIndex(1)
	ridx.Append(0, 3)
	ridx.Append(0, 3)
	ridx.Append(0, 4)
	c.SetBackward("r", NewOneToMany(ridx))
	got, err := c.BackwardDistinct("r", []Rid{0})
	if err != nil || !reflect.DeepEqual(got, []Rid{3, 4}) {
		t.Fatalf("BackwardDistinct = %v, %v", got, err)
	}
	c.SetForward("r", NewOneToMany(ridx))
	fw, err := c.ForwardDistinct("r", []Rid{0, 0})
	if err != nil || !reflect.DeepEqual(fw, []Rid{3, 4}) {
		t.Fatalf("ForwardDistinct = %v, %v", fw, err)
	}
}

func TestDict(t *testing.T) {
	d := NewDict()
	a := d.Code("MAIL")
	b := d.Code("SHIP")
	if a == b {
		t.Fatal("distinct values must get distinct codes")
	}
	if c := d.Code("MAIL"); c != a {
		t.Fatal("repeated value must reuse its code")
	}
	if v := d.Value(b); v != "SHIP" {
		t.Errorf("Value(%d) = %q", b, v)
	}
	if _, ok := d.Lookup("AIR"); ok {
		t.Error("Lookup of never-interned value should report false")
	}
	if d.Size() != 2 {
		t.Errorf("Size = %d", d.Size())
	}
}

func TestPartitionedIndex(t *testing.T) {
	ix := NewRidIndex(3)
	ix.SetList(0, []Rid{1, 3, 2})
	ix.SetList(2, []Rid{4})
	// Entry ranks, list by list: rids 1 and 2 have code 10 (rank 0), rid 3
	// code 20, rid 4 code 10.
	p := OrderByPartition(ix, []int32{0, 1, 0, 0}, []int64{10, 20}, nil)
	if got := p.Index().Many.List(0); !reflect.DeepEqual(got, []Rid{1, 2, 3}) {
		t.Errorf("ordered list 0 = %v", got)
	}
	for _, enc := range []bool{false, true} {
		if enc {
			p.Encode()
			if !p.Index().Encoded() {
				t.Fatal("Encode left the index raw")
			}
		}
		for _, tc := range []struct {
			i    int
			code int64
			want []Rid
		}{{0, 10, []Rid{1, 2}}, {0, 20, []Rid{3}}, {0, 99, nil}, {1, 10, nil}, {2, 10, []Rid{4}}, {2, 20, nil}} {
			if got := p.Partition(tc.i, tc.code); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("encoded=%v Partition(%d,%d) = %v, want %v", enc, tc.i, tc.code, got, tc.want)
			}
		}
	}
	if p.Len() != 3 || p.Dict() != nil {
		t.Errorf("Len = %d, Dict = %v", p.Len(), p.Dict())
	}
	// A raw partition is a capacity-clipped range of the list: appending to
	// it cannot overwrite the next code's rids.
	q := OrderByPartition(ix, []int32{0, 1, 0, 0}, []int64{10, 20}, nil)
	_ = append(q.Partition(0, 10), 99)
	if got := q.Partition(0, 20); !reflect.DeepEqual(got, []Rid{3}) {
		t.Errorf("append to a partition reached the next one: %v", got)
	}
}

// The order is stable: entries of one code keep their capture order, in
// every list, whatever order the codes arrive in.
func TestPartitionedIndexAllIsOrdered(t *testing.T) {
	ix := NewRidIndex(2)
	var ranks []int32
	var want [2][]Rid
	for i := range 2 {
		var l []Rid
		for k := 31; k >= 0; k-- {
			l = append(l, Rid(100*i+2*k), Rid(100*i+2*k+1))
			ranks = append(ranks, int32(k), int32(k))
		}
		ix.SetList(i, l)
		for k := range 32 {
			want[i] = append(want[i], Rid(100*i+2*k), Rid(100*i+2*k+1))
		}
	}
	codes := make([]int64, 32)
	for k := range codes {
		codes[k] = int64(3 * k)
	}
	p := OrderByPartition(ix, ranks, codes, nil)
	for i := range 2 {
		if got := p.Index().Many.List(i); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("list %d = %v, want codes ascending, capture order within a code %v", i, got, want[i])
		}
		for k := range 32 {
			if got := p.Partition(i, int64(3*k)); !reflect.DeepEqual(got, want[i][2*k:2*k+2]) {
				t.Fatalf("Partition(%d, %d) = %v", i, 3*k, got)
			}
		}
	}
}
