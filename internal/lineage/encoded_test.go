package lineage

import (
	"math/rand"
	"reflect"
	"testing"
)

// listShapes covers every encoding the adaptive chooser can pick plus its
// edge cases.
func listShapes() map[string][]Rid {
	rng := rand.New(rand.NewSource(7))
	random := make([]Rid, 200)
	for i := range random {
		random[i] = Rid(rng.Intn(1 << 20))
	}
	sparse := make([]Rid, 64)
	for i := range sparse {
		sparse[i] = Rid(i * 1000)
	}
	clustered := make([]Rid, 0, 300)
	for base := Rid(100); base < 4000; base += 500 {
		for j := Rid(0); j < 30; j++ {
			clustered = append(clustered, base+j)
		}
	}
	return map[string][]Rid{
		"empty":      {},
		"single":     {42},
		"range":      {10, 11, 12, 13, 14, 15},
		"rangeAt0":   {0, 1, 2, 3},
		"clustered":  clustered, // runs with gaps: RLE territory
		"sparse":     sparse,    // ascending, large gaps: delta territory
		"dense8":     {3, 4, 6, 7, 8, 10, 11, 12},
		"duplicates": {5, 5, 5, 9, 9, 2, 2},
		"unsorted":   {900, 3, 512, 44, 44, 7},
		"descending": {9, 8, 7, 3, 1},
		"random":     random,
		"bigvals":    {1 << 30, 1<<30 + 1, 1<<30 + 5},
	}
}

func TestEncodedListRoundTrip(t *testing.T) {
	for name, list := range listShapes() {
		b := NewEncodedBuilder(1)
		b.Add(list)
		e := b.Build()
		got := e.AppendList(0, nil)
		if len(list) == 0 {
			if len(got) != 0 {
				t.Errorf("%s: decoded %v, want empty", name, got)
			}
			if e.offs[0] != e.offs[1] {
				t.Errorf("%s: empty list must occupy zero bytes", name)
			}
			continue
		}
		if !reflect.DeepEqual(got, list) {
			t.Errorf("%s: decoded %v, want %v", name, got, list)
		}
		if e.ListLen(0) != len(list) {
			t.Errorf("%s: ListLen = %d, want %d", name, e.ListLen(0), len(list))
		}
		if e.Cardinality() != len(list) {
			t.Errorf("%s: Cardinality = %d, want %d", name, e.Cardinality(), len(list))
		}
	}
}

func TestEncodedIndexMultipleListsRoundTrip(t *testing.T) {
	shapes := listShapes()
	names := []string{"empty", "range", "clustered", "unsorted", "empty", "sparse", "random", "duplicates"}
	b := NewEncodedBuilder(len(names))
	total := 0
	for _, n := range names {
		b.Add(shapes[n])
		total += len(shapes[n])
	}
	e := b.Build()
	if e.Len() != len(names) {
		t.Fatalf("Len = %d, want %d", e.Len(), len(names))
	}
	if e.Cardinality() != total {
		t.Fatalf("Cardinality = %d, want %d", e.Cardinality(), total)
	}
	for i, n := range names {
		got := e.AppendList(i, nil)
		want := shapes[n]
		if len(want) == 0 {
			if len(got) != 0 {
				t.Errorf("list %d (%s): got %v, want empty", i, n, got)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("list %d (%s): got %v, want %v", i, n, got, want)
		}
	}
	dec := DecodeRidIndex(e)
	for i, n := range names {
		if len(shapes[n]) == 0 {
			continue
		}
		if !reflect.DeepEqual(dec.List(i), shapes[n]) {
			t.Errorf("DecodeRidIndex list %d (%s) mismatch", i, n)
		}
	}
}

// TestEncodedCompressesDenseLists pins the headline property: dense
// (range-scan-shaped) lists encode far below the 4 bytes/rid raw cost.
func TestEncodedCompressesDenseLists(t *testing.T) {
	const n = 100_000
	list := make([]Rid, n)
	for i := range list {
		list[i] = Rid(i + 12345)
	}
	b := NewEncodedBuilder(1)
	b.Add(list)
	e := b.Build()
	if e.SizeBytes() > 64 {
		t.Fatalf("contiguous run of %d rids encoded to %d bytes; want a handful", n, e.SizeBytes())
	}
	// Zipf-ish clustered lists should also win clearly over raw.
	clustered := make([]Rid, 0, n)
	for i := 0; i < n; i++ {
		if i%10 != 3 {
			clustered = append(clustered, Rid(i))
		}
	}
	b2 := NewEncodedBuilder(1)
	b2.Add(clustered)
	e2 := b2.Build()
	if e2.SizeBytes() >= 4*len(clustered)/2 {
		t.Fatalf("clustered list: %d bytes for %d rids, want < half of raw", e2.SizeBytes(), len(clustered))
	}
}

// TestEncodedRawFallbackBoundsSize pins the adaptive fallback: adversarial
// (random, unsorted) lists must not blow up beyond raw cost plus the chunk
// header.
func TestEncodedRawFallbackBoundsSize(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	list := make([]Rid, 10_000)
	for i := range list {
		list[i] = Rid(rng.Int31())
	}
	b := NewEncodedBuilder(1)
	b.Add(list)
	e := b.Build()
	if e.SizeBytes() > 4*len(list)+32 {
		t.Fatalf("adversarial list encoded to %d bytes; raw is %d", e.SizeBytes(), 4*len(list))
	}
	if got := e.AppendList(0, nil); !reflect.DeepEqual(got, list) {
		t.Fatal("adversarial list did not round-trip")
	}
}

func TestEncodedArrRoundTrip(t *testing.T) {
	cases := map[string][]Rid{
		"identity":   {0, 1, 2, 3, 4, 5},
		"allDropped": {-1, -1, -1, -1},
		"selectLike": {-1, -1, 0, 1, 2, -1, 3, 4, -1, -1},
		"constRuns":  {7, 7, 7, 2, 2, 2, 2, 9, 9},
		"offsetSeq":  {100, 101, 102, 103},
		"single":     {5},
	}
	for name, arr := range cases {
		// Force the run form (tiny arrays adaptively stay raw via EncodeArr).
		e := encodeArrRuns(arr, len(arr))
		if e == nil {
			t.Errorf("%s: expected compressible", name)
			continue
		}
		if e.Len() != len(arr) {
			t.Errorf("%s: Len = %d, want %d", name, e.Len(), len(arr))
		}
		if got := e.Decode(); !reflect.DeepEqual(got, arr) {
			t.Errorf("%s: decoded %v, want %v", name, got, arr)
		}
	}
	// Interleaved values have ~n runs: the encoder must refuse.
	interleaved := make([]Rid, 1000)
	for i := range interleaved {
		interleaved[i] = Rid(i % 7 * 13)
	}
	if e := EncodeArr(interleaved); e != nil {
		t.Fatal("interleaved array should fall back to raw")
	}
	if e := EncodeArr(nil); e != nil {
		t.Fatal("empty array should fall back to raw")
	}
}

func TestEncodedArrLongSelectShape(t *testing.T) {
	// A selection forward array: long -1 stretches and long sequential
	// stretches — the run directory must be tiny and exact.
	const n = 50_000
	arr := make([]Rid, n)
	out := Rid(0)
	for i := range arr {
		if (i/1000)%2 == 0 {
			arr[i] = out
			out++
		} else {
			arr[i] = -1
		}
	}
	e := EncodeArr(arr)
	if e == nil {
		t.Fatal("select-shaped array should compress")
	}
	if e.SizeBytes() >= 4*n/10 {
		t.Fatalf("select-shaped array: %d bytes, want < 10%% of raw %d", e.SizeBytes(), 4*n)
	}
	for i := 0; i < n; i += 997 {
		if got := e.Get(Rid(i)); got != arr[i] {
			t.Fatalf("Get(%d) = %d, want %d", i, got, arr[i])
		}
	}
}

func TestMergeEncodedBySlotMatchesRawMerge(t *testing.T) {
	// Three partitions with contiguous, ordered rid ranges; local slots map
	// to interleaved global slots.
	parts := [][][]Rid{
		{{0, 1, 2}, {5, 9}},      // partition 0: slots a, b
		{{10, 11}, {12, 13, 19}}, // partition 1: slots b, c
		{{20, 25}, {}, {21, 22}}, // partition 2: slots a, c(empty), b
	}
	slotMaps := [][]Rid{{0, 1}, {1, 2}, {0, 2, 1}}
	nGlobal := 3

	want := MergeListsBySlot(parts, slotMaps, nGlobal)

	encParts := make([]*EncodedIndex, len(parts))
	for p, lists := range parts {
		encParts[p] = EncodeLists(lists)
	}
	got := MergeEncodedBySlot(encParts, slotMaps, nGlobal)

	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), want.Len())
	}
	if got.Cardinality() != want.Cardinality() {
		t.Fatalf("Cardinality = %d, want %d", got.Cardinality(), want.Cardinality())
	}
	for g := 0; g < nGlobal; g++ {
		dec := got.AppendList(g, nil)
		wl := want.List(g)
		if len(wl) == 0 && len(dec) == 0 {
			continue
		}
		if !reflect.DeepEqual(dec, wl) {
			t.Errorf("global slot %d: decoded %v, want %v", g, dec, wl)
		}
	}
}

func TestIndexTraceEncodedMatchesRaw(t *testing.T) {
	lists := [][]Rid{{3, 4, 5}, {}, {100, 7, 7}, {42}}
	ix := NewRidIndex(len(lists))
	for i, l := range lists {
		ix.SetList(i, l)
	}
	raw := NewOneToMany(ix)
	enc := EncodeIndex(raw)
	if enc.Kind != EncodedMany {
		t.Fatalf("EncodeIndex kind = %v", enc.Kind)
	}
	src := []Rid{0, 2, 1, 3, 2}
	if got, want := enc.Trace(src), raw.Trace(src); !reflect.DeepEqual(got, want) {
		t.Fatalf("Trace: %v, want %v", got, want)
	}
	encCap, rawCap := NewCapture(), NewCapture()
	encCap.SetBackward("r", enc)
	rawCap.SetBackward("r", raw)
	got, err1 := encCap.BackwardDistinct("r", src)
	want, err2 := rawCap.BackwardDistinct("r", src)
	if err1 != nil || err2 != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("BackwardDistinct: %v (%v), want %v (%v)", got, err1, want, err2)
	}

	arr := []Rid{-1, 0, 1, 2, -1, -1, 3, 4}
	rawA := NewOneToOne(arr)
	encA := NewEncodedOne(encodeArrRuns(arr, len(arr)))
	// EncodeIndex on such a tiny array adaptively keeps raw.
	if kept := EncodeIndex(rawA); kept.Kind != OneToOne {
		t.Fatalf("EncodeIndex(tiny arr) kind = %v, want raw OneToOne", kept.Kind)
	}
	all := make([]Rid, len(arr))
	for i := range all {
		all[i] = Rid(i)
	}
	if got, want := encA.Trace(all), rawA.Trace(all); !reflect.DeepEqual(got, want) {
		t.Fatalf("Trace(arr): %v, want %v", got, want)
	}
}

func TestComposeInvertWithEncodedOperands(t *testing.T) {
	// outer: A→B (one-to-many), inner: B→C (one-to-one with drops).
	outerIx := NewRidIndex(3)
	outerIx.SetList(0, []Rid{0, 1})
	outerIx.SetList(1, []Rid{2})
	outerIx.SetList(2, nil)
	outer := NewOneToMany(outerIx)
	innerArr := []Rid{5, -1, 6}
	inner := NewOneToOne(innerArr)
	encInner := NewEncodedOne(encodeArrRuns(innerArr, len(innerArr)))

	want := Compose(outer, inner)
	for _, combo := range []struct {
		name         string
		outer, inner *Index
	}{
		{"encOuter", EncodeIndex(outer), inner},
		{"encInner", outer, encInner},
		{"encBoth", EncodeIndex(outer), encInner},
	} {
		got := Compose(combo.outer, combo.inner)
		if !got.Encoded() {
			t.Errorf("%s: composed index should be encoded", combo.name)
		}
		for i := 0; i < want.Len(); i++ {
			g := got.TraceOne(Rid(i), nil)
			w := want.TraceOne(Rid(i), nil)
			if !reflect.DeepEqual(g, w) {
				t.Errorf("%s: entry %d = %v, want %v", combo.name, i, g, w)
			}
		}
	}

	// Invert an encoded forward index; compare against the raw inversion.
	fwArr := []Rid{1, 0, 1, -1, 0}
	fw := NewOneToOne(fwArr)
	wantInv := Invert(fw, 2)
	gotInv := Invert(NewEncodedOne(encodeArrRuns(fwArr, len(fwArr))), 2)
	if !gotInv.Encoded() {
		t.Fatal("inverted encoded index should be encoded")
	}
	for i := 0; i < 2; i++ {
		g := gotInv.TraceOne(Rid(i), nil)
		w := wantInv.TraceOne(Rid(i), nil)
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("invert entry %d = %v, want %v", i, g, w)
		}
	}
}
