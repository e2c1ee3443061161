package lineage

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
)

// sparseOf builds the sparse twin of a rid array: its non-negative entries
// are the present records.
func sparseOf(arr []Rid) *SparseArr {
	var rids []Rid
	for i, v := range arr {
		if v >= 0 {
			rids = append(rids, Rid(i))
		}
	}
	s := NewSparseArr(len(arr), rids)
	for _, r := range rids {
		s.Set(r, arr[r])
	}
	return s
}

// packedOf builds arr's packed twin at the given slot width, over every
// record or, with bitmap, over its non-negative entries. The width must hold
// arr's values.
func packedOf(arr []Rid, width int, bitmap bool) *SparseArr {
	if bitmap {
		return sparseOf(arr).repack(width)
	}
	s := &SparseArr{n: len(arr)}
	s.alloc(width, len(arr))
	for i, v := range arr {
		s.put(i, v)
	}
	return s
}

// packedForms returns every packed twin of arr whose width holds its values:
// widths 1, 2 and 4, each with and without a presence bitmap.
func packedForms(arr []Rid) map[string]*SparseArr {
	maxV := Rid(-1)
	for _, v := range arr {
		maxV = max(maxV, v)
	}
	forms := map[string]*SparseArr{}
	for _, w := range []int{1, 2, 4} {
		if widthFor(maxV) <= w {
			forms[fmt.Sprintf("dense-w%d", w)] = packedOf(arr, w, false)
			forms[fmt.Sprintf("bitmap-w%d", w)] = packedOf(arr, w, true)
		}
	}
	return forms
}

// sparseSubsets returns named rid subsets of [0, n): empty, all, the word
// boundaries, every third record, and a bag with duplicates.
func sparseSubsets(n int) map[string][]Rid {
	subsets := map[string][]Rid{"empty": {}}
	var all, third, bounds, dups []Rid
	for i := 0; i < n; i++ {
		all = append(all, Rid(i))
		if i%3 == 1 {
			third = append(third, Rid(i))
		}
		if i == 0 || i%64 == 63 || i%64 == 0 || i == n-1 {
			bounds = append(bounds, Rid(i))
		}
	}
	for _, r := range bounds {
		dups = append(dups, r, r)
	}
	subsets["all"], subsets["third"], subsets["bounds"], subsets["dups"] = all, third, bounds, dups
	return subsets
}

func TestSparseArrWordBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		for name, rids := range sparseSubsets(n) {
			s := NewSparseArr(n, rids)
			want := make([]Rid, n)
			for i := range want {
				want[i] = -1
			}
			present := 0
			for _, r := range rids {
				if want[r] < 0 {
					present++
				}
				want[r] = (r*7 + 3) % 11
				s.Set(r, want[r])
			}
			if _, _, width, vals := s.Parts(); s.Len() != n || width != 4 || len(vals) != 4*present {
				t.Fatalf("%s (n=%d): Len %d with %d value bytes at width %d, want %d with %d rids",
					name, n, s.Len(), len(vals), width, n, present)
			}
			if got := s.SizeBytes(); got != 8*((n+63)/64)+4*((n+63)/64)+4*present {
				t.Fatalf("%s (n=%d): SizeBytes %d", name, n, got)
			}
			for i := range want {
				if got := s.Get(Rid(i)); got != want[i] {
					t.Fatalf("%s (n=%d): Get(%d) = %d, want %d", name, n, i, got, want[i])
				}
			}
			forms := packedForms(want)
			forms["captured"] = s
			for form, p := range forms {
				what := fmt.Sprintf("%s/%s (n=%d)", name, form, n)
				checkSparseIndex(t, what, NewSparseOne(p), NewOneToOne(want))
				checkPartsRoundTrip(t, what, p, 11)
			}
		}
	}
}

// checkPartsRoundTrip asserts that s reassembles from its parts into an
// array that answers every lookup identically.
func checkPartsRoundTrip(t *testing.T, what string, s *SparseArr, bound int) {
	t.Helper()
	n, words, width, vals := s.Parts()
	back, err := SparseArrFromParts(n, words, width, vals, bound)
	if err != nil {
		t.Fatalf("%s: round trip: %v", what, err)
	}
	if back.Len() != s.Len() || back.SizeBytes() != s.SizeBytes() {
		t.Fatalf("%s: round trip Len/SizeBytes %d/%d, want %d/%d", what, back.Len(), back.SizeBytes(), s.Len(), s.SizeBytes())
	}
	for i := 0; i < n; i++ {
		if back.Get(Rid(i)) != s.Get(Rid(i)) {
			t.Fatalf("%s: round trip Get(%d) = %d, want %d", what, i, back.Get(Rid(i)), s.Get(Rid(i)))
		}
	}
}

// checkSparseIndex asserts that the sparse index answers every Index query
// exactly like its dense twin.
func checkSparseIndex(t *testing.T, name string, sp, dense *Index) {
	t.Helper()
	n := dense.Len()
	if sp.Len() != n {
		t.Fatalf("%s: Len %d, want %d", name, sp.Len(), n)
	}
	if EncodeIndex(sp) != sp {
		t.Fatalf("%s: EncodeIndex changed a sparse index", name)
	}
	if enc := EncodeForward(sp); EncodeForward(enc) != enc || enc.SizeBytes() > sp.SizeBytes() {
		t.Fatalf("%s: EncodeForward is not idempotent or grew the index", name)
	}
	if got := sp.DenseForward(n); !reflect.DeepEqual(got, dense.Arr) {
		t.Fatalf("%s: DenseForward = %v, want %v", name, got, dense.Arr)
	}
	if sp.CheckSeeds([]Rid{Rid(n)}) == nil || sp.CheckSeeds([]Rid{-1}) == nil {
		t.Fatalf("%s: CheckSeeds accepted a seed outside [0, %d)", name, n)
	}
	var all []Rid
	for i := 0; i < n; i++ {
		all = append(all, Rid(i), Rid(n-1-i))
		if !reflect.DeepEqual(sp.TraceOne(Rid(i), nil), dense.TraceOne(Rid(i), nil)) {
			t.Fatalf("%s: TraceOne(%d) differs", name, i)
		}
	}
	if err := sp.CheckSeeds(all); err != nil {
		t.Fatalf("%s: CheckSeeds: %v", name, err)
	}
	if got, want := sp.Trace(all), dense.Trace(all); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Trace = %v, want %v", name, got, want)
	}
	if got, want := traceAll(Invert(sp, 11)), traceAll(Invert(dense, 11)); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Invert = %v, want %v", name, got, want)
	}
	// Composition with a 1-to-1 inner (a HAVING filter's forward array, say)
	// stays sparse and drops whatever the inner drops.
	inner := NewOneToOne([]Rid{4, -1, 0, 9, -1, 2, 2, 1, -1, 3, 5})
	c := Compose(sp, inner)
	if c.Kind != SparseOne {
		t.Fatalf("%s: Compose(sparse, rid array) kind %v, want SparseOne", name, c.Kind)
	}
	if got, want := c.DenseForward(n), Compose(dense, inner).Arr; !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Compose = %v, want %v", name, got, want)
	}
}

// shuffledArr returns n values cycling through [0, groups) in a scattered
// order (no runs), with entry 0 set to groups-1 and entry 1 to -1.
func shuffledArr(n, groups int) []Rid {
	arr := make([]Rid, n)
	for i := range arr {
		arr[i] = Rid(i * 7919 % groups)
	}
	arr[0], arr[1] = Rid(groups-1), -1
	return arr
}

// TestPackedWidthEdges pins the slot width at each edge: a narrow width's
// all-ones slot is -1's, so its largest value is one below it.
func TestPackedWidthEdges(t *testing.T) {
	for _, tc := range []struct {
		max   int
		width int // 4: the array itself is kept
	}{
		{253, 1}, {254, 1}, {255, 2},
		{65533, 2}, {65534, 2}, {65535, 4},
	} {
		arr := shuffledArr(4*(tc.max+1), tc.max+1)
		ix := EncodeForward(NewOneToOne(arr))
		if tc.width == 4 {
			if ix.Kind != OneToOne {
				t.Fatalf("max %d: kind %v, want the raw array kept", tc.max, ix.Kind)
			}
			continue
		}
		if ix.Kind != SparseOne || ix.Sparse.words != nil || ix.Sparse.width != tc.width {
			t.Fatalf("max %d: kind %v, want a dense packed array at width %d", tc.max, ix.Kind, tc.width)
		}
		if got, want := ix.SizeBytes(), tc.width*len(arr); got != want {
			t.Fatalf("max %d: SizeBytes %d, want %d", tc.max, got, want)
		}
		for i, v := range arr {
			if got := ix.Sparse.Get(Rid(i)); got != v {
				t.Fatalf("max %d: Get(%d) = %d, want %d", tc.max, i, got, v)
			}
		}
		checkPartsRoundTrip(t, fmt.Sprintf("max %d", tc.max), ix.Sparse, tc.max+1)
		_, _, _, vals := ix.Sparse.Parts()
		if _, err := SparseArrFromParts(len(arr), nil, tc.width, vals, tc.max); err == nil {
			t.Fatalf("max %d: bound %d accepted value %d", tc.max, tc.max, tc.max)
		}
	}
}

// TestEncodeForwardChooses checks that the chooser builds the smallest form,
// breaking ties toward the dense packed array, and keeps its input when
// nothing is smaller.
func TestEncodeForwardChooses(t *testing.T) {
	clustered := make([]Rid, 6400)
	for i := range clustered {
		clustered[i] = Rid(i / 640)
	}
	few := make([]Rid, 6400)
	for i := range few {
		few[i] = -1
	}
	for i := 0; i < len(few); i += 10 {
		few[i] = Rid(i % 7)
	}
	wide := shuffledArr(6400, 6400)
	wide[5] = 1 << 20
	for _, tc := range []struct {
		name  string
		arr   []Rid
		kind  Kind
		width int // SparseOne only
		bits  bool
	}{
		{"clustered", clustered, EncodedOne, 0, false},
		{"all dropped", []Rid{-1, -1, -1, -1, -1, -1, -1, -1, -1, -1}, EncodedOne, 0, false},
		{"1000 groups", shuffledArr(6400, 1000), SparseOne, 2, false},
		{"4 groups", shuffledArr(6400, 4), SparseOne, 1, false},
		{"few present", few, SparseOne, 1, true},
		{"tie runs vs dense", []Rid{3, 3, 3, 3, 3, 3, 3, 3, 3}, SparseOne, 1, false},
		{"wide values", wide, OneToOne, 0, false},
	} {
		raw := NewOneToOne(tc.arr)
		ix := EncodeForward(raw)
		if ix.Kind != tc.kind {
			t.Fatalf("%s: kind %v, want %v", tc.name, ix.Kind, tc.kind)
		}
		if tc.kind == SparseOne && (ix.Sparse.width != tc.width || (ix.Sparse.words != nil) != tc.bits) {
			t.Fatalf("%s: width %d bitmap %v, want %d %v", tc.name, ix.Sparse.width, ix.Sparse.words != nil, tc.width, tc.bits)
		}
		if tc.kind == OneToOne && ix != raw {
			t.Fatalf("%s: the kept array was rebuilt", tc.name)
		}
		if EncodeForward(ix) != ix {
			t.Fatalf("%s: EncodeForward is not idempotent", tc.name)
		}
		if got := ix.DenseForward(len(tc.arr)); !reflect.DeepEqual(got, tc.arr) {
			t.Fatalf("%s: DenseForward differs from the input", tc.name)
		}
		// The chosen form is no larger than any candidate, raw included.
		if ix.SizeBytes() > raw.SizeBytes() {
			t.Fatalf("%s: %d bytes, raw is %d", tc.name, ix.SizeBytes(), raw.SizeBytes())
		}
		if e := EncodeArr(tc.arr); e != nil && ix.SizeBytes() > e.SizeBytes() {
			t.Fatalf("%s: %d bytes, the run directory is %d", tc.name, ix.SizeBytes(), e.SizeBytes())
		}
	}
	// A capture-time sparse array (4-byte slots) repacks to the narrowest
	// width and keeps its bitmap.
	sp := NewSparseOne(sparseOf(few))
	if ix := EncodeForward(sp); ix.Kind != SparseOne || ix.Sparse.width != 1 || ix.Sparse.words == nil {
		t.Fatalf("sparse repack: kind %v width %d", ix.Kind, ix.Sparse.width)
	}
}

func TestSparseArrFromPartsRejects(t *testing.T) {
	good := NewSparseArr(70, []Rid{0, 64, 69})
	good.Set(69, 1)
	n, words, _, vals := good.Parts() // values 0, 0, 1
	w1 := []byte{0, 0xff, 1}
	for _, tc := range []struct {
		name  string
		n     int
		words []uint64
		width int
		vals  []byte
	}{
		{"negative count", -1, nil, 4, nil},
		{"too few words", n, words[:1], 4, vals},
		{"too many words", n, append(append([]uint64(nil), words...), 0), 4, vals},
		{"bit past n", n, []uint64{words[0], words[1] | 1<<6}, 4, append(append([]byte(nil), vals...), 0, 0, 0, 0)},
		{"popcount above values", n, words, 4, vals[:8]},
		{"popcount below values", n, words, 4, append(append([]byte(nil), vals...), 0, 0, 0, 0)},
		{"value below -1", n, words, 4, []byte{0, 0, 0, 0, 0xfe, 0xff, 0xff, 0xff, 0, 0, 0, 0}},
		{"value at bound", n, words, 4, []byte{0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0}},
		{"narrow value at bound", n, words, 1, []byte{0, 2, 1}},
		{"width 0", n, words, 0, nil},
		{"width 3", n, words, 3, make([]byte, 9)},
		{"width 8", n, words, 8, make([]byte, 24)},
		{"values not whole slots", n, words, 2, make([]byte, 5)},
		{"no bitmap, short values", n, nil, 1, w1},
		{"no bitmap, record count wraps present*width", 1 << 62, nil, 4, nil},
	} {
		if _, err := SparseArrFromParts(tc.n, tc.words, tc.width, tc.vals, 2); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := SparseArrFromParts(n, words, 1, w1, 2); err != nil {
		t.Fatalf("-1 values (a composed drop) must validate: %v", err)
	}
	if _, err := SparseArrFromParts(n, nil, 1, make([]byte, n), 2); err != nil {
		t.Fatalf("a dense packed array must validate: %v", err)
	}
	// A misaligned 4-byte value section is copied, not cast.
	buf := make([]byte, 1+len(vals))
	copy(buf[1:], vals)
	if s, err := SparseArrFromParts(n, words, 4, buf[1:], 2); err != nil || s.Get(69) != 1 {
		t.Fatalf("misaligned values: %v", err)
	}
	// So is a misaligned 2-byte one.
	buf = []byte{0}
	for _, v := range []uint16{0, 0xffff, 1} {
		buf = binary.NativeEndian.AppendUint16(buf, v)
	}
	if s, err := SparseArrFromParts(n, words, 2, buf[1:], 2); err != nil || s.Get(64) != -1 || s.Get(69) != 1 {
		t.Fatalf("misaligned 2-byte values: %v", err)
	}
}

// TestEncodedArrFromPartsBound checks that a run directory whose runs yield a
// value outside [-1, bound) is rejected: a constant run at the bound, a
// sequential run that climbs to it, and a sequential run from -1.
func TestEncodedArrFromPartsBound(t *testing.T) {
	const n, bound = 10, 8
	for _, tc := range []struct {
		name   string
		starts []int32
		vals   []Rid
		seq    []bool
		ok     bool
	}{
		{"in range", []int32{0, 3}, []Rid{-1, 0}, []bool{false, true}, true},
		{"sequential to the last target", []int32{0, 2}, []Rid{5, 0}, []bool{false, true}, true},
		{"constant at bound", []int32{0, 5}, []Rid{0, bound}, []bool{false, false}, false},
		{"constant below -1", []int32{0}, []Rid{-2}, []bool{false}, false},
		{"sequential past bound", []int32{0, 1}, []Rid{0, 0}, []bool{false, true}, false},
		{"sequential from -1", []int32{0}, []Rid{-1}, []bool{true}, false},
	} {
		_, err := EncodedArrFromParts(n, tc.starts, tc.vals, tc.seq, bound)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// FuzzSparseParts feeds SparseArrFromParts arbitrary bitmaps, slot widths,
// value bytes and bounds: what it rejects must be a structured error, never a
// panic, and what it accepts must answer every lookup in range with a value
// in [-1, bound) and hold exactly one slot per present record.
func FuzzSparseParts(f *testing.F) {
	add := func(n int, dense bool, width, bound int, words []uint64, vals []Rid) {
		wb := make([]byte, 0, 8*len(words))
		for _, w := range words {
			wb = binary.LittleEndian.AppendUint64(wb, w)
		}
		vb := make([]byte, 0, width*len(vals))
		for _, v := range vals {
			switch width {
			case 1:
				vb = append(vb, byte(v))
			case 2:
				vb = binary.LittleEndian.AppendUint16(vb, uint16(v))
			default:
				vb = binary.LittleEndian.AppendUint32(vb, uint32(v))
			}
		}
		f.Add(n, dense, width, bound, wb, vb)
	}
	add(0, false, 4, 1, nil, nil)
	add(129, false, 4, 2, []uint64{1 << 63, 1, 1}, []Rid{0, 1, -1})
	add(64, false, 4, 64, []uint64{^uint64(0)}, make([]Rid, 64))
	add(65, false, 4, 1, []uint64{1}, []Rid{0})       // wrong word count
	add(65, false, 4, 1, []uint64{1, 2}, []Rid{0, 0}) // bit past n
	add(64, false, 4, 1, []uint64{3}, []Rid{0})       // popcount != values
	add(64, false, 4, 1, []uint64{1}, []Rid{-7})      // value below -1
	add(4, true, 1, 3, nil, []Rid{0, 2, -1, 1})       // dense, width 1
	add(3, true, 2, 300, nil, []Rid{299, -1, 0})      // dense, width 2
	add(70, false, 2, 9, []uint64{1, 1 << 5}, []Rid{8, -1})
	add(4, true, 3, 3, nil, []Rid{0, 1, 2, 0})  // bad width
	add(9, true, 1, 3, nil, []Rid{0, 1, 2})     // no bitmap, short values
	add(4, true, 1, 2, nil, []Rid{0, 1, 2, -1}) // value at bound
	add(1<<62, true, 4, 1, nil, nil)            // present*width wraps to 0
	f.Fuzz(func(t *testing.T, n int, dense bool, width, bound int, wb, vb []byte) {
		var words []uint64
		if !dense {
			words = make([]uint64, len(wb)/8)
			for i := range words {
				words[i] = binary.LittleEndian.Uint64(wb[8*i:])
			}
		}
		s, err := SparseArrFromParts(n, words, width, vb, bound)
		if err != nil {
			return
		}
		present := 0
		for i := 0; i < n; i++ {
			v := s.Get(Rid(i))
			if v < -1 || int64(v) >= int64(bound) {
				t.Fatalf("Get(%d) = %d outside [-1, %d)", i, v, bound)
			}
			if dense || words[i>>6]&(1<<(i&63)) != 0 {
				present++
			}
		}
		if present*width != len(vb) {
			t.Fatalf("accepted %d present records at width %d for %d value bytes", present, width, len(vb))
		}
		_ = NewSparseOne(s).DenseForward(n)
	})
}
