package lineage

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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

// packedOf builds arr's packed twin at b bits per slot: over every record
// (the all-ones slot reserved for -1 when arr holds one) or, with bitmap,
// over its non-negative entries. b must hold arr's values.
func packedOf(arr []Rid, b uint, bitmap bool) *SparseArr {
	var present []Rid
	for i, v := range arr {
		if v >= 0 {
			present = append(present, Rid(i))
		}
	}
	if !bitmap {
		return newPacked(len(arr), presence{}, len(arr), b, len(present) < len(arr), arr)
	}
	return newPacked(len(arr), NewSparseArr(len(arr), present).presence, len(present), b, false, arr)
}

// packedForms returns packed twins of arr at the bit widths that hold its
// values — the exact one, one more, a byte-layout width and 31 — each with
// and without a presence bitmap.
func packedForms(arr []Rid) map[string]*SparseArr {
	maxV, neg := Rid(-1), false
	for _, v := range arr {
		maxV, neg = max(maxV, v), neg || v < 0
	}
	forms := map[string]*SparseArr{}
	for _, bitmap := range []bool{false, true} {
		least := slotBits(maxV, neg && !bitmap)
		for _, b := range []uint{least, least + 1, 16, 31} {
			if b >= least && b < 32 {
				name := fmt.Sprintf("dense-b%d", b)
				if bitmap {
					name = fmt.Sprintf("bitmap-b%d", b)
				}
				forms[name] = packedOf(arr, b, bitmap)
			}
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
			if _, _, b, _, vals := s.Parts(); s.Len() != n || b != 32 || len(vals) != 4*present {
				t.Fatalf("%s (n=%d): Len %d with %d value bytes at %d bits, want %d with %d rids",
					name, n, s.Len(), len(vals), b, n, present)
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
	n, words, b, sentinel, vals := s.Parts()
	back, err := SparseArrFromParts(n, words, b, sentinel, vals, bound)
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

// TestPackedWidthEdges pins the bit width at each edge: b bits hold values up
// to 2^b-1, but only up to 2^b-2 when an entry is -1, whose all-ones slot
// that is. A dense array needing 32 bits is the rid array itself.
func TestPackedWidthEdges(t *testing.T) {
	type edge struct {
		max  int64
		neg  bool
		bits uint // 32: the array itself is kept
	}
	var edges []edge
	for _, b := range []uint{1, 2, 8, 10, 16, 31} {
		top := int64(1)<<b - 1
		edges = append(edges,
			edge{top - 1, false, max(b, 1)}, edge{top, false, b}, edge{top + 1, false, b + 1},
			edge{top - 1, true, b}, edge{top, true, b + 1}, edge{top + 1, true, b + 1})
	}
	for _, tc := range edges {
		if tc.max < 0 || tc.max > math.MaxInt32 {
			continue // 2^31 is not a rid
		}
		if tc.max == 0 && !tc.neg {
			continue // every entry 0: one run, whatever the width
		}
		what := fmt.Sprintf("max %d neg %v", tc.max, tc.neg)
		// Scattered values (no long runs) from [0, min(max, 999)], plus -1
		// when neg; the largest at entry 0.
		m, off := min(tc.max+1, 1000), 0
		if tc.neg {
			m, off = m+1, 1
		}
		arr := make([]Rid, 4096)
		for i := range arr {
			arr[i] = Rid(int64(i*7919)%m) - Rid(off)
		}
		arr[0] = Rid(tc.max)
		ix := EncodeForward(NewOneToOne(arr))
		if tc.bits == 32 {
			if ix.Kind != OneToOne {
				t.Fatalf("%s: kind %v, want the raw array kept", what, ix.Kind)
			}
			continue
		}
		if ix.Kind != SparseOne || ix.Sparse.words != nil || ix.Sparse.b != tc.bits {
			t.Fatalf("%s: kind %v, want a dense packed array at %d bits", what, ix.Kind, tc.bits)
		}
		if got, want := ix.SizeBytes(), 8*((len(arr)*int(tc.bits)+63)/64); got != want {
			t.Fatalf("%s: SizeBytes %d, want %d", what, got, want)
		}
		for i, v := range arr {
			if got := ix.Sparse.Get(Rid(i)); got != v {
				t.Fatalf("%s: Get(%d) = %d, want %d", what, i, got, v)
			}
		}
		checkPartsRoundTrip(t, what, ix.Sparse, int(tc.max)+1)
		n, _, b, sentinel, vals := ix.Sparse.Parts()
		if sentinel != tc.neg {
			t.Fatalf("%s: sentinel %v", what, sentinel)
		}
		if _, err := SparseArrFromParts(n, nil, b, sentinel, vals, int(tc.max)); err == nil {
			t.Fatalf("%s: bound %d accepted value %d", what, tc.max, tc.max)
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
	dropped := make([]Rid, 100)
	for i := range dropped {
		dropped[i] = -1
	}
	few := make([]Rid, 6400)
	for i := range few {
		few[i] = -1
	}
	for i := 0; i < len(few); i += 10 {
		few[i] = Rid(i % 7)
	}
	// 8 constant runs of 36 over values 0..3: the run directory's 72 bytes
	// tie the dense 2-bit array's 9 words.
	tie := make([]Rid, 288)
	for i := range tie {
		tie[i] = Rid(i / 36 % 4)
	}
	wide := shuffledArr(6400, 6400)
	wide[5] = 1 << 20
	widest := shuffledArr(6400, 6400)
	widest[5] = math.MaxInt32
	for _, tc := range []struct {
		name   string
		arr    []Rid
		kind   Kind
		bits   uint // SparseOne only
		bitmap bool
	}{
		{"clustered", clustered, EncodedOne, 0, false},
		{"all dropped", dropped, EncodedOne, 0, false},
		{"1000 groups", shuffledArr(6400, 1000), SparseOne, 10, false},
		{"4 groups and a -1", shuffledArr(6400, 4), SparseOne, 3, false},
		{"4 groups", shuffledArr(6400, 4)[2:], SparseOne, 2, false},
		{"few present", few, SparseOne, 3, true},
		{"tie runs vs dense", tie, SparseOne, 2, false},
		{"wide values", wide, SparseOne, 21, false},
		{"widest values", widest, OneToOne, 0, false},
	} {
		raw := NewOneToOne(tc.arr)
		ix := EncodeForward(raw)
		if ix.Kind != tc.kind {
			t.Fatalf("%s: kind %v, want %v", tc.name, ix.Kind, tc.kind)
		}
		if tc.kind == SparseOne && (ix.Sparse.b != tc.bits || (ix.Sparse.words != nil) != tc.bitmap) {
			t.Fatalf("%s: %d bits bitmap %v, want %d %v", tc.name, ix.Sparse.b, ix.Sparse.words != nil, tc.bits, tc.bitmap)
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
		// The chosen form is no larger than any candidate: raw, the run
		// directory, and every packed twin.
		if ix.SizeBytes() > raw.SizeBytes() {
			t.Fatalf("%s: %d bytes, raw is %d", tc.name, ix.SizeBytes(), raw.SizeBytes())
		}
		if e := EncodeArr(tc.arr); e != nil && ix.SizeBytes() > e.SizeBytes() {
			t.Fatalf("%s: %d bytes, the run directory is %d", tc.name, ix.SizeBytes(), e.SizeBytes())
		}
		for form, p := range packedForms(tc.arr) {
			if ix.SizeBytes() > p.SizeBytes() {
				t.Fatalf("%s: %d bytes, the %s twin is %d", tc.name, ix.SizeBytes(), form, p.SizeBytes())
			}
		}
	}
	// A capture-time sparse array (32-bit slots) packs to its exact width
	// and keeps its bitmap; a record holding -1 (a composed drop) leaves the
	// bitmap instead of costing a sentinel bit.
	s := sparseOf(few)
	if ix := EncodeForward(NewSparseOne(s)); ix.Kind != SparseOne || ix.Sparse.b != 3 || ix.Sparse.words == nil {
		t.Fatalf("sparse pack: kind %v, %d bits", ix.Kind, ix.Sparse.b)
	}
	s.Set(60, -1)
	dropOne := append([]Rid(nil), few...)
	dropOne[60] = -1
	ix := EncodeForward(NewSparseOne(s))
	if ix.Kind != SparseOne || ix.Sparse.b != 3 || ix.Sparse.count != s.count-1 || ix.Sparse.wrap == ix.Sparse.mask {
		t.Fatalf("sparse pack with a -1: kind %v, %d bits, %d slots", ix.Kind, ix.Sparse.b, ix.Sparse.count)
	}
	if got := ix.DenseForward(len(few)); !reflect.DeepEqual(got, dropOne) {
		t.Fatal("sparse pack with a -1: DenseForward differs")
	}
	if s.Get(60) != -1 || s.count != len(few)/10 {
		t.Fatal("packing changed the capture-time array")
	}
}

// sparseParts is one SparseArrFromParts input.
type sparseParts struct {
	name     string
	n        int
	words    []uint64
	bits     int
	sentinel bool
	vals     []byte
}

func TestSparseArrFromPartsRejects(t *testing.T) {
	good := NewSparseArr(70, []Rid{0, 64, 69})
	good.Set(69, 1)
	n, words, _, _, vals := good.Parts() // values 0, 0, 1
	w8 := []byte{0, 0xff, 1}
	for _, tc := range []sparseParts{
		{"negative count", -1, nil, 32, true, nil},
		{"too few words", n, words[:1], 32, true, vals},
		{"too many words", n, append(append([]uint64(nil), words...), 0), 32, true, vals},
		{"bit past n", n, []uint64{words[0], words[1] | 1<<6}, 32, true, append(append([]byte(nil), vals...), 0, 0, 0, 0)},
		{"popcount above values", n, words, 32, true, vals[:8]},
		{"values past their words", n, words, 32, true, append(append([]byte(nil), vals...), make([]byte, 8)...)},
		{"value below -1", n, words, 32, true, []byte{0, 0, 0, 0, 0xfe, 0xff, 0xff, 0xff, 0, 0, 0, 0}},
		{"value at bound", n, words, 32, true, []byte{0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0}},
		{"8-bit value at bound", n, words, 8, true, []byte{0, 2, 1}},
		{"all-ones without a sentinel", n, words, 8, false, w8},
		{"10-bit value at bound", n, words, 10, false, []byte{0, 0, 0x20, 0}},
		{"bits 0", n, words, 0, true, nil},
		{"bits 33", n, words, 33, true, make([]byte, 16)},
		{"bits -8", n, words, -8, true, nil},
		{"10 bits, short values", n, words, 10, false, make([]byte, 3)},
		{"10 bits, values past their word", n, words, 10, false, make([]byte, 9)},
		{"no bitmap, short values", n, nil, 8, true, w8},
		{"no bitmap, record count wraps count*bits", 1 << 62, nil, 32, true, nil},
		{"no bitmap, record count wraps at one bit", 1 << 62, nil, 1, false, make([]byte, 8)},
	} {
		if _, err := SparseArrFromParts(tc.n, tc.words, tc.bits, tc.sentinel, tc.vals, 2); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	for _, tc := range []sparseParts{
		{"-1 values (a composed drop) at 8 bits", n, words, 8, true, w8},
		{"a dense 8-bit array", n, nil, 8, true, make([]byte, n)},
		{"a dense 1-bit array without a sentinel", n, nil, 1, false, make([]byte, 9)},
		{"10 bits in whole words", n, words, 10, false, []byte{0, 0, 0x10, 0, 0, 0, 0, 0}},
	} {
		if _, err := SparseArrFromParts(tc.n, tc.words, tc.bits, tc.sentinel, tc.vals, 2); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
	// The sentinel flag alone decides whether the all-ones slot is -1.
	for sentinel, want := range map[bool]Rid{false: 1, true: -1} {
		s, err := SparseArrFromParts(2, nil, 1, sentinel, []byte{0b10}, 2)
		if err != nil || s.Get(0) != 0 || s.Get(1) != want {
			t.Fatalf("1-bit all-ones slot with sentinel %v: %v", sentinel, err)
		}
	}
	// A misaligned 32-bit value section is copied, not cast.
	buf := make([]byte, 1+len(vals))
	copy(buf[1:], vals)
	if s, err := SparseArrFromParts(n, words, 32, true, buf[1:], 2); err != nil || s.Get(69) != 1 {
		t.Fatalf("misaligned values: %v", err)
	}
	// So is a misaligned packed one, and one that is not whole words (an
	// older writer's 16-bit slots).
	buf = []byte{0}
	for _, v := range []uint16{0, 0xffff, 1} {
		buf = binary.NativeEndian.AppendUint16(buf, v)
	}
	if s, err := SparseArrFromParts(n, words, 16, true, buf[1:], 2); err != nil || s.Get(64) != -1 || s.Get(69) != 1 {
		t.Fatalf("misaligned 16-bit values: %v", err)
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

// FuzzSparseParts feeds SparseArrFromParts arbitrary bitmaps, bit widths,
// sentinel flags, value bytes and bounds: what it rejects must be a
// structured error, never a panic, and what it accepts must answer every
// lookup in range with a value in [-1, bound) and hold at least one b-bit
// slot per present record, in no more than the words they occupy.
func FuzzSparseParts(f *testing.F) {
	add := func(n int, dense bool, b int, sentinel bool, bound int, words []uint64, vals []Rid) {
		wb := make([]byte, 0, 8*len(words))
		for _, w := range words {
			wb = binary.LittleEndian.AppendUint64(wb, w)
		}
		var stream []uint64
		for k, v := range vals {
			off := k * b
			for len(stream) <= (off+b-1)/64 {
				stream = append(stream, 0)
			}
			x := uint64(v) & (1<<b - 1)
			stream[off/64] |= x << (off % 64)
			if off%64+b > 64 {
				stream[off/64+1] |= x >> (64 - off%64)
			}
		}
		vb := make([]byte, 0, 8*len(stream))
		for _, w := range stream {
			vb = binary.LittleEndian.AppendUint64(vb, w)
		}
		f.Add(n, dense, b, sentinel, bound, wb, vb[:(len(vals)*b+7)/8])
	}
	add(0, false, 32, true, 1, nil, nil)
	add(129, false, 32, true, 2, []uint64{1 << 63, 1, 1}, []Rid{0, 1, -1})
	add(64, false, 32, true, 64, []uint64{^uint64(0)}, make([]Rid, 64))
	add(65, false, 32, true, 1, []uint64{1}, []Rid{0})       // wrong word count
	add(65, false, 32, true, 1, []uint64{1, 2}, []Rid{0, 0}) // bit past n
	add(64, false, 32, true, 1, []uint64{3}, []Rid{0})       // popcount != values
	add(64, false, 32, true, 1, []uint64{1}, []Rid{-7})      // value below -1
	add(4, true, 8, true, 3, nil, []Rid{0, 2, -1, 1})        // dense, 8 bits
	add(3, true, 16, true, 300, nil, []Rid{299, -1, 0})      // dense, 16 bits
	add(70, false, 16, true, 9, []uint64{1, 1 << 5}, []Rid{8, -1})
	add(4, true, 33, true, 3, nil, []Rid{0, 1, 2, 0})                   // bad width
	add(9, true, 8, true, 3, nil, []Rid{0, 1, 2})                       // no bitmap, short values
	add(4, true, 8, true, 2, nil, []Rid{0, 1, 2, -1})                   // value at bound
	add(1<<62, true, 32, true, 1, nil, nil)                             // count*bits wraps to 0
	add(1<<62, true, 1, false, 1, nil, make([]Rid, 64))                 // count*bits wraps at one bit
	add(7, true, 10, false, 1000, nil, []Rid{999, 0, 1023, 5, 6, 7, 8}) // 10 bits, value past bound
	add(7, true, 10, true, 1000, nil, []Rid{999, 0, -1, 5, 6, 7, 8})    // 10 bits, straddling words
	add(3, true, 1, false, 2, nil, []Rid{1, 0, 1})                      // 1 bit, no sentinel
	add(130, false, 3, false, 8, []uint64{1 << 63, 1, 3}, []Rid{7, 0, 6, 5})
	f.Fuzz(func(t *testing.T, n int, dense bool, b int, sentinel bool, bound int, wb, vb []byte) {
		var words []uint64
		if !dense {
			words = make([]uint64, len(wb)/8)
			for i := range words {
				words[i] = binary.LittleEndian.Uint64(wb[8*i:])
			}
		}
		s, err := SparseArrFromParts(n, words, b, sentinel, vb, bound)
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
		if 8*len(vb) < present*b || len(vb) > 8*((present*b+63)/64) {
			t.Fatalf("accepted %d present records at %d bits for %d value bytes", present, b, len(vb))
		}
		_ = NewSparseOne(s).DenseForward(n)
	})
}

// TestLookupMatchesTraceOne probes every one-to-one forward form — the raw
// array, a capture-time bitmap array, each form EncodeForward picks, and a
// packed array at every slot width from 1 to 32 bits (the word-straddling
// ones included) with and without a bitmap, the all-ones sentinel on and
// off, built and restored from its parts — with ascending, descending and
// duplicated rids, and requires Lookup to read what TraceOne reads, -1
// where a record maps to nothing.
func TestLookupMatchesTraceOne(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n = 1000
	probes := make([]Rid, 0, 3*n)
	for i := 0; i < n; i++ {
		probes = append(probes, Rid(i))
	}
	for i := n - 1; i >= 0; i -= 3 {
		probes = append(probes, Rid(i), Rid(i))
	}
	for _, absent := range []int{0, 3, 10} { // one record in absent maps to nothing (0: none)
		arr := make([]Rid, n)
		present := []Rid{}
		for i := range arr {
			arr[i] = Rid(r.Intn(37))
			if absent > 0 && r.Intn(absent) == 0 {
				arr[i] = -1
			} else {
				present = append(present, Rid(i))
			}
		}
		capture := NewSparseArr(n, present)
		for _, p := range present {
			capture.Set(p, arr[p])
		}
		forms := map[string]*Index{
			"raw":          NewOneToOne(arr),
			"capture-time": NewSparseOne(capture),
			"encoded":      EncodeForward(NewOneToOne(arr)),
			"packed":       EncodeForward(NewSparseOne(capture)),
			"runs":         EncodeForward(NewOneToOne(slices.Repeat([]Rid{4}, n))),
		}
		for name, ix := range forms {
			checkLookup(t, fmt.Sprintf("absent 1/%d %s (kind %d)", absent, name, ix.Kind), ix, probes)
		}
	}
	for b := uint(1); b <= 32; b++ {
		for _, bitmap := range []bool{false, true} {
			for _, sentinel := range []bool{false, true} {
				if b == 32 && !sentinel {
					continue // 32-bit slots are rids: -1 is always the sentinel
				}
				arr, s := widthArr(r, n, b, bitmap, sentinel)
				what := fmt.Sprintf("b%d bitmap=%v sentinel=%v", b, bitmap, sentinel)
				checkLookup(t, what, NewSparseOne(s), probes)
				for i, v := range arr {
					if got := s.Get(Rid(i)); got != v {
						t.Fatalf("%s: Get(%d) = %d, want %d", what, i, got, v)
					}
				}
				pn, words, pb, psent, vals := s.Parts()
				back, err := SparseArrFromParts(pn, words, pb, psent, vals, int(widthTop(b, sentinel))+1)
				if err != nil {
					t.Fatalf("%s: from parts: %v", what, err)
				}
				checkLookup(t, what+" from parts", NewSparseOne(back), probes)
			}
		}
	}
}

// widthTop returns the largest value a b-bit slot holds: all ones, less one
// when the all-ones slot is the -1 sentinel, and the largest rid at 32 bits.
func widthTop(b uint, sentinel bool) Rid {
	if b == 32 {
		return math.MaxInt32
	}
	top := Rid(1)<<b - 1
	if sentinel {
		top--
	}
	return top
}

// widthArr draws n records' values for a b-bit array — 0, the width's top
// value or anything between, and -1 where the array can hold it (an absent
// record with a bitmap, the sentinel without one) — and builds the array.
func widthArr(r *rand.Rand, n int, b uint, bitmap, sentinel bool) ([]Rid, *SparseArr) {
	top := widthTop(b, sentinel)
	arr := make([]Rid, n)
	var present []Rid
	for i := range arr {
		switch {
		case (bitmap || sentinel) && r.Intn(4) == 0:
			arr[i] = -1
		case r.Intn(3) == 0:
			arr[i] = top
		default:
			arr[i] = Rid(r.Int63n(int64(top) + 1))
		}
		if arr[i] >= 0 {
			present = append(present, Rid(i))
		}
	}
	switch {
	case b == 32 && bitmap:
		return arr, sparseOf(arr)
	case b == 32:
		s, err := SparseArrFromParts(n, nil, 32, true, bytesOf(arr), int(top)+1)
		if err != nil {
			panic(err)
		}
		return arr, s
	case bitmap:
		return arr, newPacked(n, NewSparseArr(n, present).presence, len(present), b, sentinel, arr)
	}
	return arr, newPacked(n, presence{}, n, b, sentinel, arr)
}

// checkLookup requires ix.Lookup over probes to append what TraceOne reads
// for each, -1 where it reads nothing.
func checkLookup(t *testing.T, what string, ix *Index, probes []Rid) {
	t.Helper()
	got := ix.Lookup(probes, []Rid{-7})
	if got[0] != -7 || len(got) != len(probes)+1 {
		t.Fatalf("%s: Lookup did not append", what)
	}
	for j, p := range probes {
		want := Rid(-1)
		if one := ix.TraceOne(p, nil); len(one) == 1 {
			want = one[0]
		}
		if got[j+1] != want {
			t.Fatalf("%s: Lookup(%d) = %d, want %d", what, p, got[j+1], want)
		}
	}
}

// BenchmarkLookup probes each one-to-one forward form with one brush: an
// ascending 15.6k-rid bar drawn from the records that map to a group, a
// quarter of 500k over 1000 groups — the per-rid probe the forward-scatter
// rule counts a traced bar through. capture-time is a filtered view's
// forward index as captured; packed is the same index compressed or
// persisted (a bitmap and 10-bit slots); dense-packed maps every record;
// runs is a run directory over contiguous groups of 512 records.
func BenchmarkLookup(b *testing.B) {
	const n, groups, bar = 500_000, 1000, 15_600
	r := rand.New(rand.NewSource(1))
	arr := make([]Rid, n)
	dense := make([]Rid, n)
	runs := make([]Rid, n)
	var present []Rid
	for i := range arr {
		arr[i] = -1
		if r.Intn(4) == 0 {
			arr[i] = Rid(r.Intn(groups))
			present = append(present, Rid(i))
		}
		dense[i] = Rid(r.Intn(groups))
		runs[i] = Rid(i / 512)
	}
	probes := make([]Rid, bar)
	for j, k := range r.Perm(len(present))[:bar] {
		probes[j] = present[k]
	}
	slices.Sort(probes)
	forms := []struct {
		name string
		ix   *Index
	}{
		{"capture-time", NewSparseOne(sparseOf(arr))},
		{"packed", EncodeForward(NewSparseOne(sparseOf(arr)))},
		{"dense-packed", EncodeForward(NewOneToOne(dense))},
		{"runs", EncodeForward(NewOneToOne(runs))},
	}
	if p := forms[1].ix; p.Kind != SparseOne || p.Sparse.b == 32 || p.Sparse.words == nil ||
		forms[2].ix.Kind != SparseOne || forms[2].ix.Sparse.words != nil || forms[3].ix.Kind != EncodedOne {
		b.Fatal("EncodeForward did not pick the benchmarked forms")
	}
	for _, f := range forms {
		b.Run(f.name, func(b *testing.B) {
			out := make([]Rid, 0, bar)
			for i := 0; i < b.N; i++ {
				out = f.ix.Lookup(probes, out[:0])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bar), "ns/rid")
		})
	}
}
