package lineage

import (
	"encoding/binary"
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
			if _, _, vals := s.Parts(); s.Len() != n || len(vals) != present {
				t.Fatalf("%s (n=%d): Len %d with %d values, want %d with %d", name, n, s.Len(), len(vals), n, present)
			}
			if got := s.SizeBytes(); got != 8*((n+63)/64)+4*((n+63)/64)+4*present {
				t.Fatalf("%s (n=%d): SizeBytes %d", name, n, got)
			}
			for i := range want {
				if got := s.Get(Rid(i)); got != want[i] {
					t.Fatalf("%s (n=%d): Get(%d) = %d, want %d", name, n, i, got, want[i])
				}
			}
			checkSparseIndex(t, name, NewSparseOne(s), NewOneToOne(want))

			n2, words, vals := s.Parts()
			back, err := SparseArrFromParts(n2, words, vals)
			if err != nil {
				t.Fatalf("%s (n=%d): round trip: %v", name, n, err)
			}
			if !reflect.DeepEqual(back, s) {
				t.Fatalf("%s (n=%d): round trip differs", name, n)
			}
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
	if got := sp.DenseForward(n); !reflect.DeepEqual(got, dense.Arr) {
		t.Fatalf("%s: DenseForward = %v, want %v", name, got, dense.Arr)
	}
	var all []Rid
	for i := 0; i < n; i++ {
		all = append(all, Rid(i), Rid(n-1-i))
		if !reflect.DeepEqual(sp.TraceOne(Rid(i), nil), dense.TraceOne(Rid(i), nil)) {
			t.Fatalf("%s: TraceOne(%d) differs", name, i)
		}
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

func TestSparseArrFromPartsRejects(t *testing.T) {
	good := NewSparseArr(70, []Rid{0, 64, 69})
	n, words, vals := good.Parts()
	for _, tc := range []struct {
		name  string
		n     int
		words []uint64
		vals  []Rid
	}{
		{"negative count", -1, nil, nil},
		{"too few words", n, words[:1], vals},
		{"too many words", n, append(append([]uint64(nil), words...), 0), vals},
		{"bit past n", n, []uint64{words[0], words[1] | 1<<6}, append(append([]Rid(nil), vals...), 0)},
		{"popcount above values", n, words, vals[:2]},
		{"popcount below values", n, words, append(append([]Rid(nil), vals...), 0)},
		{"value below -1", n, words, []Rid{0, -2, 1}},
	} {
		if _, err := SparseArrFromParts(tc.n, tc.words, tc.vals); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := SparseArrFromParts(n, words, []Rid{-1, 5, 0}); err != nil {
		t.Fatalf("-1 values (a composed drop) must validate: %v", err)
	}
}

// FuzzSparseParts feeds SparseArrFromParts arbitrary bitmaps and values:
// what it rejects must be a structured error, never a panic, and what it
// accepts must answer every lookup in range with a value of at least -1 and
// hold exactly one value per set bit.
func FuzzSparseParts(f *testing.F) {
	add := func(n int, words []uint64, vals []Rid) {
		wb := make([]byte, 0, 8*len(words))
		for _, w := range words {
			wb = binary.LittleEndian.AppendUint64(wb, w)
		}
		vb := make([]byte, 0, 4*len(vals))
		for _, v := range vals {
			vb = binary.LittleEndian.AppendUint32(vb, uint32(v))
		}
		f.Add(n, wb, vb)
	}
	add(0, nil, nil)
	add(129, []uint64{1 << 63, 1, 1}, []Rid{0, 1, -1})
	add(64, []uint64{^uint64(0)}, make([]Rid, 64))
	add(65, []uint64{1}, []Rid{0})       // wrong word count
	add(65, []uint64{1, 2}, []Rid{0, 0}) // bit past n
	add(64, []uint64{3}, []Rid{0})       // popcount != values
	add(64, []uint64{1}, []Rid{-7})      // value below -1
	f.Fuzz(func(t *testing.T, n int, wb, vb []byte) {
		words := make([]uint64, len(wb)/8)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(wb[8*i:])
		}
		vals := make([]Rid, len(vb)/4)
		for i := range vals {
			vals[i] = Rid(binary.LittleEndian.Uint32(vb[4*i:]))
		}
		s, err := SparseArrFromParts(n, words, vals)
		if err != nil {
			return
		}
		present := 0
		for i := 0; i < n; i++ {
			v := s.Get(Rid(i))
			if v < -1 {
				t.Fatalf("Get(%d) = %d", i, v)
			}
			if words[i>>6]&(1<<(i&63)) != 0 {
				present++
			}
		}
		if present != len(vals) {
			t.Fatalf("accepted %d set bits for %d values", present, len(vals))
		}
		_ = NewSparseOne(s).DenseForward(n)
	})
}
