package lineage

import (
	"reflect"
	"testing"
)

// Edge-case coverage for Index.Compose and Invert: empty lists, all-dropped
// (-1) rid arrays, OneToOne→OneToMany composition, and zero-target
// inversion. Each case also runs with encoded operands, which must behave
// identically.

func manyOf(lists ...[]Rid) *Index {
	ix := NewRidIndex(len(lists))
	for i, l := range lists {
		ix.SetList(i, l)
	}
	return NewOneToMany(ix)
}

// encodedForms returns ix plus its force-encoded twin (EncodeIndex adaptively
// keeps tiny rid arrays raw, which would silently skip the encoded branch)
// and, for a rid array, its sparse twin and its bit-packed twins (several
// bit widths, with and without a presence bitmap); for a rid index, its
// dense-directory and presence-bitmap-directory twins, whichever form the
// chooser would pick.
func encodedForms(ix *Index) map[string]*Index {
	forms := map[string]*Index{"raw": ix}
	switch ix.Kind {
	case OneToOne:
		forms["encoded"] = NewEncodedOne(encodeArrRuns(ix.Arr, len(ix.Arr)))
		forms["sparse"] = NewSparseOne(sparseOf(ix.Arr))
		for name, s := range packedForms(ix.Arr) {
			forms["packed-"+name] = NewSparseOne(s)
		}
	case OneToMany:
		dense, dir := directoryForms(EncodeRidIndex(ix.Many))
		forms["encoded"], forms["directory"] = NewEncodedMany(dense), NewEncodedMany(dir)
	}
	return forms
}

// directoryForms returns e's twins in the dense form and in the directory
// form, whatever their sizes.
func directoryForms(e *EncodedIndex) (dense, dir *EncodedIndex) {
	offs := make([]uint32, 1, e.n+1)
	var data []byte
	present := 0
	for i := 0; i < e.n; i++ {
		b := e.ListBytes(i)
		if len(b) > 0 {
			present++
		}
		data = append(data, b...)
		offs = append(offs, uint32(len(data)))
	}
	dense = &EncodedIndex{n: e.n, offs: offs, data: data, card: e.card}
	return dense, directoryIndex(offs, data, e.card, present)
}

func traceAll(ix *Index) [][]Rid {
	out := make([][]Rid, ix.Len())
	for i := range out {
		out[i] = ix.TraceOne(Rid(i), nil)
	}
	return out
}

func TestComposeEmptyLists(t *testing.T) {
	// Outer has empty lists (groups with pruned or no inputs); inner maps
	// B→C. Empty entries must stay empty through composition.
	outer := manyOf([]Rid{0}, nil, []Rid{1, 2}, nil)
	inner := manyOf([]Rid{7}, []Rid{8, 9}, nil)
	want := [][]Rid{{7}, nil, {8, 9}, nil}
	for on, o := range encodedForms(outer) {
		for in, i := range encodedForms(inner) {
			got := traceAll(Compose(o, i))
			for e := range want {
				if len(want[e]) == 0 && len(got[e]) == 0 {
					continue
				}
				if !reflect.DeepEqual(got[e], want[e]) {
					t.Errorf("outer=%s inner=%s entry %d: %v, want %v", on, in, e, got[e], want[e])
				}
			}
		}
	}
}

func TestComposeAllDroppedRids(t *testing.T) {
	// Every outer entry is -1 (a filter that dropped everything): the
	// composition must map every entry to nothing, for every representation.
	outer := NewOneToOne([]Rid{-1, -1, -1})
	inner := NewOneToOne([]Rid{5, 6, 7})
	for on, o := range encodedForms(outer) {
		for in, i := range encodedForms(inner) {
			c := Compose(o, i)
			if c.Len() != 3 {
				t.Fatalf("outer=%s inner=%s: Len = %d, want 3", on, in, c.Len())
			}
			for e := 0; e < 3; e++ {
				if got := c.TraceOne(Rid(e), nil); len(got) != 0 {
					t.Errorf("outer=%s inner=%s entry %d: %v, want empty", on, in, e, got)
				}
			}
		}
	}
	// -1 in the middle layer: outer maps into inner entries that drop.
	outer2 := NewOneToOne([]Rid{0, 1, 2})
	inner2 := NewOneToOne([]Rid{-1, 4, -1})
	want := [][]Rid{nil, {4}, nil}
	for on, o := range encodedForms(outer2) {
		for in, i := range encodedForms(inner2) {
			got := traceAll(Compose(o, i))
			for e := range want {
				if len(want[e]) == 0 && len(got[e]) == 0 {
					continue
				}
				if !reflect.DeepEqual(got[e], want[e]) {
					t.Errorf("mid-drop outer=%s inner=%s entry %d: %v, want %v", on, in, e, got[e], want[e])
				}
			}
		}
	}
}

func TestComposeOneToOneIntoOneToMany(t *testing.T) {
	// A filter (OneToOne with drops) composed into a group-by backward index
	// (OneToMany): the canonical select-then-aggregate propagation.
	filterBW := NewOneToOne([]Rid{2, 4, 6, -1})
	groupBW := manyOf([]Rid{0, 2}, []Rid{1}, nil, []Rid{3, 0})
	// Compose(groupBW, filterBW): group entry → filtered-input entries →
	// base rids.
	want := [][]Rid{{2, 6}, {4}, nil, {2}} // entry 3: {3→-1 dropped, 0→2}
	for gn, g := range encodedForms(groupBW) {
		for fn, f := range encodedForms(filterBW) {
			c := Compose(g, f)
			if g.Kind == OneToMany && f.Kind == OneToOne && c.Kind != OneToMany {
				t.Errorf("raw composition kind = %v, want OneToMany", c.Kind)
			}
			got := traceAll(c)
			for e := range want {
				if len(want[e]) == 0 && len(got[e]) == 0 {
					continue
				}
				if !reflect.DeepEqual(got[e], want[e]) {
					t.Errorf("group=%s filter=%s entry %d: %v, want %v", gn, fn, e, got[e], want[e])
				}
			}
		}
	}
}

func TestInvertEdgeCases(t *testing.T) {
	// Zero-target inversion: a forward index whose target side is empty
	// (e.g. a selection that matched nothing). All entries are -1; the
	// inversion must produce an empty-but-valid index, not panic.
	fw := NewOneToOne([]Rid{-1, -1, -1})
	for n, f := range encodedForms(fw) {
		inv := Invert(f, 0)
		if inv.Len() != 0 {
			t.Errorf("%s: zero-target inversion has %d entries", n, inv.Len())
		}
	}

	// Zero-source inversion: an empty OneToMany inverts to all-empty lists.
	empty := manyOf()
	inv := Invert(empty, 4)
	if inv.Len() != 4 {
		t.Fatalf("Len = %d, want 4", inv.Len())
	}
	for i := 0; i < 4; i++ {
		if got := inv.TraceOne(Rid(i), nil); len(got) != 0 {
			t.Errorf("entry %d: %v, want empty", i, got)
		}
	}

	// Inversion with empty lists interleaved, duplicates preserved, and
	// first-seen (ascending source) order per target.
	bw := manyOf([]Rid{1, 0}, nil, []Rid{1, 1}, []Rid{2})
	want := [][]Rid{{0}, {0, 2, 2}, {3}}
	for n, b := range encodedForms(bw) {
		got := traceAll(Invert(b, 3))
		for e := range want {
			if !reflect.DeepEqual(got[e], want[e]) {
				t.Errorf("%s: target %d: %v, want %v", n, e, got[e], want[e])
			}
		}
	}

	// Round trip: inverting twice restores the original mapping (as a
	// OneToMany, with per-entry sets preserved in ascending target order).
	orig := manyOf([]Rid{0, 2}, []Rid{1}, []Rid{2})
	doubled := Invert(Invert(orig, 3), 3)
	got := traceAll(doubled)
	want2 := [][]Rid{{0, 2}, {1}, {2}}
	for e := range want2 {
		if !reflect.DeepEqual(got[e], want2[e]) {
			t.Errorf("double inversion entry %d: %v, want %v", e, got[e], want2[e])
		}
	}
}
