package lineage

import (
	"math/rand"
	"reflect"
	"testing"
)

// expandViaCursor decodes an encoded byte sequence with the chunk cursor.
func expandViaCursor(b []byte) []Rid {
	var out []Rid
	c := NewEncCursor(b)
	for {
		ch, ok := c.Next()
		if !ok {
			return out
		}
		out = ch.ExpandInto(out)
	}
}

func TestChunkCursorRoundTrip(t *testing.T) {
	for name, list := range listShapes() {
		data := appendEncodedList(nil, list)
		got := expandViaCursor(data)
		if len(list) == 0 {
			if len(got) != 0 {
				t.Errorf("%s: got %v, want empty", name, got)
			}
			continue
		}
		if !reflect.DeepEqual(got, list) {
			t.Errorf("%s: cursor decoded %v, want %v", name, got, list)
		}
		// Multi-chunk: the concatenation of two lists' bytes decodes as the
		// concatenation of the lists (the self-contained-chunk contract).
		double := append(append([]byte{}, data...), data...)
		want := append(append([]Rid{}, list...), list...)
		if got := expandViaCursor(double); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: concatenated chunks decoded %v, want %v", name, got, want)
		}
	}
}

func buildEncIndex(lists [][]Rid) *EncodedIndex {
	b := NewEncodedBuilder(len(lists))
	for _, l := range lists {
		b.Add(l)
	}
	return b.Build()
}

func TestTraceInSituMatchesTrace(t *testing.T) {
	shapes := listShapes()
	lists := [][]Rid{
		shapes["range"], {}, shapes["clustered"], shapes["dense8"],
		shapes["sparse"], shapes["random"], shapes["single"],
	}
	e := buildEncIndex(lists)
	ix := NewEncodedMany(e)
	for _, src := range [][]Rid{
		{},
		{0},
		{1}, // empty list
		{0, 2, 3, 5},
		{5, 0, 5, 2, 2}, // duplicates and non-ascending seeds
		{0, 1, 2, 3, 4, 5, 6},
	} {
		want := ix.Trace(src)
		got := e.TraceInSitu(src)
		if got.Len() != len(want) {
			t.Fatalf("src %v: N = %d, want %d", src, got.Len(), len(want))
		}
		dec := got.AppendTo(nil)
		if len(want) == 0 {
			if len(dec) != 0 {
				t.Fatalf("src %v: decoded %v, want empty", src, dec)
			}
			continue
		}
		if !reflect.DeepEqual(dec, want) {
			t.Fatalf("src %v: in-situ trace decoded %v, want %v", src, dec, want)
		}
	}
}

func TestArrCursorMatchesGet(t *testing.T) {
	const n = 50_000
	arr := make([]Rid, n)
	out := Rid(0)
	for i := range arr {
		switch (i / 500) % 3 {
		case 0:
			arr[i] = out
			out++
		case 1:
			arr[i] = -1
		default:
			arr[i] = 7
		}
	}
	e := EncodeArr(arr)
	if e == nil {
		t.Fatal("run-shaped array should compress")
	}
	// Ascending strided probes (the forward-trace shape).
	c := e.Cursor()
	for i := 0; i < n; i += 7 {
		if got := c.Get(Rid(i)); got != arr[i] {
			t.Fatalf("seq Get(%d) = %d, want %d", i, got, arr[i])
		}
	}
	// Full sequential scan.
	c = e.Cursor()
	for i := 0; i < n; i++ {
		if got := c.Get(Rid(i)); got != arr[i] {
			t.Fatalf("scan Get(%d) = %d, want %d", i, got, arr[i])
		}
	}
	// Random probe order: correctness must not depend on monotonicity.
	rng := rand.New(rand.NewSource(11))
	c = e.Cursor()
	for k := 0; k < 10_000; k++ {
		i := rng.Intn(n)
		if got := c.Get(Rid(i)); got != arr[i] {
			t.Fatalf("random Get(%d) = %d, want %d", i, got, arr[i])
		}
	}
}
