package lineage

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"smoke/internal/pool"
)

// joinForward returns n entries of which those in present hold a short
// ascending list (the forward lineage of a dimension table row that joined
// that many fact rows) and the rest nothing.
func joinForward(n int, present []Rid) *Index {
	ix := NewRidIndex(n)
	for _, r := range present {
		for j := 0; j <= int(r)%3; j++ {
			ix.Append(int(r), r*3+Rid(j))
		}
	}
	return NewOneToMany(ix)
}

// TestEncodedIndexChoosesDirectory pins the directory chooser: the presence
// bitmap form is built exactly when 12 bytes per 64 entries plus 4 a
// non-empty entry is less than 4 bytes an entry, a tie staying dense.
func TestEncodedIndexChoosesDirectory(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		present int
		dir     bool
	}{
		{"one in a hundred", 30_000, 300, true},
		{"every other", 6400, 3200, true},
		{"all but 4 a word", 6400, 6000, true},       // 1200+24004 < 25604
		{"all but 3 a word: tie", 6400, 6100, false}, // 1200+24404 = 25604
		{"all", 6400, 6400, false},
		{"one entry", 1, 1, false},
		{"no entry present", 1, 0, false}, // 12+4 is not less than 8
	} {
		// The absent entries spread evenly over the words.
		var present []Rid
		absent := (tc.n - tc.present) * 64 / tc.n
		for i := 0; i < tc.n && len(present) < tc.present; i++ {
			if i%64 >= absent {
				present = append(present, Rid(i))
			}
		}
		raw := joinForward(tc.n, present)
		e := EncodeIndex(raw).Enc
		if (e.words != nil) != tc.dir {
			t.Fatalf("%s: directory form %v, want %v", tc.name, e.words != nil, tc.dir)
		}
		dense, dir := directoryForms(e)
		if got, want := e.SizeBytes(), min(dense.SizeBytes(), dir.SizeBytes()); got != want {
			t.Fatalf("%s: %d bytes, the smaller form is %d", tc.name, got, want)
		}
		if want := presenceCost(tc.n) + len(dir.data) + 4*(len(present)+1); dir.SizeBytes() != want {
			t.Fatalf("%s: directory form holds %d bytes, want %d", tc.name, dir.SizeBytes(), want)
		}
		checkManyIndex(t, tc.name, NewEncodedMany(e), raw)
	}
}

// TestEncodedDirectoryForms runs every trace surface over the dense and the
// directory form of a forward index with entries present at the word
// boundaries, every third entry, all or none, and checks each against the raw
// rid index.
func TestEncodedDirectoryForms(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 127, 128, 129, 1000} {
		for name, rids := range sparseSubsets(n) {
			if name == "dups" {
				continue // a presence set, not a bag
			}
			raw := joinForward(n, rids)
			dense, dir := directoryForms(EncodeRidIndex(raw.Many))
			for form, e := range map[string]*EncodedIndex{"dense": dense, "directory": dir} {
				what := fmt.Sprintf("%s/%s (n=%d)", name, form, n)
				checkManyIndex(t, what, NewEncodedMany(e), raw)
				checkEncodedPartsRoundTrip(t, what, e)
			}
		}
	}
}

// checkManyIndex asserts that the encoded index answers every Index query
// exactly like its raw twin.
func checkManyIndex(t *testing.T, what string, enc, raw *Index) {
	t.Helper()
	n := raw.Len()
	if enc.Len() != n || enc.Enc.Cardinality() != raw.Many.Cardinality() {
		t.Fatalf("%s: Len %d card %d, want %d %d", what, enc.Len(), enc.Enc.Cardinality(), n, raw.Many.Cardinality())
	}
	if EncodeIndex(enc) != enc {
		t.Fatalf("%s: EncodeIndex re-encoded an encoded index", what)
	}
	if enc.CheckSeeds([]Rid{Rid(n)}) == nil || enc.CheckSeeds([]Rid{-1}) == nil {
		t.Fatalf("%s: CheckSeeds accepted a seed outside [0, %d)", what, n)
	}
	var all []Rid
	for i := 0; i < n; i++ {
		all = append(all, Rid(n-1-i), Rid(i))
		want := raw.TraceOne(Rid(i), nil)
		if got := enc.TraceOne(Rid(i), nil); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("%s: TraceOne(%d) = %v, want %v", what, i, got, want)
		}
		if got := enc.Enc.ListLen(i); got != len(want) {
			t.Fatalf("%s: ListLen(%d) = %d, want %d", what, i, got, len(want))
		}
	}
	if err := enc.CheckSeeds(all); err != nil {
		t.Fatalf("%s: CheckSeeds: %v", what, err)
	}
	want := raw.Trace(all)
	if got := enc.Trace(all); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
		t.Fatalf("%s: Trace = %v, want %v", what, got, want)
	}
	pl := pool.New(2)
	defer pl.Close()
	if got := ParTrace(enc, all, 2, pl); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
		t.Fatalf("%s: ParTrace = %v, want %v", what, got, want)
	}
	if is := enc.Enc.TraceInSitu(all); is.N != len(want) || !reflect.DeepEqual(is.AppendTo(nil), want) && len(want) > 0 {
		t.Fatalf("%s: TraceInSitu holds %d rids, want %d", what, is.N, len(want))
	}
	if got, want := enc.DenseForward(n), raw.DenseForward(n); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: DenseForward = %v, want %v", what, got, want)
	}
	targets := 3*n + 3
	if got, want := traceAll(Invert(enc, targets)), traceAll(Invert(raw, targets)); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Invert differs", what)
	}
	inner := make([]Rid, targets)
	for i := range inner {
		inner[i] = Rid(i/2) - 1 // every target's first pair drops
	}
	if got, want := traceAll(Compose(enc, NewOneToOne(inner))), traceAll(Compose(raw, NewOneToOne(inner))); !sameLists(got, want) {
		t.Fatalf("%s: Compose differs", what)
	}
	c := NewCapture()
	c.SetForward("t", enc)
	if err := c.Validate(targets, nil); err != nil {
		t.Fatalf("%s: Validate: %v", what, err)
	}
}

// sameLists compares per-entry rid lists, nil and empty alike.
func sameLists(a, b [][]Rid) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i])+len(b[i]) > 0 && !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// checkEncodedPartsRoundTrip asserts that e reassembles from its parts into
// an index of the same form and size that answers every entry identically.
func checkEncodedPartsRoundTrip(t *testing.T, what string, e *EncodedIndex) {
	t.Helper()
	n, words, offs, data, card := e.Parts()
	back, err := EncodedIndexFromParts(n, words, offs, data, card)
	if err != nil {
		t.Fatalf("%s: round trip: %v", what, err)
	}
	if back.Len() != e.Len() || back.SizeBytes() != e.SizeBytes() || (back.words == nil) != (e.words == nil) {
		t.Fatalf("%s: round trip changed the form", what)
	}
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(back.ListBytes(i), e.ListBytes(i)) {
			t.Fatalf("%s: round trip entry %d differs", what, i)
		}
	}
}

func TestEncodedIndexFromPartsRejects(t *testing.T) {
	const n = 70
	_, dir := directoryForms(EncodeRidIndex(joinForward(n, []Rid{0, 5, 64, 69}).Many))
	_, words, offs, data, card := dir.Parts()
	if _, err := EncodedIndexFromParts(n, words, offs, data, card); err != nil {
		t.Fatalf("well-formed directory: %v", err)
	}
	clone := func(w []uint64) []uint64 { return append([]uint64(nil), w...) }
	extra, fewer, past := clone(words), clone(words), clone(words)
	extra[0] |= 1 << 7
	fewer[0] &^= 1 << 5
	past[1] |= 1 << (n & 63)
	decreasing := append([]uint32(nil), offs...)
	decreasing[2], decreasing[3] = decreasing[3], decreasing[2]
	for _, tc := range []struct {
		name  string
		n     int
		words []uint64
		offs  []uint32
		data  []byte
	}{
		{"negative count", -1, nil, []uint32{0}, nil},
		{"popcount above the offsets", n, extra, offs, data},
		{"popcount below the offsets", n, fewer, offs, data},
		{"bit past the entry count", n, past, offs, data},
		{"a word short", n, words[:1], offs, data},
		{"a word over", n, append(clone(words), 0), offs, data},
		{"offsets decrease", n, words, decreasing, data},
		{"offsets pass the payload", n, words, offs, data[:len(data)-1]},
		{"offsets start past zero", n, words, append([]uint32{1}, offs[1:]...), data},
		{"dense, too few offsets", n, nil, offs, data},
		{"dense, none at all", 0, nil, nil, nil},
	} {
		if _, err := EncodedIndexFromParts(tc.n, tc.words, tc.offs, tc.data, card); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// FuzzEncodedDirectory feeds EncodedIndexFromParts arbitrary entry counts,
// presence bitmaps and offset directories over arbitrary chunk bytes: what
// it rejects must be a structured error, never a panic; what it accepts must
// size and decode every entry — absent ones empty — without a panic, and,
// when ValidateEncoded accepts the chunk bytes too, to exactly its count.
func FuzzEncodedDirectory(f *testing.F) {
	add := func(n int, words []uint64, offs []uint32, data []byte) {
		var wb, ob []byte
		for _, w := range words {
			wb = binary.LittleEndian.AppendUint64(wb, w)
		}
		for _, o := range offs {
			ob = binary.LittleEndian.AppendUint32(ob, o)
		}
		f.Add(n, words != nil, wb, ob, data)
	}
	_, dir := directoryForms(EncodeRidIndex(joinForward(130, []Rid{0, 63, 64, 129}).Many))
	_, words, offs, data, _ := dir.Parts()
	add(130, words, offs, data)
	add(130, nil, offs, data)                                        // dense, too few offsets
	add(130, []uint64{words[0], words[1], words[2] | 4}, offs, data) // bit past n
	add(130, []uint64{words[0] | 2, words[1], words[2]}, offs, data) // popcount above offsets
	add(4, nil, []uint32{0, 0, 3, 3, 3}, []byte{chunkRange, 1, 0})
	add(4, nil, []uint32{0, 3, 0, 3, 3}, []byte{chunkRange, 1, 0}) // decreasing
	add(64, []uint64{1 << 63}, []uint32{0, 4}, []byte{chunkRange, 1, 0})
	f.Fuzz(func(t *testing.T, n int, bitmap bool, wb, ob, data []byte) {
		var words []uint64
		if bitmap {
			words = make([]uint64, len(wb)/8)
			for i := range words {
				words[i] = binary.LittleEndian.Uint64(wb[8*i:])
			}
		}
		offs := make([]uint32, len(ob)/4)
		for i := range offs {
			offs[i] = binary.LittleEndian.Uint32(ob[4*i:])
		}
		card, verr := ValidateEncoded(offs, data, math.MaxInt32)
		e, err := EncodedIndexFromParts(n, words, offs, data, max(card, 0))
		if err != nil {
			return
		}
		total := 0
		for i := 0; i < n; i++ {
			b := e.ListBytes(i)
			if words != nil && words[i>>6]&(1<<(i&63)) == 0 && len(b) != 0 {
				t.Fatalf("absent entry %d holds %d bytes", i, len(b))
			}
			if verr == nil && card <= 1<<20 {
				total += len(e.AppendList(i, nil))
			}
		}
		if verr == nil && card <= 1<<20 && total != card {
			t.Fatalf("entries decode to %d rids, the validator counted %d", total, card)
		}
	})
}
