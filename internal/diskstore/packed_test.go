package diskstore

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/serr"
	"smoke/internal/storage"
)

// groupedRelation returns n rows whose key z is a multiplicative hash of the
// row number into groups values, so a group-by's forward array has no runs
// to encode.
func groupedRelation(n, groups int) *storage.Relation {
	rel := storage.NewRelation("facts", storage.Schema{{Name: "z", Type: storage.TInt}}, n)
	for i := 0; i < n; i++ {
		rel.Cols[0].Ints[i] = int64(uint32(i)*2654435761>>8) % int64(groups)
	}
	return rel
}

// allRids returns 0..n-1.
func allRids(n int) []lineage.Rid {
	rids := make([]lineage.Rid, n)
	for i := range rids {
		rids[i] = lineage.Rid(i)
	}
	return rids
}

// putAndReload persists res, reopens the store (a process restart), verifies
// every checksum and loads the result back.
func putAndReload(t *testing.T, res *Result) *Result {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutResult("s1", "q", res); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.Close() })
	if err := s2.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	got, err := s2.LoadResult("s1", "q")
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// A compressed full-table group-by holds its forward lineage as a dense
// packed array (no presence bitmap, one 10-bit slot per row for 1000
// groups). It persists as a "sparse" entry without a ".words" section and
// loads back in the same form, answering every trace identically.
func TestPackedForwardRoundTrip(t *testing.T) {
	const n = 5000
	base := groupedRelation(n, 1000)
	agg, err := ops.HashAgg(base, nil, ops.GroupBySpec{
		Keys: []string{"z"},
		Aggs: []ops.AggSpec{{Fn: ops.Count, Name: "c"}},
	}, ops.AggOpts{Mode: ops.Inject, Dirs: ops.CaptureBoth, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	cp := lineage.NewCapture()
	cp.SetBackward(base.Name, agg.BackwardIndex())
	cp.SetForward(base.Name, agg.ForwardIndex())
	res := &Result{Out: agg.Out, GroupCounts: agg.GroupCounts, Capture: cp,
		Bases: map[string]*storage.Relation{base.Name: base}}
	if agg.FWSparse == nil {
		t.Fatal("the compressed group-by did not pack its forward array")
	}

	got := putAndReload(t, res)
	ix, err := got.Capture.ForwardIndex(base.Name)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Kind != lineage.SparseOne {
		t.Fatalf("recovered forward index kind = %v, want SparseOne", ix.Kind)
	}
	size := 8 * ((10*n + 63) / 64)
	if _, words, bits, _, _ := ix.Sparse.Parts(); words != nil || bits != 10 || ix.SizeBytes() != size {
		t.Fatalf("recovered forward: bitmap %v, %d bits, %d bytes; want a dense 10-bit array of %d bytes",
			words != nil, bits, ix.SizeBytes(), size)
	}
	want, err := res.Capture.Forward(base.Name, allRids(n))
	if err != nil {
		t.Fatal(err)
	}
	gotFW, err := got.Capture.Forward(base.Name, allRids(n))
	if err != nil {
		t.Fatal(err)
	}
	sameTrace(t, "packed forward", gotFW, want)
	seeds := []lineage.Rid{0, 17, 999}
	wantBW, err := res.Capture.Backward(base.Name, seeds)
	if err != nil {
		t.Fatal(err)
	}
	gotBW, err := got.Capture.Backward(base.Name, seeds)
	if err != nil {
		t.Fatal(err)
	}
	sameTrace(t, "backward", gotBW, wantBW)
}

// rewriteForward edits, in the one result segment under dir, the forward
// index entry and replaces its sections (suffix → payload), and rewrites the
// segment with fresh checksums: what another build's writer, or a corruption
// the checksums cannot see, leaves on disk. The store must be closed.
func rewriteForward(t *testing.T, dir string, edit func(*indexMeta), secs map[string][]byte) {
	t.Helper()
	var path string
	for _, name := range mustReadDir(t, dir) {
		if filepath.Ext(name) == ".seg" && name[0] == 's' {
			path = filepath.Join(dir, name)
		}
	}
	seg, err := openSegment(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.close()
	w := &segWriter{meta: segMeta{Kind: seg.meta.Kind, Result: seg.meta.Result}}
	prefix := ""
	for i, im := range w.meta.Result.Indexes {
		if im.Dir == "fw" {
			prefix = im.Sec
			edit(&w.meta.Result.Indexes[i])
		}
	}
	if prefix == "" {
		t.Fatal("the result has no forward index")
	}
	for _, sec := range seg.meta.Sections {
		if !strings.HasPrefix(sec.Name, prefix+".") {
			w.add(sec.Name, append([]byte(nil), seg.data[sec.Off:sec.Off+sec.Len]...))
		}
	}
	names := make([]string, 0, len(secs))
	for name := range secs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w.add(prefix+"."+name, secs[name])
	}
	if _, err := w.writeTo(path); err != nil {
		t.Fatal(err)
	}
}

// subsetResult is buildResult with a capture-time sparse forward index over
// every third base record, values below 16.
func subsetResult(base *storage.Relation) (*Result, *lineage.SparseArr) {
	res := buildResult(base)
	var present []lineage.Rid
	for r := 0; r < base.N; r += 3 {
		present = append(present, lineage.Rid(r))
	}
	sp := lineage.NewSparseArr(base.N, present)
	for _, r := range present {
		sp.Set(r, r%16)
	}
	res.Capture.SetForward(base.Name, lineage.NewSparseOne(sp))
	return res, sp
}

// directoryResult is buildResult with a 1-to-N forward index in which only
// every tenth base record maps to anything (a dimension table whose rows
// mostly join nothing): compressed, it takes the directory form.
func directoryResult(base *storage.Relation) *Result {
	res := buildResult(base)
	fw := lineage.NewRidIndex(base.N)
	for r := 0; r < base.N; r += 10 {
		fw.Append(r, lineage.Rid(r%16))
		fw.Append(r, lineage.Rid((r+1)%16))
	}
	res.Capture.SetForward(base.Name, lineage.NewOneToMany(fw))
	return res
}

// packBytes packs vals LSB-first at b bits a slot into whole bytes — the
// byte-wide layouts at b = 8 and 16.
func packBytes(vals []int64, b int) []byte {
	out := make([]byte, (len(vals)*b+7)/8)
	for k, v := range vals {
		for j := 0; j < b; j++ {
			if uint64(v)>>j&1 != 0 {
				out[(k*b+j)/8] |= 1 << ((k*b + j) % 8)
			}
		}
	}
	return out
}

// Entries written before bit widths and directories existed still load and
// trace identically: a "sparse" entry without bits (no width, or a width of
// 1 or 2 bytes whose all-ones slot is -1 in either form), and an "encmany"
// entry with a dense offset directory and no ".words" section.
func TestParentFormatSparseLoads(t *testing.T) {
	const nBase = 211
	every3 := make([]uint64, (nBase+63)/64)
	var present, dense8, sparse16 []int64
	for r := 0; r < nBase; r += 3 {
		every3[r>>6] |= 1 << (r & 63)
		present = append(present, int64(r))
	}
	for r := 0; r < nBase; r++ {
		dense8 = append(dense8, int64(r%16))
		if r%7 == 0 {
			dense8[r] = 0xff // -1
		}
	}
	for _, r := range present {
		sparse16 = append(sparse16, r%16)
		if r%7 == 0 {
			sparse16[len(sparse16)-1] = 0xffff // -1: a composed drop
		}
	}
	for _, tc := range []struct {
		name  string
		res   func(*storage.Relation) *Result
		width int // "sparse" only
		kind  string
		secs  func(ix *lineage.Index) map[string][]byte
	}{
		{"width-less bitmap", func(base *storage.Relation) *Result { res, _ := subsetResult(base); return res }, 0, "sparse",
			func(*lineage.Index) map[string][]byte {
				vals := make([]int64, len(present))
				for k, r := range present {
					vals[k] = r % 16
				}
				return map[string][]byte{"words": bytesOf(every3), "vals": packBytes(vals, 32)}
			}},
		{"width-1 dense with -1", buildResult, 1, "sparse",
			func(*lineage.Index) map[string][]byte { return map[string][]byte{"vals": packBytes(dense8, 8)} }},
		{"width-2 bitmap with -1", func(base *storage.Relation) *Result { res, _ := subsetResult(base); return res }, 2, "sparse",
			func(*lineage.Index) map[string][]byte {
				return map[string][]byte{"words": bytesOf(every3), "vals": packBytes(sparse16, 16)}
			}},
		{"encmany without a bitmap", directoryResult, 0, "encmany",
			func(ix *lineage.Index) map[string][]byte {
				offs := []uint32{0}
				var data []byte
				for i := 0; i < ix.Len(); i++ {
					data = append(data, ix.Enc.ListBytes(i)...)
					offs = append(offs, uint32(len(data)))
				}
				return map[string][]byte{"offs": bytesOf(offs), "data": data}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			base := testRelation("orders", nBase)
			res := tc.res(base)
			if _, err := s.PutResult("s1", "q", res); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			fw, err := res.Capture.ForwardIndex(base.Name)
			if err != nil {
				t.Fatal(err)
			}
			secs := tc.secs(lineage.EncodeForward(fw))
			rewriteForward(t, dir, func(m *indexMeta) {
				m.Kind, m.Width, m.Bits, m.Sentinel = tc.kind, tc.width, 0, false
			}, secs)
			want := make([][]lineage.Rid, nBase)
			for r := range want {
				switch tc.name {
				case "width-1 dense with -1":
					if dense8[r] != 0xff {
						want[r] = []lineage.Rid{lineage.Rid(dense8[r])}
					}
				case "width-2 bitmap with -1":
					if r%3 == 0 && r%7 != 0 {
						want[r] = []lineage.Rid{lineage.Rid(r % 16)}
					}
				default:
					want[r] = fw.TraceOne(lineage.Rid(r), nil)
				}
			}

			s2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if err := s2.VerifyAll(); err != nil {
				t.Fatal(err)
			}
			got, err := s2.LoadResult("s1", "q")
			if err != nil {
				t.Fatalf("a segment in the older format must load: %v", err)
			}
			ix, err := got.Capture.ForwardIndex(base.Name)
			if err != nil {
				t.Fatal(err)
			}
			if k := map[string]lineage.Kind{"sparse": lineage.SparseOne, "encmany": lineage.EncodedMany}[tc.kind]; ix.Kind != k {
				t.Fatalf("recovered forward index kind %v, want %v", ix.Kind, k)
			}
			for r := range want {
				sameTrace(t, fmt.Sprintf("forward of %d", r), ix.TraceOne(lineage.Rid(r), nil), want[r])
			}
			if err := validate(got); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A 1-to-N forward index whose entries are mostly empty persists with a
// ".words" presence bitmap and offsets for its non-empty entries only, and
// loads back in that form, answering every trace identically.
func TestDirectoryForwardRoundTrip(t *testing.T) {
	base := testRelation("orders", 211)
	res := directoryResult(base)
	enc := lineage.EncodeForward(mustForward(t, res.Capture, base.Name))
	if n, words, offs, _, _ := enc.Enc.Parts(); words == nil || len(offs) != n/10+2 {
		t.Fatalf("compressed forward: bitmap %v with %d offsets, want the directory form", words != nil, len(offs))
	}
	got := putAndReload(t, res)
	ix := mustForward(t, got.Capture, base.Name)
	if ix.Kind != lineage.EncodedMany || ix.SizeBytes() != enc.SizeBytes() {
		t.Fatalf("recovered forward index: kind %v with %d bytes, want EncodedMany with %d", ix.Kind, ix.SizeBytes(), enc.SizeBytes())
	}
	if _, words, _, _, _ := ix.Enc.Parts(); words == nil {
		t.Fatal("recovered forward index lost its presence bitmap")
	}
	want, err := res.Capture.Forward(base.Name, allRids(base.N))
	if err != nil {
		t.Fatal(err)
	}
	gotFW, err := got.Capture.Forward(base.Name, allRids(base.N))
	if err != nil {
		t.Fatal(err)
	}
	sameTrace(t, "directory forward", gotFW, want)
	if err := validate(got); err != nil {
		t.Fatal(err)
	}
}

func mustForward(t *testing.T, c *lineage.Capture, rel string) *lineage.Index {
	t.Helper()
	ix, err := c.ForwardIndex(rel)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// A directory or slot width the loader cannot trust — even with matching
// checksums — is a structured corrupt-segment error, not a panic: a bitmap
// whose popcount is not the offset count less one, a bit past the entry
// count, a bitmap of the wrong length, offsets past the payload, and slot
// bit widths outside [1, 32].
func TestForwardDirectoryRejected(t *testing.T) {
	const nBase = 211
	base := testRelation("orders", nBase)
	enc := lineage.EncodeForward(mustForward(t, directoryResult(base).Capture, base.Name))
	_, words, offs, data, _ := enc.Enc.Parts()
	extra := append([]uint64(nil), words...)
	extra[1] |= 1 << 1 // entry 65: one present entry more than offsets
	past := append([]uint64(nil), words...)
	past[len(past)-1] |= 1 << (nBase & 63)
	long := append(append([]uint32(nil), offs...), offs[len(offs)-1]+1)
	encmany := func(w []uint64, o []uint32) map[string][]byte {
		return map[string][]byte{"words": bytesOf(w), "offs": bytesOf(o), "data": data}
	}
	for _, tc := range []struct {
		name string
		edit func(*indexMeta)
		secs map[string][]byte
	}{
		{"popcount above offsets", nil, encmany(extra, offs)},
		{"bit past the entry count", nil, encmany(past, offs)},
		{"bitmap a word short", nil, encmany(words[:len(words)-1], offs)},
		{"offsets past the payload", nil, encmany(words, append(offs[:len(offs)-1:len(offs)-1], uint32(len(data)+1)))},
		{"offsets past the bitmap's entries", nil, encmany(words, long)},
		{"bits 33", func(m *indexMeta) { m.Kind, m.Bits, m.Card = "sparse", 33, 0 },
			map[string][]byte{"vals": make([]byte, 4*nBase+4)}},
		{"width 3", func(m *indexMeta) { m.Kind, m.Width, m.Card = "sparse", 3, 0 },
			map[string][]byte{"vals": make([]byte, 3*nBase)}},
		{"bits short of their values", func(m *indexMeta) { m.Kind, m.Bits, m.Card = "sparse", 10, 0 },
			map[string][]byte{"vals": make([]byte, 10*nBase/8-1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.PutResult("s1", "q", directoryResult(base)); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			edit := tc.edit
			if edit == nil {
				edit = func(*indexMeta) {}
			}
			rewriteForward(t, dir, edit, tc.secs)
			s2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			_, err = s2.LoadResult("s1", "q")
			if err == nil {
				t.Fatal("loaded")
			}
			if serr.KindOf(err) != serr.Internal {
				t.Fatalf("error %v is kind %v, want a structured corrupt-segment error", err, serr.KindOf(err))
			}
		})
	}
}

// A forward value at or past the output relation's row count would index
// past it in a trace. Whatever the index's form, and even with matching
// checksums, loading such a segment returns a structured corrupt-segment
// error instead of panicking later.
func TestForwardValueOutOfBoundRejected(t *testing.T) {
	const nBase = 211
	out := 16 // buildResult's output rows: the forward values' bound
	arr := make([]int32, nBase)
	for i := range arr {
		arr[i] = int32(i % out)
	}
	arr[7] = int32(out)
	packed := make([]byte, nBase)
	for i := range packed {
		packed[i] = byte(i % out)
	}
	packed[7] = byte(out)
	bits5 := make([]int64, nBase)
	for i := range bits5 {
		bits5[i] = int64(arr[i])
	}
	words := make([]uint64, (nBase+63)/64)
	words[0] = 1<<3 | 1<<5
	for _, tc := range []struct {
		name  string
		kind  string
		width int
		bits  int
		secs  map[string][]byte
	}{
		{"raw array", "arr", 0, 0, map[string][]byte{"arr": bytesOf(arr)}},
		{"constant run", "encarr", 0, 0, map[string][]byte{
			"starts": bytesOf([]int32{0, 100}), "vals": bytesOf([]int32{3, int32(out)}), "seq": {0, 0}}},
		{"sequential run", "encarr", 0, 0, map[string][]byte{
			"starts": bytesOf([]int32{0}), "vals": bytesOf([]int32{0}), "seq": {1}}},
		{"dense packed", "sparse", 1, 0, map[string][]byte{"vals": packed}},
		{"bitmap packed", "sparse", 2, 0, map[string][]byte{"words": bytesOf(words), "vals": {1, 0, byte(out), 0}}},
		{"bitmap width-less", "sparse", 0, 0, map[string][]byte{"words": bytesOf(words), "vals": bytesOf([]int32{1, int32(out)})}},
		{"dense 5-bit", "sparse", 0, 5, map[string][]byte{"vals": packBytes(bits5, 5)}},
		{"bitmap 5-bit", "sparse", 0, 5, map[string][]byte{"words": bytesOf(words), "vals": packBytes([]int64{1, int64(out)}, 5)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.PutResult("s1", "q", buildResult(testRelation("orders", nBase))); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			rewriteForward(t, dir, func(m *indexMeta) {
				m.Kind, m.Width, m.Bits, m.Sentinel = tc.kind, tc.width, tc.bits, false
			}, tc.secs)
			s2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			_, err = s2.LoadResult("s1", "q")
			if err == nil {
				t.Fatalf("a forward value of %d loaded over a %d-row output", out, out)
			}
			if serr.KindOf(err) != serr.Internal {
				t.Fatalf("error %v is kind %v, want a structured corrupt-segment error", err, serr.KindOf(err))
			}
		})
	}
}

// A 1-to-N index whose rids reach past the rows they address — a backward
// list naming base row N, a forward list naming output row Out.N — loads (a
// view maps its chunks lazily) but fails the full-restore validation with a
// structured corrupt-segment error instead of tracing to rows that do not
// exist. One rid less validates.
func TestEncodedRidsPastTheirRowsRejected(t *testing.T) {
	base := testRelation("orders", 1000)
	for _, tc := range []struct {
		name    string
		forward bool
		lists   func(reach int) [][]lineage.Rid
	}{
		{"backward", false, func(reach int) [][]lineage.Rid {
			lists := make([][]lineage.Rid, 16)
			lists[3] = allRids(reach) // one range chunk over 0 … reach-1
			return lists
		}},
		{"forward", true, func(reach int) [][]lineage.Rid {
			lists := make([][]lineage.Rid, base.N)
			for r := range lists {
				lists[r] = []lineage.Rid{lineage.Rid(r % 16), lineage.Rid(reach - 1)}
			}
			return lists
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows := base.N
			if tc.forward {
				rows = 16 // buildResult's output rows
			}
			for _, reach := range []int{rows, rows + 1} {
				res := buildResult(base)
				ix := lineage.NewEncodedMany(lineage.EncodeLists(tc.lists(reach)))
				if tc.forward {
					res.Capture.SetForward(base.Name, ix)
				} else {
					res.Capture.SetBackward(base.Name, ix)
				}
				err := validate(putAndReload(t, res))
				if reach == rows && err != nil {
					t.Fatalf("rids up to %d over %d rows: %v", reach-1, rows, err)
				}
				var se *serr.E
				if reach > rows && (!errors.As(err, &se) || se.Kind != serr.Internal) {
					t.Fatalf("rid %d over %d rows: %v, want a structured corrupt-segment error", reach-1, rows, err)
				}
			}
		})
	}
}
