package diskstore

import (
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
// packed array (no presence bitmap, one 2-byte slot per row for 1000
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
	if _, words, width, _ := ix.Sparse.Parts(); words != nil || width != 2 || ix.SizeBytes() != 2*n {
		t.Fatalf("recovered forward: bitmap %v, width %d, %d bytes; want a dense 2-byte array of %d bytes",
			words != nil, width, ix.SizeBytes(), 2*n)
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

// rewriteForward replaces, in the one result segment under dir, the forward
// index entry's kind and width and its sections (suffix → payload), and
// rewrites the segment with fresh checksums: what another build's writer, or
// a corruption the checksums cannot see, leaves on disk. The store must be
// closed.
func rewriteForward(t *testing.T, dir, kind string, width int, secs map[string][]byte) {
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
			w.meta.Result.Indexes[i].Kind, w.meta.Result.Indexes[i].Width = kind, width
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

// A "sparse" entry written before slot widths existed — no width field, a
// ".words" bitmap and one 4-byte value per present record — still loads, at
// width 4, and traces identically.
func TestParentFormatSparseLoads(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base := testRelation("orders", 211)
	res, sp := subsetResult(base)
	if _, err := s.PutResult("s1", "q", res); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, words, width, vals := sp.Parts()
	if width != 4 {
		t.Fatalf("a capture-time sparse array has width %d, want 4", width)
	}
	rewriteForward(t, dir, "sparse", 0, map[string][]byte{"words": uint64Bytes(words), "vals": vals})

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
		t.Fatalf("a segment in the width-less format must load: %v", err)
	}
	ix, err := got.Capture.ForwardIndex(base.Name)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Kind != lineage.SparseOne || ix.SizeBytes() != sp.SizeBytes() {
		t.Fatalf("recovered forward index: kind %v with %d bytes, want SparseOne with %d", ix.Kind, ix.SizeBytes(), sp.SizeBytes())
	}
	want, err := res.Capture.Forward(base.Name, allRids(base.N))
	if err != nil {
		t.Fatal(err)
	}
	gotFW, err := got.Capture.Forward(base.Name, allRids(base.N))
	if err != nil {
		t.Fatal(err)
	}
	sameTrace(t, "width-less sparse forward", gotFW, want)
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
	words := make([]uint64, (nBase+63)/64)
	words[0] = 1<<3 | 1<<5
	for _, tc := range []struct {
		name  string
		kind  string
		width int
		secs  map[string][]byte
	}{
		{"raw array", "arr", 0, map[string][]byte{"arr": int32Bytes(arr)}},
		{"constant run", "encarr", 0, map[string][]byte{
			"starts": int32Bytes([]int32{0, 100}), "vals": int32Bytes([]int32{3, int32(out)}), "seq": {0, 0}}},
		{"sequential run", "encarr", 0, map[string][]byte{
			"starts": int32Bytes([]int32{0}), "vals": int32Bytes([]int32{0}), "seq": {1}}},
		{"dense packed", "sparse", 1, map[string][]byte{"vals": packed}},
		{"bitmap packed", "sparse", 2, map[string][]byte{"words": uint64Bytes(words), "vals": {1, 0, byte(out), 0}}},
		{"bitmap width-less", "sparse", 0, map[string][]byte{"words": uint64Bytes(words), "vals": int32Bytes([]int32{1, int32(out)})}},
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
			rewriteForward(t, dir, tc.kind, tc.width, tc.secs)
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
