package diskstore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"smoke/internal/lineage"
	"smoke/internal/storage"
)

func testRelation(name string, n int) *storage.Relation {
	rel := storage.NewRelation(name, storage.Schema{
		{Name: "id", Type: storage.TInt},
		{Name: "v", Type: storage.TFloat},
		{Name: "s", Type: storage.TString},
	}, n)
	for i := 0; i < n; i++ {
		rel.Cols[0].Ints[i] = int64(i * 3)
		rel.Cols[1].Floats[i] = float64(i) + 0.25
		if i%5 != 0 { // leave some empty strings in
			rel.Cols[2].Strs[i] = string(rune('a'+i%26)) + "-row"
		}
	}
	return rel
}

// validate is the registry's full-restore check of a loaded result: every
// encoded index against the rows its rids address.
func validate(r *Result) error {
	rows := map[string]int{}
	for table, rel := range r.Bases {
		rows[table] = rel.N
	}
	return r.Capture.Validate(r.Out.N, rows)
}

func sameRelation(t *testing.T, got, want *storage.Relation) {
	t.Helper()
	if got.N != want.N || len(got.Schema) != len(want.Schema) {
		t.Fatalf("relation shape: got %dx%d, want %dx%d", got.N, len(got.Schema), want.N, len(want.Schema))
	}
	for i := 0; i < want.N; i++ {
		if !reflect.DeepEqual(got.Row(i), want.Row(i)) {
			t.Fatalf("row %d: got %v, want %v", i, got.Row(i), want.Row(i))
		}
	}
}

func TestTableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rel := testRelation("orders", 137)
	if err := s.PutTable(rel, "id"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Fresh open = process restart.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if pks := s2.Tables(); pks["orders"] != "id" {
		t.Fatalf("recovered tables = %v, want orders with pk id", pks)
	}
	got, err := s2.LoadTable("orders")
	if err != nil {
		t.Fatal(err)
	}
	sameRelation(t, got, rel)
	if err := s2.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// buildResult assembles a result with every index representation that can
// reach disk: a raw 1-to-N backward index (encoded on write), a raw 1-to-1
// forward array, plus pre-encoded forms.
func buildResult(base *storage.Relation) *Result {
	out := testRelation("out", 16)
	bw := lineage.NewRidIndex(out.N)
	for g := 0; g < out.N; g++ {
		for r := g; r < base.N; r += out.N {
			bw.Append(g, lineage.Rid(r))
		}
	}
	fw := make([]lineage.Rid, base.N)
	for r := range fw {
		fw[r] = lineage.Rid(r % out.N)
	}
	cp := lineage.NewCapture()
	cp.SetBackward(base.Name, lineage.NewOneToMany(bw))
	cp.SetForward(base.Name, lineage.NewOneToOne(fw))
	gc := make([]int64, out.N)
	for g := range gc {
		gc[g] = int64(len(bw.List(g)))
	}
	return &Result{Out: out, GroupCounts: gc, Capture: cp,
		Bases: map[string]*storage.Relation{base.Name: base}}
}

func sameTrace(t *testing.T, what string, got, want []lineage.Rid) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rids, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %d, want %d", what, i, got[i], want[i])
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base := testRelation("orders", 211)
	if err := s.PutTable(base, "id"); err != nil {
		t.Fatal(err)
	}
	res := buildResult(base)
	if _, err := s.PutResult("s1", "q0", res); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	got, err := s2.LoadResult("s1", "q0")
	if err != nil {
		t.Fatal(err)
	}
	sameRelation(t, got.Out, res.Out)
	if !reflect.DeepEqual(got.GroupCounts, res.GroupCounts) {
		t.Fatalf("group counts differ: %v vs %v", got.GroupCounts, res.GroupCounts)
	}
	sameRelation(t, got.Bases["orders"], base)
	if err := validate(got); err != nil {
		t.Fatalf("chunk bytes of a segment this build wrote do not validate: %v", err)
	}

	seeds := []lineage.Rid{0, 3, 15}
	wantBW, err := res.Capture.Backward("orders", seeds)
	if err != nil {
		t.Fatal(err)
	}
	gotBW, err := got.Capture.Backward("orders", seeds)
	if err != nil {
		t.Fatal(err)
	}
	sameTrace(t, "backward", gotBW, wantBW)

	fwSeeds := []lineage.Rid{0, 7, 210}
	wantFW, err := res.Capture.Forward("orders", fwSeeds)
	if err != nil {
		t.Fatal(err)
	}
	gotFW, err := got.Capture.Forward("orders", fwSeeds)
	if err != nil {
		t.Fatal(err)
	}
	sameTrace(t, "forward", gotFW, wantFW)

	// The recovered backward index must be the encoded representation (the
	// chunk store), and its in-situ trace must match the raw path.
	ix, err := got.Capture.BackwardIndex("orders")
	if err != nil {
		t.Fatal(err)
	}
	if ix.Kind != lineage.EncodedMany {
		t.Fatalf("recovered backward index kind = %v, want EncodedMany", ix.Kind)
	}
	insitu := ix.Enc.TraceInSitu(seeds)
	sameTrace(t, "in-situ backward", insitu.AppendTo(nil), wantBW)

	// The recovered base must be the same object as the recovered table
	// (shared segment, not an embedded copy).
	tbl, err := s2.LoadTable("orders")
	if err != nil {
		t.Fatal(err)
	}
	if got.Bases["orders"] != tbl {
		t.Fatal("result base and table did not dedupe to one loaded relation")
	}
}

// A forward index over a rid subset (a filtered or consuming group-by's)
// persists as a "sparse" section pair and loads back sparse — never expanded
// to one entry per base row, its values packed at their exact bit width —
// answering every forward trace identically.
func TestSparseForwardRoundTrip(t *testing.T) {
	base := testRelation("orders", 211)
	res, sp := subsetResult(base)
	got := putAndReload(t, res)
	ix, err := got.Capture.ForwardIndex("orders")
	if err != nil {
		t.Fatal(err)
	}
	if ix.Kind != lineage.SparseOne {
		t.Fatalf("recovered forward index kind = %v, want SparseOne", ix.Kind)
	}
	// Values below 16 take 4-bit slots: the bitmap and rank directory
	// stay, the values shrink from 32 bits to 4, in whole 64-bit words.
	_, _, _, _, vals := sp.Parts()
	present := len(vals) / 4
	if want := sp.SizeBytes() - len(vals) + 8*((4*present+63)/64); ix.SizeBytes() != want {
		t.Fatalf("recovered forward index holds %d bytes, want %d", ix.SizeBytes(), want)
	}
	want, err := res.Capture.Forward("orders", allRids(base.N))
	if err != nil {
		t.Fatal(err)
	}
	gotFW, err := got.Capture.Forward("orders", allRids(base.N))
	if err != nil {
		t.Fatal(err)
	}
	sameTrace(t, "sparse forward", gotFW, want)
}

func TestOrphanSweepAndDelete(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base := testRelation("t", 32)
	if _, err := s.PutResult("s1", "q0", buildResult(base)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutResult("s1", "q1", buildResult(base)); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: a stray temp file and an unreferenced
	// segment (renamed but never published).
	for _, junk := range []string{"z999.seg.tmp", "z998.seg"} {
		if err := os.WriteFile(filepath.Join(dir, junk), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, junk := range []string{"z999.seg.tmp", "z998.seg"} {
		if _, err := os.Stat(filepath.Join(dir, junk)); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived Open", junk)
		}
	}
	if err := s2.DeleteResult("s1", "q0"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.LoadResult("s1", "q0"); err == nil {
		t.Fatal("deleted result still loads")
	}
	if _, err := s2.LoadResult("s1", "q1"); err != nil {
		t.Fatalf("sibling result lost: %v", err)
	}
	if err := s2.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	s2.Close()
}

func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rel := testRelation("t", 64)
	if err := s.PutTable(rel, ""); err != nil {
		t.Fatal(err)
	}
	var file string
	for _, e := range mustReadDir(t, dir) {
		if filepath.Ext(e) == ".seg" {
			file = e
		}
	}
	s.Close()

	// Truncate the trailer: open must refuse the torn segment.
	path := filepath.Join(dir, file)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.LoadTable("t"); err == nil {
		t.Fatal("torn segment loaded without error")
	}
	s2.Close()

	// Restore, then flip a payload byte: full verification must catch it.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	data[pageSize] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.VerifyAll(); err == nil {
		t.Fatal("flipped payload byte passed full verification")
	}
	s3.Close()
}

func TestSessionWatermarkPersists(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SetNextSessionID(42)
	base := testRelation("t", 8)
	if _, err := s.PutResult("s2a", "q", buildResult(base)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.NextSessionID(); got != 42 {
		t.Fatalf("next session id = %d, want 42", got)
	}
	if sessions := s2.Sessions(); sessions["s2a"]["q"] <= 0 {
		t.Fatalf("sessions = %v, want s2a/q with positive bytes", sessions)
	}
}

// TestReadFallbackPath swaps the mapSegment seam for readFileFallback — the
// portable (non-unix) loader — and round-trips a table and a result through
// it. Same assertions as the mmap path: traces over the copied bytes must be
// element-identical, so the fallback stays correct without a cross-compile.
func TestReadFallbackPath(t *testing.T) {
	orig := mapSegment
	mapSegment = readFileFallback
	defer func() { mapSegment = orig }()

	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base := testRelation("orders", 97)
	if err := s.PutTable(base, "id"); err != nil {
		t.Fatal(err)
	}
	res := buildResult(base)
	if _, err := s.PutResult("s1", "q0", res); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	tbl, err := s2.LoadTable("orders")
	if err != nil {
		t.Fatal(err)
	}
	sameRelation(t, tbl, base)
	got, err := s2.LoadResult("s1", "q0")
	if err != nil {
		t.Fatal(err)
	}
	sameRelation(t, got.Out, res.Out)
	seeds := []lineage.Rid{0, 5, 15}
	wantBW, err := res.Capture.Backward("orders", seeds)
	if err != nil {
		t.Fatal(err)
	}
	gotBW, err := got.Capture.Backward("orders", seeds)
	if err != nil {
		t.Fatal(err)
	}
	sameTrace(t, "fallback backward", gotBW, wantBW)
	wantFW, err := res.Capture.Forward("orders", []lineage.Rid{1, 42, 96})
	if err != nil {
		t.Fatal(err)
	}
	gotFW, err := got.Capture.Forward("orders", []lineage.Rid{1, 42, 96})
	if err != nil {
		t.Fatal(err)
	}
	sameTrace(t, "fallback forward", gotFW, wantFW)
}

// TestNoPublishDurability pins the write-behind contract: a PutResultNoPublish
// is invisible after a crash (reopen) until a Publish carries it, and a
// DeleteResultNoPublish stays effective only after Publish too.
func TestNoPublishDurability(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base := testRelation("t", 16)
	if _, err := s.PutResultNoPublish("s1", "q0", buildResult(base)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Crash before publish: the segment is an orphan, the manifest empty.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.LoadResult("s1", "q0"); err == nil {
		t.Fatal("unpublished result survived a reopen")
	}
	if _, err := s2.PutResultNoPublish("s1", "q0", buildResult(base)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Publish(); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	// Published: the result survives.
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s3.LoadResult("s1", "q0"); err != nil {
		t.Fatalf("published result lost: %v", err)
	}
	if !s3.DeleteResultNoPublish("s1", "q0") {
		t.Fatal("delete of a live entry reported no change")
	}
	if s3.DeleteResultNoPublish("s1", "q0") {
		t.Fatal("double delete reported a change")
	}
	if _, err := s3.LoadResult("s1", "q0"); err == nil {
		t.Fatal("deleted entry still loads in-process")
	}
	if err := s3.Publish(); err != nil {
		t.Fatal(err)
	}
	s3.Close()
	s4, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s4.Close()
	if _, err := s4.LoadResult("s1", "q0"); err == nil {
		t.Fatal("published delete did not stick")
	}
}

func mustReadDir(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// rewriteMagic stamps a segment file's header and trailer with magic, turning
// a file this build wrote into what another format version left behind.
func rewriteMagic(t *testing.T, path, magic string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, magic)
	copy(data[len(data)-len(magic):], magic)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A data dir written in segment format v1 (chunk format v1) must reopen
// cleanly: its result segments hold chunks nothing decodes any more, so they
// are dropped — reported through StaleResults, their files removed — while
// its tables, whose layout did not change, still load. Nothing surfaces as a
// corrupt segment.
func TestOpenDropsFormatV1Results(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base := testRelation("orders", 211)
	if err := s.PutTable(base, "id"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutResult("s1", "old", buildResult(base)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything on disk so far becomes a v1 file, the table's segment too.
	var oldResult string
	for _, name := range mustReadDir(t, dir) {
		if filepath.Ext(name) != ".seg" {
			continue
		}
		rewriteMagic(t, filepath.Join(dir, name), segMagicV1)
		if name[0] == 's' { // result segments are s*.seg, tables t*, spilled bases r*
			oldResult = name
		}
	}
	if oldResult == "" {
		t.Fatal("no result segment on disk")
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("open over a v1 data dir: %v", err)
	}
	defer s2.Close()
	if got := s2.StaleResults(); !reflect.DeepEqual(got, map[string][]string{"s1": {"old"}}) {
		t.Fatalf("StaleResults = %v, want s1/old", got)
	}
	if got := s2.Sessions(); len(got) != 0 {
		t.Fatalf("v1 result still listed: %v", got)
	}
	if _, err := os.Stat(filepath.Join(dir, oldResult)); !os.IsNotExist(err) {
		t.Fatalf("v1 result segment %s was not removed (stat: %v)", oldResult, err)
	}
	tbl, err := s2.LoadTable("orders")
	if err != nil {
		t.Fatalf("v1 table segment must still load: %v", err)
	}
	sameRelation(t, tbl, base)
	// The store keeps working in the current format beside the v1 table.
	if _, err := s2.PutResult("s1", "new", buildResult(tbl)); err != nil {
		t.Fatal(err)
	}
	if err := s2.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.LoadResult("s1", "new"); err != nil {
		t.Fatal(err)
	}
}

// A publish's orphan sweep must spare the segments other writers have in
// flight: an ingest's PutTable publishes while the server's flusher writes a
// result off the mutex, and the reverse. A swept temp file fails the
// write; a swept renamed-but-uncommitted segment leaves a manifest entry
// whose file is gone.
func TestPublishSparesInFlightWrites(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	swept := make(chan struct{})
	go func() {
		defer close(swept)
		for {
			select {
			case <-stop:
				return
			default:
				if err := s.Publish(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := 0; i < 40; i++ {
		if err := s.PutTable(testRelation(fmt.Sprintf("t%d", i%4), 256), ""); err != nil {
			t.Fatalf("put table %d: %v", i, err)
		}
		if _, err := s.PutResultNoPublish("s1", fmt.Sprintf("q%d", i%4), buildResult(testRelation("b", 64))); err != nil {
			t.Fatalf("put result %d: %v", i, err)
		}
	}
	close(stop)
	<-swept
	if err := s.Publish(); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyAll(); err != nil {
		t.Fatalf("manifest references a swept segment: %v", err)
	}
	s.Close()
}

// A result retained over a table version that a re-ingest has since
// replaced must persist that version with it. The replacing PutTable's
// publish sweeps the old table segment once nothing references it; a later
// PutResult over the old relation must then write it again as a standalone
// base, not reference the swept file (the entry would be dropped at the
// next Open as missing its backing file).
func TestResultOverSupersededTableSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	old := testRelation("t", 32)
	if err := s.PutTable(old, ""); err != nil {
		t.Fatal(err)
	}
	if err := s.PutTable(testRelation("t", 40), ""); err != nil {
		t.Fatal(err)
	}
	want := buildResult(old)
	if _, err := s.PutResult("s1", "q", want); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.LoadResult("s1", "q")
	if err != nil {
		t.Fatalf("result over the superseded table lost across reopen: %v", err)
	}
	sameRelation(t, got.Bases["t"], old)
}
