package server

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"smoke/internal/core"
	"smoke/internal/diskstore"
	"smoke/internal/expr"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/serr"
	"smoke/internal/storage"
)

// blockingStore wedges every segment write on a channel: the flusher sits
// inside PutResultNoPublish until the test releases the gate. Everything
// else passes through to the wrapped store.
type blockingStore struct {
	resultStore
	gate chan struct{} // each put receives once; close releases all
}

func (b *blockingStore) PutResultNoPublish(sid, name string, r *diskstore.Result) (int64, error) {
	<-b.gate
	return b.resultStore.PutResultNoPublish(sid, name, r)
}

// faultStore fails segment writes on demand without touching the disk —
// the write-half of a crash: the result was accepted but never became
// durable.
type faultStore struct {
	resultStore
	mu   sync.Mutex
	fail bool
}

func (f *faultStore) setFail(v bool) {
	f.mu.Lock()
	f.fail = v
	f.mu.Unlock()
}

func (f *faultStore) PutResultNoPublish(sid, name string, r *diskstore.Result) (int64, error) {
	f.mu.Lock()
	fail := f.fail
	f.mu.Unlock()
	if fail {
		return 0, errors.New("injected segment write failure")
	}
	return f.resultStore.PutResultNoPublish(sid, name, r)
}

// tierDB opens a worker DB with one registered base relation: 4096 rows in
// 64 groups of 64 (d1), a second dimension (d2), and a value column.
func tierDB(t *testing.T) *core.DB {
	t.Helper()
	db := core.Open(core.WithWorkers(1))
	t.Cleanup(db.Close)
	const n = 4096
	rel := storage.NewRelation("interact", storage.Schema{
		{Name: "d1", Type: storage.TInt},
		{Name: "d2", Type: storage.TInt},
		{Name: "v", Type: storage.TFloat},
	}, n)
	for i := 0; i < n; i++ {
		rel.Cols[0].Ints[i] = int64(i % 64)
		rel.Cols[1].Ints[i] = int64(i % 7)
		rel.Cols[2].Floats[i] = float64(i) / 8
	}
	db.Register(rel)
	return db
}

// tierResult runs the standard captured group-by; each call returns a fresh
// Result over the same data, so traces across instances compare
// element-identically.
func tierResult(t *testing.T, db *core.DB) *core.Result {
	t.Helper()
	res, err := db.Query().From("interact", nil).GroupBy("d1").
		Agg(ops.Count, nil, "cnt").Agg(ops.Sum, expr.C("v"), "sv").
		Run(core.CaptureOptions{Mode: ops.Inject, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func openTierStore(t *testing.T, dir string) *diskstore.Store {
	t.Helper()
	store, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func mustPut(t *testing.T, r *registry, id, name string, res *core.Result) {
	t.Helper()
	if err := r.put(id, name, res, nil); err != nil {
		t.Fatalf("put %s/%s: %v", id, name, err)
	}
}

func sameRidsT(t *testing.T, what string, got, want []lineage.Rid) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: rids differ:\n got %v\nwant %v", what, got, want)
	}
}

// A wedged segment write must not block serving: while the flusher sits
// inside PutResultNoPublish, puts and gets — including a get of the very
// result whose demotion is in flight — complete immediately, and a get
// during demoting cancels the drop (the landed write degrades to
// write-behind durability and the result stays resident).
func TestSlowSegmentWriteDoesNotBlockServing(t *testing.T) {
	db := tierDB(t)
	store := openTierStore(t, t.TempDir())
	t.Cleanup(func() { _ = store.Close() })
	bs := &blockingStore{resultStore: store, gate: make(chan struct{})}
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	reg := newRegistry(db, bs, clk.now, time.Hour, 64, 1, 512<<20, 4<<30)
	released := false
	release := func() {
		if !released {
			released = true
			close(bs.gate)
		}
	}
	t.Cleanup(func() { _ = reg.close() })
	t.Cleanup(release) // runs before reg.close: the close-flush must not wedge

	s1 := reg.create()
	resA := tierResult(t, db)
	mustPut(t, reg, s1.id, "a", resA) // write-behind job: flusher now wedged
	clk.advance(time.Second)
	resA2 := tierResult(t, db)
	mustPut(t, reg, s1.id, "a2", resA2) // cap 1: demotes "a" behind the wedge

	// The demotion is queued, not landed: the registry must keep serving.
	done := make(chan error, 1)
	go func() {
		s2 := reg.create()
		resB := tierResult(t, db)
		if err := reg.put(s2.id, "b", resB, nil); err != nil {
			done <- err
			return
		}
		_, err := reg.get(s2.id, "b")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serving while flusher wedged: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("registry blocked behind a wedged segment write")
	}

	if st := reg.stats(); st.queueDepth == 0 {
		t.Fatal("expected pending flusher work while the gate is closed")
	}
	// The demoting result's memory copy still serves — same pointer, no I/O.
	clk.advance(time.Second)
	got, err := reg.get(s1.id, "a")
	if err != nil {
		t.Fatalf("get of demoting result: %v", err)
	}
	if got != resA {
		t.Fatal("get during demoting did not serve the resident copy")
	}

	release()
	reg.fl.drain()
	st := reg.stats()
	if st.queueDepth != 0 {
		t.Fatalf("queue depth %d after drain", st.queueDepth)
	}
	// The get above postdates the demotion: the drop is cancelled, the write
	// counts as write-behind, and "a" stays resident next to its disk copy.
	if st.c.writeBehind == 0 {
		t.Fatalf("touched-during-demoting result should land as write-behind; counters %+v", st.c)
	}
	resident, demoted := tierOf(reg, s1.id, "a")
	if !resident || !demoted {
		t.Fatalf("after drain: resident=%v demoted=%v, want both (cancelled drop keeps it hot)", resident, demoted)
	}
}

// Trace routing against a demoted result: small explicit backward seeds
// answer in situ off the segment-backed view (no promotion, no memory
// charge); forward traces promote; the insituPromoteAfter-th repeat
// promotes; an out-of-range seed falls back to promotion instead of
// panicking.
func TestInSituTraceRouting(t *testing.T) {
	db := tierDB(t)
	store := openTierStore(t, t.TempDir())
	t.Cleanup(func() { _ = store.Close() })
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	reg := newRegistry(db, store, clk.now, time.Hour, 64, 1, 512<<20, 4<<30)
	t.Cleanup(func() { _ = reg.close() })

	s := reg.create()
	ref := tierResult(t, db)
	seed := []lineage.Rid{3}
	wantBW, err := ref.Backward("interact", seed)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, reg, s.id, "a", ref)
	clk.advance(time.Second)
	mustPut(t, reg, s.id, "b", tierResult(t, db)) // cap 1: demotes "a"
	reg.fl.drain()
	resident, _ := tierOf(reg, s.id, "a")
	if resident {
		t.Fatal("demotion did not drop the memory copy")
	}

	// Small bound backward trace: in situ, element-identical, promotion-free.
	h := traceHint{backward: true, table: "interact", seeds: seed}
	view, _, err := reg.resolve(s.id, "a", &h)
	if err != nil {
		t.Fatalf("in-situ trace resolve: %v", err)
	}
	if !view.IsView() {
		t.Fatal("small-seed trace should serve the segment-backed view")
	}
	gotBW, err := view.Backward("interact", seed)
	if err != nil {
		t.Fatal(err)
	}
	sameRidsT(t, "in-situ backward trace", gotBW, wantBW)
	st := reg.stats()
	if st.c.insituTraces != 1 || st.c.promotes != 0 || st.c.views != 1 {
		t.Fatalf("after one small trace: %+v, want 1 in-situ, 1 view, 0 promotes", st.c)
	}
	resident, _ = tierOf(reg, s.id, "a")
	if resident {
		t.Fatal("in-situ trace must not promote into the memory tier")
	}

	// Repeated small traces amortize residency: the insituPromoteAfter-th
	// repeat promotes.
	for i := 0; i < insituPromoteAfter; i++ {
		if _, _, err := reg.resolve(s.id, "a", &h); err != nil {
			t.Fatal(err)
		}
	}
	st = reg.stats()
	if st.c.promotes != 1 {
		t.Fatalf("repeat traces: promotes = %d, want 1 after %d hits; counters %+v",
			st.c.promotes, insituPromoteAfter, st.c)
	}
	if st.c.insituTraces != insituPromoteAfter {
		t.Fatalf("insituTraces = %d, want %d", st.c.insituTraces, insituPromoteAfter)
	}

	// Re-demote (disk copy is current: free drop), then check the
	// promote-routing fallbacks.
	clk.advance(time.Second)
	mustPut(t, reg, s.id, "c", tierResult(t, db))
	reg.fl.drain()
	fwd := traceHint{backward: false, table: "interact", seeds: []lineage.Rid{0}}
	res, _, err := reg.resolve(s.id, "a", &fwd)
	if err != nil {
		t.Fatalf("forward trace resolve: %v", err)
	}
	got, err := res.Forward("interact", []lineage.Rid{0, 64, 128})
	if err != nil {
		t.Fatal(err)
	}
	wantFW, err := ref.Forward("interact", []lineage.Rid{0, 64, 128})
	if err != nil {
		t.Fatal(err)
	}
	sameRidsT(t, "promoted forward trace", got, wantFW)
	if st = reg.stats(); st.c.promotes != 2 {
		t.Fatalf("forward trace should promote: promotes = %d, want 2", st.c.promotes)
	}

	clk.advance(time.Second)
	mustPut(t, reg, s.id, "d", tierResult(t, db))
	reg.fl.drain()
	bad := traceHint{backward: true, table: "interact", seeds: []lineage.Rid{1 << 30}}
	if _, _, err := reg.resolve(s.id, "a", &bad); err != nil {
		t.Fatalf("bad-seed resolve must fall back to promotion (the 400 comes later): %v", err)
	}
	if st = reg.stats(); st.c.promotes != 3 {
		t.Fatalf("out-of-range seed should promote: promotes = %d, want 3", st.c.promotes)
	}
}

// rotStore hands out results whose backward chunk bytes rotted on disk: the
// first chunk's tag is one no decoder knows.
type rotStore struct{ resultStore }

func (r rotStore) LoadResult(sid, name string) (*diskstore.Result, error) {
	ld, err := r.resultStore.LoadResult(sid, name)
	if err != nil {
		return nil, err
	}
	ix, err := ld.Capture.BackwardIndex("interact")
	if err != nil {
		return nil, err
	}
	n, words, offs, data, card := ix.Enc.Parts()
	bad := append([]byte(nil), data...)
	bad[0] = 0xee
	enc, err := lineage.EncodedIndexFromParts(n, words, offs, bad, card)
	if err != nil {
		return nil, err
	}
	ld.Capture.SetBackward("interact", lineage.NewEncodedMany(enc))
	return ld, nil
}

// Promotion is the full restore, so it validates the chunk bytes the lazily
// mapped view took on trust: a segment whose chunks rotted makes the result
// gone (410, re-run the base query) instead of handing every later trace a
// capture that panics inside a cursor.
func TestPromotionRejectsRottenChunkBytes(t *testing.T) {
	db := tierDB(t)
	store := openTierStore(t, t.TempDir())
	t.Cleanup(func() { _ = store.Close() })
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	reg := newRegistry(db, rotStore{store}, clk.now, time.Hour, 64, 1, 512<<20, 4<<30)
	t.Cleanup(func() { _ = reg.close() })

	s := reg.create()
	mustPut(t, reg, s.id, "a", tierResult(t, db))
	clk.advance(time.Second)
	mustPut(t, reg, s.id, "b", tierResult(t, db)) // cap 1: demotes "a"
	reg.fl.drain()

	_, err := reg.get(s.id, "a") // a plain get promotes
	if k := serr.KindOf(err); k != serr.Gone {
		t.Fatalf("promoting a result with rotten chunk bytes: kind %v (%v), want Gone", k, err)
	}
	if st := reg.stats(); st.c.promotes != 0 {
		t.Fatalf("rotten result was promoted: %+v", st.c)
	}
	if _, err := reg.get(s.id, "a"); serr.KindOf(err) != serr.Gone {
		t.Fatalf("second access: %v, want the 410 to stick", err)
	}
}

// Crash mid-flush: result A's segment write landed, B's failed without
// touching the disk, and the process dies with no graceful flush. A restart
// over the same dir serves A's traces element-identically; B answers 404 —
// never a partial or corrupt recovery.
func TestCrashMidFlushRecovers(t *testing.T) {
	dir := t.TempDir()
	db := tierDB(t)
	store := openTierStore(t, dir)
	fs := &faultStore{resultStore: store}
	reg := newRegistry(db, fs, time.Now, time.Hour, 64, 32, 512<<20, 4<<30)

	s := reg.create()
	resA := tierResult(t, db)
	seeds := []lineage.Rid{0, 31, 63}
	wantBW, err := resA.Backward("interact", seeds)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, reg, s.id, "a", resA)
	reg.fl.drain() // write-behind: "a" is durable once the queue is empty

	fs.setFail(true)
	mustPut(t, reg, s.id, "b", tierResult(t, db)) // accepted; write will fail
	reg.fl.drain()
	if st := reg.stats(); st.c.flushErrors == 0 {
		t.Fatal("failed segment write not counted")
	}

	// Crash: no flush(), no manifest publish of anything after "a". Only the
	// flusher goroutine stops so the store can close cleanly.
	reg.fl.stop()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2 := openTierStore(t, dir)
	t.Cleanup(func() { _ = store2.Close() })
	db2 := core.Open()
	t.Cleanup(db2.Close)
	reg2 := newRegistry(db2, store2, time.Now, time.Hour, 64, 32, 512<<20, 4<<30)
	t.Cleanup(func() { _ = reg2.close() })

	got, err := reg2.get(s.id, "a")
	if err != nil {
		t.Fatalf("recover retained result after crash: %v", err)
	}
	gotBW, err := got.Backward("interact", seeds)
	if err != nil {
		t.Fatal(err)
	}
	sameRidsT(t, "post-crash backward trace", gotBW, wantBW)

	_, err = reg2.get(s.id, "b")
	if serr.KindOf(err) != serr.NotFound {
		t.Fatalf("never-durable result after crash: err = %v, want NotFound", err)
	}
}

// Concurrent retain/trace/demote/promote/drop churn over shared sessions
// with tiny budgets — run under -race, this is the interleaving proof for
// the registry/flusher state machine. Every trace that resolves must be
// element-identical to the reference.
func TestTierChurnConcurrent(t *testing.T) {
	db := tierDB(t)
	store := openTierStore(t, t.TempDir())
	t.Cleanup(func() { _ = store.Close() })
	// maxPerSession 2 and a ~3-result byte budget force constant demotion
	// churn underneath the trace traffic.
	ref := tierResult(t, db)
	budget := 3 * ref.MemBytes()
	reg := newRegistry(db, store, time.Now, time.Hour, 8, 2, budget, 4<<30)
	t.Cleanup(func() { _ = reg.close() })

	seeds := []lineage.Rid{5}
	wantBW, err := ref.Backward("interact", seeds)
	if err != nil {
		t.Fatal(err)
	}
	// A shared pool of identical-data results: puts from all workers, so the
	// registry also sees cache-shared retentions (one Result, many names).
	pool := make([]*core.Result, 8)
	for i := range pool {
		pool[i] = tierResult(t, db)
	}
	const nSess = 4
	var ids [nSess]string
	for i := range ids {
		ids[i] = reg.create().id
	}

	var (
		failMu  sync.Mutex
		failure error
	)
	fail := func(format string, args ...any) {
		failMu.Lock()
		if failure == nil {
			failure = fmt.Errorf(format, args...)
		}
		failMu.Unlock()
	}
	tolerable := func(err error) bool {
		switch serr.KindOf(err) {
		case serr.NotFound, serr.Gone:
			return true // raced a drop or an eviction: part of the churn
		}
		return false
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50; i++ {
				id := ids[rng.Intn(nSess)]
				name := fmt.Sprintf("r%d", rng.Intn(3))
				switch rng.Intn(6) {
				case 0, 1:
					if err := reg.put(id, name, pool[rng.Intn(len(pool))], nil); err != nil && !tolerable(err) {
						fail("put %s/%s: %v", id, name, err)
					}
				case 2:
					if res, err := reg.get(id, name); err == nil {
						if got, err := res.Backward("interact", seeds); err != nil {
							fail("trace on promoted result: %v", err)
						} else if !reflect.DeepEqual(got, wantBW) {
							fail("promoted trace diverged: got %v want %v", got, wantBW)
						}
					} else if !tolerable(err) {
						fail("get %s/%s: %v", id, name, err)
					}
				case 3:
					h := traceHint{backward: true, table: "interact", seeds: seeds}
					if res, _, err := reg.resolve(id, name, &h); err == nil {
						if got, err := res.Backward("interact", seeds); err != nil {
							fail("in-situ trace: %v", err)
						} else if !reflect.DeepEqual(got, wantBW) {
							fail("in-situ trace diverged: got %v want %v", got, wantBW)
						}
					} else if !tolerable(err) {
						fail("resolve %s/%s: %v", id, name, err)
					}
				case 4:
					_ = reg.stats()
				case 5:
					if rng.Intn(8) == 0 { // rare: drop + recreate a shared session
						if err := reg.drop(id); err != nil && !tolerable(err) {
							fail("drop %s: %v", id, err)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	failMu.Lock()
	defer failMu.Unlock()
	if failure != nil {
		t.Fatal(failure)
	}
	if err := reg.flush(); err != nil {
		t.Fatalf("flush after churn: %v", err)
	}
	if st := reg.stats(); st.queueDepth != 0 {
		t.Fatalf("queue depth %d after flush", st.queueDepth)
	}
}
