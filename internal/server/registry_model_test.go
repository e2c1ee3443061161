package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"smoke/internal/core"
	"smoke/internal/diskstore"
	"smoke/internal/serverclient"
)

// modelAnswer is one observable reply: the status, and for a 200 the columns
// and rows.
type modelAnswer struct {
	status int
	cols   []string
	rows   [][]any
}

func (a modelAnswer) String() string {
	if a.status != 200 {
		return fmt.Sprintf("%d", a.status)
	}
	return fmt.Sprintf("200 %v %v", a.cols, a.rows)
}

// answerOf folds a client reply into a modelAnswer; transport errors (not a
// status) are returned as errors.
func answerOf(res *serverclient.Result, err error) (modelAnswer, error) {
	if err != nil {
		var se *serverclient.Error
		if errors.As(err, &se) {
			return modelAnswer{status: se.Status}, nil
		}
		return modelAnswer{}, err
	}
	return modelAnswer{status: 200, cols: res.Columns, rows: res.Rows}, nil
}

// sameAnswer compares two replies. Multi-seed traces compare as multisets:
// a resident result may answer them through the scan-equivalence rewrite
// (base-rid order) while a restored one expands rid lists in seed order.
func sameAnswer(a, b modelAnswer, multiset bool) bool {
	if a.status != b.status {
		return false
	}
	if a.status != 200 {
		return true
	}
	if !reflect.DeepEqual(a.cols, b.cols) {
		return false
	}
	if !multiset {
		return reflect.DeepEqual(a.rows, b.rows)
	}
	key := func(rows [][]any) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprint(r)
		}
		sort.Strings(out)
		return out
	}
	return reflect.DeepEqual(key(a.rows), key(b.rows))
}

// modelTrace is one trace shape the model replays against every result:
// one seed, every seed, and one seed past the addressed space, plus one
// seed on the forced lazy path.
type modelTrace struct {
	name     string
	dir      string
	seeds    func(out, base int) []int64
	multiset bool
	strategy string
}

var modelTraces = []modelTrace{
	{"bw-one", "backward", func(int, int) []int64 { return []int64{0} }, false, ""},
	{"bw-all", "backward", func(out, _ int) []int64 { return seq(out) }, true, ""},
	{"bw-out", "backward", func(out, _ int) []int64 { return []int64{int64(out) + 3} }, false, ""},
	{"bw-lazy", "backward", func(int, int) []int64 { return []int64{0} }, false, "lazy"},
	{"fw-one", "forward", func(int, int) []int64 { return []int64{0} }, false, ""},
	{"fw-all", "forward", func(_, base int) []int64 { return seq(base) }, true, ""},
	{"fw-out", "forward", func(_, base int) []int64 { return []int64{int64(base) + 3} }, false, ""},
}

func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

var (
	modelQueries = []string{
		"SELECT region, COUNT(*) AS n FROM orders GROUP BY region",
		"SELECT region, SUM(amount) AS s FROM orders GROUP BY region",
		"SELECT region, COUNT(*) AS n FROM orders WHERE amount >= 5 GROUP BY region",
	}
	modelStrategies = []string{"", "lazy", "hybrid"}
	modelNames      = []string{"r0", "r1", "r2"}
)

// modelEntry is what the model knows of one retained name: the reply of
// every trace shape and of GET, taken while the result was resident.
type modelEntry struct {
	out, base int // the result's output rows and its capture-time base rows
	traces    []modelAnswer
	get       modelAnswer
	// forgettable: a restart may have lost the name (it was not readable
	// when the server shut down), so it may answer 404 afterwards.
	forgettable bool
}

type modelSession struct {
	h       *serverclient.Session
	entries map[string]*modelEntry
	dropped bool
	// restarted: the session existed before a restart; a session with
	// nothing durable is forgotten by it, so 404 becomes possible.
	restarted bool
}

// modelServer is one incarnation of the server under test. A disk server's
// segment writes go through a faultStore.
type modelServer struct {
	c     *serverclient.Client
	srv   *Server
	ts    *httptest.Server
	db    *core.DB
	store *diskstore.Store
	fs    *faultStore
}

type modelConfig struct {
	disk         bool
	perSession   int
	maxBytes     int64
	maxDiskBytes int64
	restarts     bool // close and reopen over the same dir (big disk budget only)
}

func startModelServer(t *testing.T, dir string, clk *fakeClock, mc modelConfig) *modelServer {
	t.Helper()
	db := core.Open(core.WithWorkers(1))
	cfg := Config{
		DB: db, Clock: clk.now, SessionTTL: time.Minute, MaxSessions: 3,
		MaxResultsPerSession: mc.perSession, MaxRetainedBytes: mc.maxBytes,
		MaxDiskBytes: mc.maxDiskBytes, CacheEntries: -1, MaxInFlight: 4,
	}
	ms := &modelServer{db: db}
	if mc.disk {
		store, err := diskstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		ms.store, cfg.Store = store, store
	}
	ms.srv = New(cfg)
	if mc.disk {
		// Swap in a registry whose segment writes can be made to fail.
		if err := ms.srv.sessions.close(); err != nil {
			t.Fatal(err)
		}
		ms.fs = &faultStore{resultStore: ms.store}
		ms.srv.sessions = newRegistry(db, ms.fs, clk.now, time.Minute, 3, mc.perSession, mc.maxBytes, mc.maxDiskBytes)
	}
	ms.ts = httptest.NewServer(ms.srv)
	ms.c = serverclient.New(ms.ts.URL, ms.ts.Client())
	return ms
}

// stop shuts the incarnation down gracefully: listener, flush, store.
func (ms *modelServer) stop() error {
	ms.ts.Close()
	if ms.fs != nil {
		ms.fs.setFail(false)
	}
	err := ms.srv.Close()
	if ms.store != nil {
		if cerr := ms.store.Close(); err == nil {
			err = cerr
		}
	}
	ms.db.Close()
	return err
}

// modelRun drives one random sequence and records the invariants it
// violates.
type modelRun struct {
	t     *testing.T
	rng   *rand.Rand
	mc    modelConfig
	dir   string
	clk   *fakeClock
	ms    *modelServer
	sess  []*modelSession
	rows  [][]any // current orders contents
	log   []string
	ctx   context.Context
	fails []string
}

func (m *modelRun) logf(format string, args ...any) {
	m.log = append(m.log, fmt.Sprintf(format, args...))
}

// fail records one violated invariant: its class (for the summary) and the
// operations that led there.
func (m *modelRun) fail(class, format string, args ...any) {
	tail := m.log
	if len(tail) > 12 {
		tail = tail[len(tail)-12:]
	}
	m.fails = append(m.fails, class)
	m.t.Logf("[%s] %s\n  after: %s", class, fmt.Sprintf(format, args...), strings.Join(tail, "\n         "))
}

func (m *modelRun) ingest() {
	n := 1 + m.rng.Intn(7)
	regions := []string{"emea", "apac", "amer"}
	amounts := []float64{2.5, 5, 10, 20, 30}
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{regions[m.rng.Intn(len(regions))], amounts[m.rng.Intn(len(amounts))]}
	}
	if err := m.ms.c.CreateTable(m.ctx, "orders", ordersSchema(), rows, ""); err != nil {
		m.fail("ingest-failed", "ingest: %v", err)
		return
	}
	m.rows = rows
	m.logf("ingest %d rows", n)
}

// expect checks one reply against the model entry (nil: the name was never
// created in this session).
func (m *modelRun) expect(what string, s *modelSession, e *modelEntry, want modelAnswer, multiset bool, got modelAnswer) {
	switch {
	case got.status == 410:
		return // evicted: always an allowed answer
	case got.status == 404 && (e == nil || e.forgettable || s.dropped && s.restarted):
		return
	case s.dropped:
		m.fail("dropped-session-answers", "%s on a dropped session answered %v", what, got)
	case e == nil:
		m.fail("unknown-name-answers", "%s of a never-created name answered %v, want 404 or 410", what, got)
	case got.status == 404:
		m.fail("404-for-created-name", "%s answered 404 for a name the session created", what)
	case got.status == 400 && want.status == 200:
		m.fail("400-for-valid-seed", "%s answered 400; resident reference was %v", what, want)
	case !sameAnswer(want, got, multiset):
		m.fail("wrong-answer", "%s answered %v; resident reference was %v", what, got, want)
	}
}

func (m *modelRun) pickSession() *modelSession {
	if len(m.sess) == 0 {
		return nil
	}
	return m.sess[m.rng.Intn(len(m.sess))]
}

func (m *modelRun) retain(s *modelSession) {
	name := modelNames[m.rng.Intn(len(modelNames))]
	spec := modelQueries[m.rng.Intn(len(modelQueries))]
	strat := modelStrategies[m.rng.Intn(len(modelStrategies))]
	req := serverclient.QueryRequest{SQL: spec, Strategy: strat, Compress: m.rng.Intn(2) == 0}
	m.logf("retain %s/%s strategy=%q compress=%v %q", s.h.ID, name, strat, req.Compress, spec)
	res, err := s.h.Run(m.ctx, name, req)
	got, terr := answerOf(res, err)
	if terr != nil {
		m.t.Fatal(terr)
	}
	if got.status != 200 {
		if got.status == 410 || got.status == 404 && (s.restarted || s.dropped) {
			return
		}
		m.fail("retain-refused", "retain answered %v", got)
		return
	}
	// The result is resident now: its replies are the reference.
	e := &modelEntry{out: res.N, base: len(m.rows), traces: make([]modelAnswer, len(modelTraces))}
	for i, tr := range modelTraces {
		req := serverclient.TraceRequest{Direction: tr.dir, Table: "orders", Rids: tr.seeds(e.out, e.base), Strategy: tr.strategy}
		if e.traces[i], err = answerOf(s.h.Trace(m.ctx, name, req)); err != nil {
			m.t.Fatal(err)
		}
		if e.traces[i].status >= 500 || e.traces[i].status == 410 || e.traces[i].status == 404 {
			m.fail("resident-trace-fails", "%s of freshly retained %s answered %v", tr.name, name, e.traces[i])
		}
	}
	if e.get, err = answerOf(s.h.Result(m.ctx, name)); err != nil {
		m.t.Fatal(err)
	}
	s.entries[name] = e
}

func (m *modelRun) trace(s *modelSession) {
	name := modelNames[m.rng.Intn(len(modelNames))]
	ti := m.rng.Intn(len(modelTraces))
	tr := modelTraces[ti]
	e := s.entries[name]
	// Seeds are sized from the reference: the space a seed addresses is the
	// result's own output and its capture-time base, not today's table.
	out, base := 1, 1
	if e != nil {
		out, base = e.out, e.base
	}
	req := serverclient.TraceRequest{Direction: tr.dir, Table: "orders", Rids: tr.seeds(out, base), Strategy: tr.strategy}
	got, err := answerOf(s.h.Trace(m.ctx, name, req))
	if err != nil {
		m.t.Fatal(err)
	}
	m.logf("trace %s/%s %s -> %d", s.h.ID, name, tr.name, got.status)
	var want modelAnswer
	if e != nil {
		want = e.traces[ti]
	}
	m.expect("trace "+tr.name+" of "+s.h.ID+"/"+name, s, e, want, tr.multiset, got)
}

func (m *modelRun) get(s *modelSession) {
	name := modelNames[m.rng.Intn(len(modelNames))]
	got, err := answerOf(s.h.Result(m.ctx, name))
	if err != nil {
		m.t.Fatal(err)
	}
	m.logf("get %s/%s -> %d", s.h.ID, name, got.status)
	e := s.entries[name]
	var want modelAnswer
	if e != nil {
		want = e.get
	}
	m.expect("GET "+s.h.ID+"/"+name, s, e, want, false, got)
}

// drain waits for the flusher and checks the byte accounting: retained is
// the summed MemBytes of the distinct resident Results, diskBytes the summed
// segment bytes of the entries that have one.
func (m *modelRun) drain() {
	reg := m.ms.srv.sessions
	if reg.fl != nil {
		reg.fl.drain()
	}
	m.logf("drain")
	a := registryAccounting(reg)
	if a.retained != a.residentBytes {
		m.fail("retained-bytes", "retained = %d, resident Results sum to %d", a.retained, a.residentBytes)
	}
	if a.diskBytes != a.segmentBytes {
		m.fail("disk-bytes", "diskBytes = %d, entry segments sum to %d", a.diskBytes, a.segmentBytes)
	}
}

// restart closes the server gracefully and reopens it over the same dir.
// Names that did not read back just before the close may be forgotten.
func (m *modelRun) restart() {
	m.ms.fs.setFail(false)
	m.ms.srv.sessions.fl.drain()
	for _, s := range m.sess {
		s.restarted = true
		for name, e := range s.entries {
			got, err := answerOf(s.h.Result(m.ctx, name))
			if err != nil {
				m.t.Fatal(err)
			}
			if got.status != 200 {
				e.forgettable = true
			}
		}
	}
	if err := m.ms.stop(); err != nil {
		m.t.Fatalf("graceful stop: %v", err)
	}
	m.ms = startModelServer(m.t, m.dir, m.clk, m.mc)
	for _, s := range m.sess {
		s.h = m.ms.c.Session(s.h.ID)
	}
	m.logf("restart")
}

func (m *modelRun) step() {
	switch op := m.rng.Intn(20); {
	case op < 2 || len(m.sess) == 0:
		h, err := m.ms.c.NewSession(m.ctx)
		if err != nil {
			m.t.Fatal(err)
		}
		m.sess = append(m.sess, &modelSession{h: h, entries: map[string]*modelEntry{}})
		m.logf("create %s", h.ID)
	case op < 7:
		m.retain(m.pickSession())
	case op < 12:
		m.trace(m.pickSession())
	case op < 14:
		m.get(m.pickSession())
	case op == 14:
		m.clk.advance(time.Minute + time.Second)
		m.logf("advance past ttl")
	case op == 15:
		s := m.pickSession()
		m.logf("delete %s -> %v", s.h.ID, s.h.Close(m.ctx))
		s.dropped = true
	case op == 16:
		m.ingest()
	case op == 17:
		m.drain()
	case op == 18 && m.ms.fs != nil:
		fail := m.rng.Intn(2) == 0
		m.ms.fs.setFail(fail)
		m.logf("segment writes fail=%v", fail)
	case op == 19 && m.mc.restarts:
		m.restart()
	default:
		m.clk.advance(10 * time.Second)
	}
}

// The registry against a trivially correct model: random sequences of
// session create/drop, retain (eager, lazy, hybrid), GET, traces with small,
// large and out-of-range seeds, TTL advance, re-ingest, flusher drain,
// failing segment writes and graceful restarts, over memory-only and disk
// servers. Every reply must be the one the result gave while resident, or
// 410 — never a different answer, a 400 for a valid seed, or a 404 for a
// name the session created — and after every drain the byte accounting
// must match what the registry holds.
func TestRegistryModel(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 20
	}
	failed := map[string]int{}
	for seed := 1; seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		mc := modelConfig{perSession: 1 + rng.Intn(2), maxBytes: 512 << 20}
		if rng.Intn(4) == 0 {
			mc.maxBytes = 1 // everything but the newest result is demoted
		}
		switch rng.Intn(3) {
		case 1:
			mc.disk, mc.maxDiskBytes, mc.restarts = true, 4<<30, true
		case 2:
			mc.disk, mc.maxDiskBytes = true, 1 // every demoted segment is deleted
		}
		m := &modelRun{
			t: t, rng: rng, mc: mc, dir: t.TempDir(), ctx: context.Background(),
			clk: &fakeClock{t: time.Unix(1_700_000_000, 0)},
		}
		m.ms = startModelServer(t, m.dir, m.clk, mc)
		m.ingest()
		for i := 0; i < 40 && len(m.fails) == 0; i++ {
			m.step()
		}
		if len(m.fails) == 0 {
			m.drain()
		}
		if err := m.ms.stop(); err != nil && mc.disk {
			// A failing write left by the sequence is reported through the
			// close-flush; the run itself is what the model checks.
			t.Logf("seed %d: stop: %v", seed, err)
		}
		for _, f := range m.fails {
			failed[f]++
		}
		if len(m.fails) > 0 {
			t.Logf("seed %d (config %+v) failed", seed, mc)
		}
	}
	if len(failed) > 0 {
		t.Fatalf("invariants violated (class: seeds): %v", failed)
	}
}
