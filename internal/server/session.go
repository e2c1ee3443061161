package server

import (
	"fmt"
	"log/slog"
	"maps"
	"sync"
	"time"

	"smoke/internal/core"
	"smoke/internal/lineage"
	"smoke/internal/plan"
	"smoke/internal/serr"
	"smoke/internal/storage"
	"smoke/internal/wire"
)

// registry is the session-scoped result store: each session retains named
// executed results (base queries with live captures) so clients can issue
// bound backward/forward traces against them across requests — the paper's
// interactive loop, capture once then trace per interaction, over the wire.
//
// Each retained name is one entry with up to three answerers, each nil when
// absent: the resident *core.Result (memory), the segment it was written to
// with its lazily mapped view (disk), and the producing request (the spec,
// re-executed capture-free: the lazy tier). The entry's tier is whichever
// answerers are set; an entry left with none is deleted and its name
// tombstoned. resolve serves every read and trace from the first answerer
// that can answer the way the resident result would have: the resident
// result; else the view, when it holds the index the trace reads; else the
// spec, when the result would itself re-execute the trace (strategy lazy or
// hybrid) or no capture survives; else 410 or 404. The entry also keeps
// the result's producing plan in memory and gives it back to the copy
// restored from the segment, so a demoted result still reaches the
// optimizer's rules over scan equivalence; the segment itself holds no plan,
// and a restart loses it.
//
// Memory is bounded three ways (TTL, session LRU, byte budget). With a disk
// store configured, crossing a bound *demotes* a result — its output
// relation and encoded lineage indexes spill to an mmap-friendly segment —
// instead of discarding it; without one the resident answerer is simply
// dropped. Only the disk budget's own LRU (or an explicit DELETE) drops a
// segment.
//
//   - TTL: a session idle longer than ttl is demoted wholesale and marked
//     dormant (every registry operation sweeps lazily; the only background
//     goroutine is the flusher, owned and stopped by close). Dormant
//     sessions cost disk, not memory, so the TTL no longer applies to them;
//     any reference revives the session.
//   - Session LRU: at most maxSessions live sessions; creating (or reviving)
//     one more demotes the least-recently-used.
//   - Byte budget: resident results are charged their Result.MemBytes
//     (output relation + captured indexes); past maxBytes — or past
//     maxPerSession resident names in one session — the least-recently-used
//     resident result is demoted.
//   - Disk budget: segments are charged their bytes; past maxDiskBytes the
//     least-recently-used segment whose result is not resident is deleted.
//   - Specs: at most 4×maxPerSession entries per session keep one; past it
//     the least-recently-used entry's spec is dropped. A spec is kept only
//     while every relation its result read is still the catalog's (re-ingest
//     drops it): re-executed over other data it would answer for a result
//     nobody retained.
//
// No request handler blocks on segment I/O. All disk writes run on the
// background flusher; one entry moves through
//
//	memory ──demote──▶ demoting ──write lands──▶ disk ──promote──▶ memory
//	   │                   │                       │
//	   └──── put() ────────┴─ resolve serves the ──┴─ small traces answer
//	        (write-behind     still-resident copy;    in situ off the mapped
//	         persist)         a drop/overwrite        segment, promotion-free
//	                          cancels the write
//
//	memory/disk ──evict (no store) / disk budget──▶ lazy (spec only) ──▶ gone
//
// demoting keeps the result resident and its bytes charged (minus a
// demoting credit so the budget loop does not over-evict); the memory copy
// is released only when the segment write lands. Promotion maps the segment
// off-lock into a segment-backed view first; whether a trace then promotes
// (re-retains) or answers straight off the view is a cost decision — see
// resolve.
//
// Names and session ids in the gone tier leave tombstones so a later
// reference answers 410 Gone ("re-run your base query") rather than 404 Not
// Found ("you never created this"), which is the contract interactive
// clients rebind on.
type registry struct {
	mu            sync.Mutex
	clock         func() time.Time
	ttl           time.Duration
	maxSessions   int
	maxPerSession int
	maxBytes      int64

	db           *core.DB
	store        resultStore // nil: no disk tier, evictions drop the resident answerer
	fl           *flusher    // nil iff store is nil
	maxDiskBytes int64
	diskBytes    int64 // segment bytes across all entries

	sessions map[string]*session // live and dormant
	retained int64               // bytes across all sessions, deduplicated by Result
	// demotingBytes is the slice of retained the in-flight demotions will
	// free; the byte-budget loop subtracts it so a slow segment write does
	// not trigger a second round of victims.
	demotingBytes int64
	nextID        uint64
	flushSeqGen   uint64 // put-job ticket generator

	// refs deduplicates byte charges: the fingerprint cache hands the same
	// *core.Result to every session that runs an identical query, and one
	// allocation retained N times must be charged (and freed) once, or the
	// budget would evict live results under imaginary pressure.
	refs map[*core.Result]*refEntry

	goneSessions *tombstones

	counters      tierCounters
	flushErr      error // first disk error since the last flush() reset
	diskErrLogged bool
}

// tierCounters observe the disk tier (exported through stats/healthz; the
// serve bench gates on them). All access holds registry.mu.
type tierCounters struct {
	demotes       uint64 // results that left the memory tier
	promotes      uint64 // demoted results re-retained in memory (full restore)
	views         uint64 // segment-backed trace views materialized
	insituTraces  uint64 // bound traces answered off a view, promotion-free
	writeBehind   uint64 // eager persists that completed with the result still resident
	flushErrors   uint64 // failed segment writes
	deleteErrors  uint64 // disk-tier deletes that could not be queued
	publishErrors uint64 // failed manifest publishes
}

// registryStats is the stats() snapshot.
type registryStats struct {
	sessions, results, demoted int
	retainedBytes, diskBytes   int64
	queueDepth                 int
	c                          tierCounters
}

// insituCostFactor and insituPromoteAfter tune in-situ-vs-promote routing:
// a backward trace whose seeds' encoded rid lists span more than
// 1/insituCostFactor of the full restore bytes promotes (a big trace pays
// the restore once and keeps the result hot), and the insituPromoteAfter-th
// in-situ trace since the last demotion promotes too (repeated small traces
// amortize residency).
const (
	insituCostFactor   = 16
	insituPromoteAfter = 8
)

type refEntry struct {
	n     int
	bytes int64
}

type session struct {
	id      string
	last    time.Time
	dormant bool // demoted whole: costs disk, not memory; revived on access
	entries map[string]*entry
	gone    *tombstones // evicted result names → 410
}

// entry is one retained name and its answerers.
type entry struct {
	last time.Time
	res  *core.Result // resident answerer
	seg  *segment     // disk answerer
	spec *spec        // lazy answerer
	// plan is res's producing plan (core.Result.ProducingPlan), attached to
	// the result restored from seg; nil for recovered entries.
	plan plan.Node
	// reexec records that the result answers traces its capture lacks by
	// re-executing its plan (strategy lazy or hybrid). Recovered entries
	// set it: a restart loses the strategy, and a trace of a table the
	// result read that its segment holds no index for is one no segment
	// can answer.
	reexec bool

	// The pending flusher write for res. flushSeq is its ticket (0: none);
	// the flusher re-checks it before writing, and cancelPendingLocked
	// bumps it stale so an overwrite or drop voids the queued write.
	// dropOnFlush marks a demotion in flight: when the write lands the
	// memory copy is released — unless the result was referenced after
	// demoteAt (the completed write then counts as write-behind).
	// countedBytes is the demoting credit held against the byte budget (0
	// when the Result is shared — releasing a shared ref frees nothing).
	flushSeq     uint64
	dropOnFlush  bool
	demoteAt     time.Time
	countedBytes int64
}

// segment is an entry's disk copy. view is the lazily materialized
// segment-backed trace view; loading is non-nil while one goroutine maps
// the segment off-lock (waiters block on it and re-resolve). hits counts
// in-situ traces since the last (re-)demotion; at insituPromoteAfter the
// next trace promotes instead.
type segment struct {
	bytes   int64
	view    *core.Result
	loading chan struct{}
	hits    int
}

// spec is the lazy answerer: the request that produced the result and the
// base relations it ran over, which a re-execution must read again.
type spec struct {
	req   wire.QueryRequest
	bases map[string]*storage.Relation
}

// tombstoneCap bounds each tombstone set's memory. Eviction is generational:
// the set rotates in two half-cap generations, so the most recent cap/2
// evictions always answer 410 and only names at least cap/2 evictions old
// can degrade to 404. (The previous wholesale reset forgot *every* tombstone
// at the cap — one unlucky eviction flipped long-gone names back to 404.)
const tombstoneCap = 4096

// tombstones is a two-generation set: adds go to cur; when cur fills half
// the cap, it becomes old (dropping the previous old) and a fresh cur
// starts. Membership checks both generations, so a key survives at least
// cap/2 and at most cap subsequent adds.
type tombstones struct {
	cap      int
	cur, old map[string]struct{}
}

func newTombstones(cap int) *tombstones {
	return &tombstones{cap: cap, cur: map[string]struct{}{}}
}

func (t *tombstones) add(key string) {
	if len(t.cur) >= t.cap/2 {
		t.old = t.cur
		t.cur = map[string]struct{}{}
	}
	t.cur[key] = struct{}{}
}

func (t *tombstones) has(key string) bool {
	if _, ok := t.cur[key]; ok {
		return true
	}
	_, ok := t.old[key]
	return ok
}

func (t *tombstones) remove(key string) {
	delete(t.cur, key)
	delete(t.old, key)
}

func newRegistry(db *core.DB, store resultStore, clock func() time.Time, ttl time.Duration,
	maxSessions, maxPerSession int, maxBytes, maxDiskBytes int64) *registry {
	r := &registry{
		db: db, store: store, clock: clock, ttl: ttl,
		maxSessions: maxSessions, maxPerSession: maxPerSession,
		maxBytes: maxBytes, maxDiskBytes: maxDiskBytes,
		sessions:     map[string]*session{},
		refs:         map[*core.Result]*refEntry{},
		goneSessions: newTombstones(tombstoneCap),
	}
	if store != nil {
		r.recoverLocked()
		r.fl = newFlusher(store)
		r.fl.shouldFlush = r.shouldFlush
		r.fl.onPutDone = r.onPutDone
		r.fl.onPublish = r.onPublish
		r.fl.start()
	}
	return r
}

// close flushes retained state and stops the flusher goroutine. Safe to call
// more than once.
func (r *registry) close() error {
	err := r.flush()
	if r.fl != nil {
		r.fl.stop()
	}
	return err
}

func newSession(id string, now time.Time) *session {
	return &session{id: id, last: now, entries: map[string]*entry{}, gone: newTombstones(tombstoneCap)}
}

// recoverLocked rebuilds dormant sessions from the store's manifest: every
// published result comes back as a disk-tier entry, promoted lazily on
// first access. Results the store had to drop because their segments
// predate the current format come back as tombstones, so they answer 410
// (re-run the base query) like any other result lost across a restart, not
// 404. Runs at construction (before the registry is shared), so no lock is
// actually held.
func (r *registry) recoverLocked() {
	now := r.clock()
	recovered := func(sid string) *session {
		s := r.sessions[sid]
		if s == nil {
			s = newSession(sid, now)
			s.dormant = true
			r.sessions[sid] = s
			// Keep the id generator ahead of recovered ids even if the
			// persisted watermark lagged (it publishes lazily).
			var n uint64
			if _, err := fmt.Sscanf(sid, "s%x", &n); err == nil && n > r.nextID {
				r.nextID = n
			}
		}
		return s
	}
	for sid, results := range r.store.Sessions() {
		s := recovered(sid)
		for name, bytes := range results {
			s.entries[name] = &entry{last: now, seg: &segment{bytes: bytes}, reexec: true}
			r.diskBytes += bytes
		}
	}
	for sid, names := range r.store.StaleResults() {
		s := recovered(sid)
		for _, name := range names {
			s.gone.add(name)
		}
	}
	if wm := r.store.NextSessionID(); wm > r.nextID {
		r.nextID = wm
	}
}

// retainRefLocked charges res's bytes on its first retention and counts the
// reference.
func (r *registry) retainRefLocked(res *core.Result) {
	e := r.refs[res]
	if e == nil {
		e = &refEntry{bytes: res.MemBytes()}
		r.refs[res] = e
		r.retained += e.bytes
	}
	e.n++
}

// releaseRefLocked drops one reference and frees the charge with the last.
func (r *registry) releaseRefLocked(res *core.Result) {
	e := r.refs[res]
	if e == nil {
		return
	}
	e.n--
	if e.n <= 0 {
		delete(r.refs, res)
		r.retained -= e.bytes
	}
}

// create opens a new session, demoting the LRU session if the cap is hit.
func (r *registry) create() *session {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.clock()
	r.sweepLocked(now)
	r.makeRoomLocked()
	r.nextID++
	s := newSession(fmt.Sprintf("s%08x", r.nextID), now)
	r.sessions[s.id] = s
	if r.store != nil {
		r.store.SetNextSessionID(r.nextID)
	}
	return s
}

// sessionLocked resolves a session, reviving a dormant one (its results
// stay demoted until individually promoted).
func (r *registry) sessionLocked(id string, now time.Time) (*session, error) {
	s, ok := r.sessions[id]
	if !ok {
		if r.goneSessions.has(id) {
			return nil, serr.New(serr.Gone, "server: session %s expired or was evicted; open a new session", id)
		}
		return nil, serr.New(serr.NotFound, "server: unknown session %s", id)
	}
	if s.dormant {
		r.makeRoomLocked()
		s.dormant = false
	}
	s.last = now
	return s, nil
}

// drop deletes a session explicitly (DELETE /v1/sessions/{id}): memory and
// disk tiers both, tombstoning the id.
func (r *registry) drop(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked(r.clock())
	s, ok := r.sessions[id]
	if !ok {
		_, err := r.sessionLocked(id, time.Time{}) // the 410 or 404
		return err
	}
	r.removeSessionLocked(s)
	return nil
}

// put retains res under name in session id, demoting as needed to stay
// within the byte budget and per-session cap, and hands the result to the
// flusher eagerly (write-behind): once the queue drains, a hard crash loses
// nothing retained. req, when non-nil, is the producing request; it becomes
// the entry's spec if every relation res read is still the catalog's.
func (r *registry) put(id, name string, res *core.Result, req *wire.QueryRequest) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.clock()
	r.sweepLocked(now)
	s, err := r.sessionLocked(id, now)
	if err != nil {
		return err
	}
	// The name now binds to a new result: the old one's disk copy is
	// deleted — including a write already in flight, which lands before
	// the queued delete runs — and its pending write voided. The delete
	// runs before the new put's write (FIFO), so the manifest converges.
	if old := s.entries[name]; old != nil {
		r.dropSegmentLocked(s, name, old)
		r.evictResidentLocked(old)
	}
	strategy := res.Strategy()
	e := &entry{last: now, res: res, plan: res.ProducingPlan(),
		reexec: strategy == core.StrategyLazy || strategy == core.StrategyHybrid}
	if req != nil {
		// Keep the spec only while every relation res read is still the
		// one the catalog serves under its name.
		e.spec = &spec{req: *req, bases: res.Bases()}
		for t, rel := range e.spec.bases {
			if cur, err := r.db.Table(t); err != nil || cur != rel {
				e.spec = nil
				break
			}
		}
	}
	s.entries[name] = e
	s.gone.remove(name) // a re-created name is live again
	// Bound the specs well above the resident cap (specs outlive the
	// results they describe — that is the point).
	for n := s.count(func(x *entry) bool { return x.spec != nil }); n > 4*r.maxPerSession; n-- {
		_, vname, v := r.victimLocked(s, func(x *entry) bool { return x.spec != nil && x != e })
		v.spec = nil
		r.settleLocked(s, vname, v)
	}
	r.admitLocked(s, name, e, true)
	return nil
}

// forgetSpecs drops every spec that reads table: it was just re-ingested,
// and a re-execution would read the new data.
func (r *registry) forgetSpecs(table string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.sessions {
		for name, e := range s.entries {
			if e.spec != nil && e.spec.bases[table] != nil {
				e.spec = nil
				r.settleLocked(s, name, e)
			}
		}
	}
}

// admitLocked charges e's resident result and hands it to the flusher as a
// write-behind persist (a saturated queue just skips — the result persists
// at demotion or the next flush instead; a result with a current segment
// needs none), then demotes least-recently-used results until the session's
// name cap (when capped) and the byte budget hold. e itself is never the
// victim.
func (r *registry) admitLocked(s *session, name string, e *entry, capped bool) {
	r.retainRefLocked(e.res)
	r.enqueuePutLocked(s, name, e, false, false)
	for capped && s.count(func(x *entry) bool { return x.res != nil }) > r.maxPerSession {
		vs, vname, v := r.victimLocked(s, func(x *entry) bool { return x.res != nil && x != e && !x.dropOnFlush })
		if v == nil || !r.demoteLocked(vs, vname, v) {
			break
		}
	}
	for r.maxBytes > 0 && r.retained-r.demotingBytes > r.maxBytes {
		// Only a sole reference frees memory: demoting one of several
		// references to a cache-shared Result would cost a client its
		// residency without freeing a byte.
		vs, vname, v := r.victimLocked(nil, func(x *entry) bool {
			return x.res != nil && x != e && !x.dropOnFlush && r.refs[x.res].n <= 1
		})
		if v == nil || !r.demoteLocked(vs, vname, v) {
			break // only e remains; keep it
		}
	}
}

// count reports how many of s's entries ok accepts.
func (s *session) count(ok func(*entry) bool) int {
	n := 0
	for _, e := range s.entries {
		if ok(e) {
			n++
		}
	}
	return n
}

// victimLocked is the registry's one entry LRU scan: the least-recently-used
// entry ok accepts, within session in, or in every session when in is nil.
func (r *registry) victimLocked(in *session, ok func(*entry) bool) (vs *session, vname string, v *entry) {
	scan := func(s *session) {
		for name, e := range s.entries {
			if ok(e) && (v == nil || e.last.Before(v.last)) {
				vs, vname, v = s, name, e
			}
		}
	}
	if in != nil {
		scan(in)
		return vs, vname, v
	}
	for _, s := range r.sessions {
		scan(s)
	}
	return vs, vname, v
}

// settleLocked deletes an entry left with no answerer, tombstoning its name,
// and retires a dormant session left with no entry.
func (r *registry) settleLocked(s *session, name string, e *entry) {
	if e.res != nil || e.seg != nil || e.spec != nil {
		return
	}
	delete(s.entries, name)
	s.gone.add(name)
	if s.dormant && len(s.entries) == 0 {
		delete(r.sessions, s.id)
		r.goneSessions.add(s.id)
	}
}

// cancelPendingLocked voids a pending flusher write for e (overwritten or
// dropped): the ticket mismatch makes the flusher skip the job, and the
// demoting byte credit rolls back.
func (r *registry) cancelPendingLocked(e *entry) {
	if e.flushSeq == 0 {
		return
	}
	e.flushSeq = 0
	e.dropOnFlush = false
	r.demotingBytes -= e.countedBytes
	e.countedBytes = 0
}

// evictResidentLocked drops e's resident answerer, voiding its pending
// write.
func (r *registry) evictResidentLocked(e *entry) {
	if e.res == nil {
		return
	}
	r.cancelPendingLocked(e)
	r.releaseRefLocked(e.res)
	e.res = nil
}

// enqueuePutLocked hands e's resident result to the flusher. drop demotes
// (the memory copy is released when the write lands); otherwise it is
// write-behind and the result stays resident. A write already pending is
// reused, escalating to drop when asked; force bypasses the queue cap.
// Reports whether a write is pending on return.
func (r *registry) enqueuePutLocked(s *session, name string, e *entry, drop, force bool) bool {
	if r.fl == nil || e.res == nil || e.seg != nil {
		return false
	}
	if e.flushSeq == 0 {
		r.flushSeqGen++
		if !r.fl.enqueue(flushJob{op: opPut, sid: s.id, name: name, res: e.res, seq: r.flushSeqGen}, force) {
			return false
		}
		e.flushSeq = r.flushSeqGen
	}
	if drop && !e.dropOnFlush {
		e.dropOnFlush = true
		e.demoteAt = r.clock()
		// Credit the byte budget with what the demotion will free when its
		// write lands (nothing when the Result is shared).
		if ref := r.refs[e.res]; ref != nil && ref.n == 1 {
			e.countedBytes = ref.bytes
			r.demotingBytes += ref.bytes
		}
	}
	return true
}

// touch verifies a session is alive (refreshing its TTL clock) without
// reading a result — handlers probe it before paying for query execution,
// so a dead session is rejected without burning gate and pool capacity.
func (r *registry) touch(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.clock()
	r.sweepLocked(now)
	_, err := r.sessionLocked(id, now)
	return err
}

// traceHint carries what the registry needs to route one bound trace:
// direction, the traced table, the explicit seeds (nil when the trace is
// predicate-seeded), and whether the client forced the lazy path.
type traceHint struct {
	backward bool
	table    string
	seeds    []lineage.Rid
	lazy     bool
}

// get returns the named result for a read (GET): the resident result, or
// the segment promoted back into memory. The lazy tier does not read back;
// a spec-only entry answers 410.
func (r *registry) get(id, name string) (*core.Result, error) {
	res, _, err := r.resolve(id, name, nil)
	return res, err
}

// resolve picks the first of the entry's answerers that can answer the way
// the resident result would have (see registry): a result to read or
// trace, or — for a trace only — a spec the caller re-executes
// capture-free and hands to adopt. For a demoted result it materializes
// the segment-backed view first, then routes: backward traces with
// explicit seeds whose encoded rid lists span a small fraction of the
// restore bytes answer in situ off the view — promotion-free — while big
// traces, forward traces, predicate seeds, unknown costs, reads (h nil) and
// the insituPromoteAfter-th repeat promote and stay hot. It may release the
// registry lock to load a segment or to wait for a concurrent loader, then
// re-resolves from scratch — the world can change while unlocked.
func (r *registry) resolve(id, name string, h *traceHint) (*core.Result, *spec, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		now := r.clock()
		r.sweepLocked(now)
		s, err := r.sessionLocked(id, now)
		if err != nil {
			return nil, nil, err
		}
		e := s.entries[name]
		if e == nil {
			if s.gone.has(name) {
				return nil, nil, evicted(s, name)
			}
			return nil, nil, serr.New(serr.NotFound, "server: session %s has no result %q", id, name)
		}
		// A resident hit includes results mid-demotion: the still-resident
		// copy serves, and the freshened clock keeps it resident when the
		// pending write lands (the write then just bought durability).
		e.last = now
		dir := core.TraceForward
		if h != nil && h.backward {
			dir = core.TraceBackward
		}
		// reexec: the result would answer this trace by re-executing its
		// plan, which a copy restored from disk (v) never does: its
		// strategy is not restored.
		reexec := func(v *core.Result) bool {
			return h != nil && (h.lazy || e.reexec &&
				v.TraceStrategy(h.table, dir) != core.StrategyEager && v.BaseRelation(h.table) != nil)
		}
		if e.res != nil && !(e.res.IsView() && reexec(e.res)) {
			return e.res, nil, nil
		}
		if seg := e.seg; seg != nil && seg.view == nil {
			if w := seg.loading; w != nil {
				r.mu.Unlock()
				<-w
				r.mu.Lock()
			} else if err := r.ensureViewLocked(s, name, seg, e.plan); err != nil {
				return nil, nil, err
			}
			continue
		}
		switch {
		case e.seg != nil && !reexec(e.seg.view):
			if h == nil || r.shouldPromoteLocked(e.seg, *h) {
				return r.promoteLocked(s, name, e)
			}
			e.seg.hits++
			r.counters.insituTraces++
			return e.seg.view, nil, nil
		case h != nil && e.spec != nil:
			return nil, e.spec, nil
		}
		return nil, nil, evicted(s, name)
	}
}

// residents returns the in-memory answerer of each of session id's results
// by name — the siblings a capture-off consuming trace may regroup through
// (core.Query.Siblings): the resident or promoted result, else the segment's
// view when one is already mapped. It never loads a segment, and no clock
// moves: offering a result as a sibling is not a use of it.
func (r *registry) residents(id string) map[string]*core.Result {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.sessions[id]
	if s == nil || s.dormant {
		return nil
	}
	out := make(map[string]*core.Result, len(s.entries))
	for name, e := range s.entries {
		switch {
		case e.res != nil:
			out[name] = e.res
		case e.seg != nil && e.seg.view != nil:
			out[name] = e.seg.view
		}
	}
	return out
}

func evicted(s *session, name string) error {
	return serr.New(serr.Gone, "server: result %q was evicted from session %s; re-run the base query", name, s.id)
}

// adopt accepts a result re-executed from sp, the spec resolve handed out
// for session id's name: it must have read the very relations the original
// did — a re-ingest while it ran answers 410 — and, when the spec is still
// the entry's only answerer, it is retained there so the name reads back
// again.
func (r *registry) adopt(id, name string, sp *spec, res *core.Result) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, err := r.sessionLocked(id, r.clock())
	if err != nil {
		return err
	}
	e := s.entries[name]
	switch {
	case e == nil || e.spec != sp || !maps.Equal(res.Bases(), sp.bases):
		return evicted(s, name)
	case e.res == nil && e.seg == nil:
		e.res, e.plan, e.reexec = res, res.ProducingPlan(), true // capture-free: every trace re-executes
		r.admitLocked(s, name, e, true)
	}
	return nil
}

// unrecoverableLocked drops a segment that cannot be used — when it is
// still the entry's — and returns the 410 the client sees.
func (r *registry) unrecoverableLocked(s *session, name string, seg *segment, err error) error {
	if e := s.entries[name]; e != nil && e.seg == seg {
		r.dropSegmentLocked(s, name, e)
		r.settleLocked(s, name, e)
	}
	return serr.New(serr.Gone,
		"server: result %q of session %s could not be recovered from disk (%v); re-run the base query",
		name, s.id, err)
}

// ensureViewLocked materializes seg's segment-backed view, releasing the
// registry lock for the segment load so concurrent sessions keep moving, and
// gives it p, the entry's producing plan (core.Result.AttachPlan keeps it
// only over the very base relations the segment restored). Exactly one
// goroutine loads; waiters block on seg.loading. On return the lock is held
// again. A load failure drops the segment (it is unrecoverable).
func (r *registry) ensureViewLocked(s *session, name string, seg *segment, p plan.Node) error {
	w := make(chan struct{})
	seg.loading = w
	r.mu.Unlock()
	ld, err := r.store.LoadResult(s.id, name)
	var view *core.Result
	if err == nil {
		view = core.RestoreView(r.db, ld.Out, ld.GroupCounts, ld.Capture, ld.Bases)
		view.AttachPlan(p)
	}
	r.mu.Lock()
	seg.loading = nil
	close(w)
	if err != nil {
		return r.unrecoverableLocked(s, name, seg, err)
	}
	seg.view = view
	r.counters.views++
	return nil
}

// shouldPromoteLocked is the cost cutoff between answering a trace in situ
// off the view and promoting the whole result back into memory.
func (r *registry) shouldPromoteLocked(seg *segment, h traceHint) bool {
	if seg.hits >= insituPromoteAfter {
		return true
	}
	if !h.backward || h.seeds == nil {
		return true // forward and predicate-seeded traces want the full result
	}
	trace, restore, ok := seg.view.TraceCost(h.table, h.seeds)
	if !ok {
		return true
	}
	return trace*insituCostFactor > restore
}

// promoteLocked installs the already-loaded view as the resident result.
// Promotion is the full restore: from here the result serves every kind of
// trace over all of its lists, so its chunk bytes — which the lazily mapped
// view took on trust — are validated first, each index against the rows its
// rids address (a backward index its base snapshot's, a forward index the
// output's). The segment stays current (re-demotion is then free), and the
// promotion charges the memory budget like any retention — possibly demoting
// colder results.
func (r *registry) promoteLocked(s *session, name string, e *entry) (*core.Result, *spec, error) {
	view := e.seg.view
	baseRows := map[string]int{}
	for table, rel := range view.Bases() {
		baseRows[table] = rel.N
	}
	if err := view.Capture().Validate(view.Out.N, baseRows); err != nil {
		return nil, nil, r.unrecoverableLocked(s, name, e.seg, err)
	}
	e.res = view
	e.seg.hits = 0
	r.counters.promotes++
	r.admitLocked(s, name, e, false)
	return view, nil, nil
}

// stats snapshots every tier and the disk-tier counters.
func (r *registry) stats() registryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked(r.clock())
	st := registryStats{sessions: len(r.sessions), retainedBytes: r.retained, diskBytes: r.diskBytes, c: r.counters}
	for _, s := range r.sessions {
		st.results += s.count(func(e *entry) bool { return e.res != nil })
		st.demoted += s.count(func(e *entry) bool { return e.seg != nil })
	}
	if r.fl != nil {
		st.queueDepth = r.fl.queueDepth()
	}
	return st
}

// sweepLocked demotes every live session idle past the TTL. Dormant
// sessions are exempt: they already cost disk, not memory.
func (r *registry) sweepLocked(now time.Time) {
	if r.ttl <= 0 {
		return
	}
	for _, s := range r.sessions {
		if !s.dormant && now.Sub(s.last) > r.ttl {
			r.demoteSessionLocked(s)
		}
	}
}

// makeRoomLocked demotes least-recently-used live sessions until one more
// fits under maxSessions.
func (r *registry) makeRoomLocked() {
	for {
		live := 0
		var lru *session
		for _, s := range r.sessions {
			if !s.dormant {
				live++
				if lru == nil || s.last.Before(lru.last) {
					lru = s
				}
			}
		}
		if live < r.maxSessions || !r.demoteSessionLocked(lru) {
			return
		}
	}
}

// demoteLocked moves one resident result out of the memory tier. With no
// store its resident answerer is dropped immediately. With a current
// segment the demotion is free: memory drops now. Otherwise the result
// enters the demoting state — the segment write queues on the flusher and
// the memory copy is released only when it lands (a read meanwhile serves
// the resident copy and keeps it hot). Reports whether the demotion made,
// or queued, progress; false means the flusher is saturated and the result
// stays.
func (r *registry) demoteLocked(s *session, name string, e *entry) bool {
	if r.store == nil || e.seg != nil {
		r.evictResidentLocked(e)
		if e.seg != nil {
			e.seg.hits = 0 // re-demotion restarts the repeated-trace clock
		}
		r.counters.demotes++
		r.settleLocked(s, name, e)
		return true
	}
	return r.enqueuePutLocked(s, name, e, true, false)
}

// demoteSessionLocked demotes a whole live session. Results without a
// current segment enter the demoting state; with a store the session turns
// dormant while its pending writes and entries live on, without one it is
// gone. A session with a demotion the flusher could not accept stays live
// and retries on the next sweep. Reports whether the session left the live
// set.
func (r *registry) demoteSessionLocked(s *session) bool {
	stuck := false
	for name, e := range s.entries {
		if e.res != nil && !r.demoteLocked(s, name, e) {
			stuck = true
		}
	}
	switch {
	case stuck:
		return false
	case r.store != nil && len(s.entries) > 0:
		s.dormant = true
	default:
		delete(r.sessions, s.id)
		r.goneSessions.add(s.id)
	}
	return true
}

// removeSessionLocked drops a session from every tier and tombstones its id.
// Pending writes are cancelled; the manifest delete queues behind them.
func (r *registry) removeSessionLocked(s *session) {
	for _, e := range s.entries {
		r.evictResidentLocked(e)
		if e.seg != nil {
			r.diskBytes -= e.seg.bytes
		}
	}
	s.entries = map[string]*entry{}
	if r.fl != nil && !r.fl.enqueue(flushJob{op: opDeleteSession, sid: s.id}, true) {
		r.counters.deleteErrors++
		r.diskErrLocked(nil, "queue delete failed (flusher stopped)", "session", s.id)
	}
	delete(r.sessions, s.id)
	r.goneSessions.add(s.id)
}

// dropSegmentLocked drops e's segment, or the one its pending write may
// still land. The manifest delete runs on the flusher — FIFO behind any
// pending write of the same name, so a put-then-delete lands in order. A
// delete that cannot queue is logged once and counted (the segment is
// reclaimed as an orphan at the next Open).
func (r *registry) dropSegmentLocked(s *session, name string, e *entry) {
	if e.seg == nil && e.flushSeq == 0 {
		return
	}
	if e.seg != nil {
		r.diskBytes -= e.seg.bytes
		e.seg = nil
	}
	if r.fl != nil && !r.fl.enqueue(flushJob{op: opDeleteResult, sid: s.id, name: name}, true) {
		r.counters.deleteErrors++
		r.diskErrLocked(nil, "queue delete failed (flusher stopped)", "session", s.id, "result", name)
	}
}

// ---- flusher callbacks (run on the flusher goroutine) ----

// pendingLocked returns the entry a put job was queued for while the job's
// ticket is still current — a drop, overwrite, or session delete since
// enqueue voids it.
func (r *registry) pendingLocked(job flushJob) (*session, *entry) {
	if s := r.sessions[job.sid]; s != nil {
		if e := s.entries[job.name]; e != nil && e.flushSeq == job.seq {
			return s, e
		}
	}
	return nil, nil
}

// shouldFlush is the flusher's pre-write check: the job's ticket must still
// be current.
func (r *registry) shouldFlush(job flushJob) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, e := r.pendingLocked(job)
	return e != nil
}

// onPutDone advances the state machine when a segment write finishes:
// demoting → disk (release the memory copy, unless it was touched since) or
// write-behind → durable-and-resident; a failed demotion write drops the
// resident answerer rather than pinning memory the budgets already
// reclaimed.
func (r *registry) onPutDone(job flushJob, bytes int64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, e := r.pendingLocked(job)
	if e == nil {
		return // superseded, or the session was dropped while writing
	}
	drop := e.dropOnFlush
	r.cancelPendingLocked(e) // spent: the ticket and the demoting credit
	if err != nil {
		r.counters.flushErrors++
		r.diskErrLocked(err, "segment write failed", "session", job.sid, "result", job.name)
		if drop {
			r.evictResidentLocked(e)
			r.counters.demotes++
			r.settleLocked(s, job.name, e)
		}
		return
	}
	e.seg = &segment{bytes: bytes}
	r.diskBytes += bytes
	if drop && !e.last.After(e.demoteAt) {
		r.evictResidentLocked(e)
		r.counters.demotes++
	} else {
		// Referenced since the demotion queued (or plain write-behind): the
		// result stays hot; the write still bought durability.
		r.counters.writeBehind++
	}
	// The disk budget deletes the least-recently-used segments whose result
	// is not resident (deleting a resident one's copy would only force a
	// rewrite at its next demotion).
	for r.maxDiskBytes > 0 && r.diskBytes > r.maxDiskBytes {
		vs, vname, v := r.victimLocked(nil, func(x *entry) bool { return x.seg != nil && x.res == nil })
		if v == nil {
			break
		}
		r.dropSegmentLocked(vs, vname, v)
		r.settleLocked(vs, vname, v)
	}
}

// onPublish records manifest-publish failures (the only way a queued delete
// can fail to take effect).
func (r *registry) onPublish(err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters.publishErrors++
	r.diskErrLocked(err, "manifest publish failed")
}

// diskErrLocked records a disk-tier failure for flush to return (err, when
// non-nil and the first since the last flush) and reports the first one to
// the process log — once, so a dying disk cannot flood it — while every
// occurrence stays counted in the stats surface. op names the failed step;
// attrs are its slog key/value pairs.
func (r *registry) diskErrLocked(err error, op string, attrs ...any) {
	if r.flushErr == nil {
		r.flushErr = err
	}
	if r.diskErrLogged {
		return
	}
	r.diskErrLogged = true
	attrs = append([]any{"op", op}, attrs...)
	if err != nil {
		attrs = append(attrs, "err", err)
	}
	slog.Error("server: disk tier degraded (further errors counted, not logged)", attrs...)
}

// flush persists every not-yet-durable resident result and publishes the
// manifest (graceful-shutdown path): enqueue whatever is not already
// pending, drain the flusher, publish with the session-id watermark.
// Results stay resident — flush persists, it does not evict. The first disk
// error observed (including by concurrent flusher work) is returned after
// attempting everything.
func (r *registry) flush() error {
	if r.store == nil {
		return nil
	}
	r.mu.Lock()
	r.flushErr = nil
	for _, s := range r.sessions {
		for name, e := range s.entries {
			r.enqueuePutLocked(s, name, e, false, true)
		}
	}
	r.mu.Unlock()
	r.fl.drain()
	r.mu.Lock()
	err := r.flushErr
	r.store.SetNextSessionID(r.nextID)
	r.mu.Unlock()
	if perr := r.store.Publish(); perr != nil && err == nil {
		err = perr
	}
	return err
}
