package server

import (
	"fmt"
	"log"
	"sync"
	"time"

	"smoke/internal/core"
	"smoke/internal/lineage"
	"smoke/internal/serr"
	"smoke/internal/wire"
)

// registry is the session-scoped result store: each session retains named
// executed results (base queries with live captures) so clients can issue
// bound backward/forward traces against them across requests — the paper's
// interactive loop, capture once then trace per interaction, over the wire.
//
// Retention is tiered: memory → disk → gone. In-memory captures are bounded
// three ways (TTL, session LRU, byte budget), but when a disk store is
// configured, crossing a bound *demotes* the result — its output relation
// and encoded lineage indexes spill to an mmap-friendly segment — instead of
// discarding it. Only the disk budget's own LRU (or an explicit DELETE)
// moves a result to the terminal "gone" tier.
//
//   - TTL: a session idle longer than ttl is demoted wholesale and parked in
//     the dormant set (every registry operation sweeps lazily; the only
//     background goroutine is the flusher, owned and stopped by close).
//     Dormant sessions cost disk, not memory, so the TTL no longer applies
//     to them; any reference revives the session.
//   - Session LRU: at most maxSessions live sessions; creating (or reviving)
//     one more demotes the least-recently-used.
//   - Byte budget: retained results are charged their Result.MemBytes
//     (output relation + captured indexes); past maxBytes — or past
//     maxPerSession names in one session — the least-recently-used retained
//     result anywhere is demoted.
//   - Disk budget: demoted results are charged their segment bytes; past
//     maxDiskBytes the least-recently-used demoted result anywhere is
//     deleted and tombstoned.
//
// No request handler blocks on segment I/O. All disk writes run on the
// background flusher; the per-result state machine is
//
//	memory ──demote──▶ demoting ──write lands──▶ disk ──promote──▶ memory
//	   │                   │                        │
//	   └──── put() ────────┴─ get() serves the ─────┴─ small traces answer
//	        (write-behind     still-resident copy;     in situ off the mapped
//	         persist)         a drop/overwrite         segment, promotion-free
//	                          cancels the write
//
// demoting keeps the result resident and its bytes charged (minus a
// demoting credit so the budget loop does not over-evict); the memory copy
// is released only when the segment write lands. Promotion maps the segment
// off-lock into a segment-backed view first; whether a trace then promotes
// (re-retains) or answers straight off the view is a cost decision — see
// getForTrace. Without a store every demotion degrades to the old behavior:
// straight to gone.
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
	store        resultStore // nil: no disk tier, evictions tombstone
	fl           *flusher    // nil iff store is nil
	maxDiskBytes int64
	diskBytes    int64 // manifest bytes across all demoted results

	sessions map[string]*session // live (memory-tier) sessions
	dormant  map[string]*session // demoted-whole sessions, revived on access
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
	results map[string]*retainedResult
	demoted map[string]*demotedResult // disk-tier copies, promoted on access
	gone    *tombstones               // evicted result names → 410
	// specs remembers the request that produced each retained result, so a
	// capture evicted from every tier can be rebuilt capture-free (the lazy
	// retention tier) instead of answering 410. Lazily allocated; bounded;
	// not persisted — recovered sessions fall back to 410 semantics.
	specs map[string]wire.QueryRequest
}

type retainedResult struct {
	res  *core.Result
	last time.Time
	// onDisk records that a current demoted copy exists under the same
	// name, so re-demoting this result drops memory without rewriting the
	// segment.
	onDisk bool
	// flushSeq is the ticket of the pending flusher write for this result
	// (0: none). The flusher re-checks it before writing; cancelPendingLocked
	// bumps it stale so an overwrite or drop voids the queued write.
	flushSeq uint64
	// dropOnFlush marks a demotion in flight: when the pending write lands
	// the memory copy is released — unless the result was referenced after
	// demoteAt (a get during demoting keeps it hot; the completed write
	// still counts as write-behind durability).
	dropOnFlush bool
	demoteAt    time.Time
	// countedBytes is the demoting credit this entry holds against the byte
	// budget (0 when the Result is shared with other retentions — releasing
	// a shared ref frees nothing).
	countedBytes int64
}

type demotedResult struct {
	bytes int64
	last  time.Time
	// view is the lazily materialized segment-backed trace view. loading is
	// non-nil while one goroutine maps the segment off-lock; waiters block
	// on it and re-resolve.
	view    *core.Result
	loading chan struct{}
	// hits counts in-situ traces since the last (re-)demotion; at
	// insituPromoteAfter the next trace promotes instead.
	hits int
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
		dormant:      map[string]*session{},
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

// recoverLocked rebuilds the dormant set from the store's manifest: every
// published session comes back as a dormant session whose results are
// demoted entries, promoted lazily on first access. Results the store had to
// drop because their segments predate the current format come back as
// tombstones, so they answer 410 (re-run the base query) like any other
// result lost across a restart, not 404. Runs at construction (before the
// registry is shared), so no lock is actually held.
func (r *registry) recoverLocked() {
	now := r.clock()
	recovered := func(sid string) *session {
		s := r.dormant[sid]
		if s == nil {
			s = &session{
				id: sid, last: now,
				results: map[string]*retainedResult{},
				demoted: map[string]*demotedResult{},
				gone:    newTombstones(tombstoneCap),
			}
			r.dormant[sid] = s
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
			s.demoted[name] = &demotedResult{bytes: bytes, last: now}
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
	for len(r.sessions) >= r.maxSessions {
		if !r.demoteLRUSessionLocked(now) {
			break
		}
	}
	r.nextID++
	s := &session{
		id:      fmt.Sprintf("s%08x", r.nextID),
		last:    now,
		results: map[string]*retainedResult{},
		demoted: map[string]*demotedResult{},
		gone:    newTombstones(tombstoneCap),
	}
	r.sessions[s.id] = s
	if r.store != nil {
		r.store.SetNextSessionID(r.nextID)
	}
	return s
}

// sessionLocked resolves a live or dormant session, reviving dormant ones
// (their demoted results stay demoted until individually promoted).
func (r *registry) sessionLocked(id string, now time.Time) (*session, error) {
	if s, ok := r.sessions[id]; ok {
		s.last = now
		return s, nil
	}
	if s, ok := r.dormant[id]; ok {
		delete(r.dormant, id)
		for len(r.sessions) >= r.maxSessions {
			if !r.demoteLRUSessionLocked(now) {
				break
			}
		}
		s.last = now
		r.sessions[id] = s
		return s, nil
	}
	return nil, r.sessionMissingLocked(id)
}

// drop deletes a session explicitly (DELETE /v1/sessions/{id}): memory and
// disk tiers both, tombstoning the id.
func (r *registry) drop(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked(r.clock())
	s, ok := r.sessions[id]
	if !ok {
		s, ok = r.dormant[id]
	}
	if !ok {
		return r.sessionMissingLocked(id)
	}
	r.removeSessionLocked(s)
	return nil
}

// put retains res under name in session id, demoting as needed to stay
// within the byte budget and per-session cap, and hands the result to the
// flusher eagerly (write-behind): once the queue drains, a hard crash loses
// nothing retained.
func (r *registry) put(id, name string, res *core.Result) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.clock()
	r.sweepLocked(now)
	s, err := r.sessionLocked(id, now)
	if err != nil {
		return err
	}
	if old, ok := s.results[name]; ok {
		r.cancelPendingLocked(old)
		r.releaseRefLocked(old.res)
		delete(s.results, name)
	}
	// A stale disk copy under this name describes the *previous* result; the
	// name now binds to a new one. The queued delete runs before the new
	// put's write (FIFO), so the manifest converges on the new content.
	r.deleteDemotedLocked(s, name)
	rr := &retainedResult{res: res, last: now}
	s.results[name] = rr
	s.gone.remove(name) // a re-created name is live again
	r.retainRefLocked(res)
	// Write-behind: a saturated queue just skips — the result persists at
	// demotion or the next flush instead.
	r.enqueuePutLocked(s, name, rr, false)
	for len(s.results) > r.maxPerSession {
		if !r.demoteLRUResultInLocked(s, rr, now) {
			break
		}
	}
	for r.maxBytes > 0 && r.retained-r.demotingBytes > r.maxBytes {
		if !r.demoteLRUResultLocked(rr, now) {
			break // only the just-inserted result remains; keep it
		}
	}
	return nil
}

// rememberSpec records the request that produced result name. Best-effort:
// a missing session just skips (the lazy tier then narrows back to 410).
func (r *registry) rememberSpec(id, name string, req wire.QueryRequest) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sessions[id]
	if !ok {
		return
	}
	if s.specs == nil {
		s.specs = map[string]wire.QueryRequest{}
	}
	// Bound the spec book well above the live-result cap (specs outlive the
	// results they describe — that is the point); evict arbitrarily past it.
	for cap := 4 * r.maxPerSession; len(s.specs) >= cap; {
		for k := range s.specs {
			delete(s.specs, k)
			break
		}
	}
	s.specs[name] = req
}

// spec returns the remembered producing request for result name, if any.
func (r *registry) spec(id, name string) (wire.QueryRequest, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sessions[id]
	if !ok {
		s, ok = r.dormant[id]
	}
	if !ok {
		return wire.QueryRequest{}, false
	}
	req, ok := s.specs[name]
	return req, ok
}

// cancelPendingLocked voids a pending flusher write for rr (overwritten or
// dropped): the ticket mismatch makes the flusher skip the job, and the
// demoting byte credit rolls back.
func (r *registry) cancelPendingLocked(rr *retainedResult) {
	if rr.flushSeq == 0 {
		return
	}
	rr.flushSeq = 0
	rr.dropOnFlush = false
	r.demotingBytes -= rr.countedBytes
	rr.countedBytes = 0
}

// enqueuePutLocked hands rr to the flusher. drop demotes (the memory copy is
// released when the write lands); otherwise it is write-behind and the
// result stays resident. A write already pending is reused, escalating to
// drop when asked. Reports whether a write is pending on return.
func (r *registry) enqueuePutLocked(s *session, name string, rr *retainedResult, drop bool) bool {
	if r.fl == nil || rr.onDisk {
		return false
	}
	now := r.clock()
	if rr.flushSeq != 0 {
		if drop && !rr.dropOnFlush {
			rr.dropOnFlush = true
			rr.demoteAt = now
			r.chargeDemotingLocked(rr)
		}
		return true
	}
	r.flushSeqGen++
	if !r.fl.enqueue(flushJob{op: opPut, sid: s.id, name: name, res: rr.res, seq: r.flushSeqGen}, false) {
		return false
	}
	rr.flushSeq = r.flushSeqGen
	if drop {
		rr.dropOnFlush = true
		rr.demoteAt = now
		r.chargeDemotingLocked(rr)
	}
	return true
}

// chargeDemotingLocked credits the byte budget with what this demotion will
// free when its write lands (nothing when the Result is shared).
func (r *registry) chargeDemotingLocked(rr *retainedResult) {
	if rr.countedBytes != 0 {
		return
	}
	if e := r.refs[rr.res]; e != nil && e.n == 1 {
		rr.countedBytes = e.bytes
		r.demotingBytes += e.bytes
	}
}

// demoteLRUResultInLocked demotes the least-recently-used retained result
// within one session (the per-session name cap), never the just-inserted
// keep or a result already demoting.
func (r *registry) demoteLRUResultInLocked(s *session, keep *retainedResult, now time.Time) bool {
	var (
		lruName string
		lruRes  *retainedResult
	)
	for name, rr := range s.results {
		if rr == keep || rr.dropOnFlush {
			continue
		}
		if lruRes == nil || rr.last.Before(lruRes.last) {
			lruName, lruRes = name, rr
		}
	}
	if lruRes == nil {
		return false
	}
	return r.demoteLocked(s, lruName, lruRes, now)
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
// direction, the traced table, and the explicit seeds (nil when the trace is
// predicate-seeded).
type traceHint struct {
	backward bool
	table    string
	seeds    []lineage.Rid
}

// get returns the named retained result, refreshing the LRU clocks.
// Demoted-only results are promoted: the segment maps in off-lock and the
// restored result re-enters the memory tier.
func (r *registry) get(id, name string) (*core.Result, error) {
	return r.acquire(id, name, nil)
}

// getForTrace resolves a result for one bound trace. Memory-resident results
// serve directly. For a demoted result the registry first materializes the
// segment-backed view, then routes: backward traces with explicit seeds
// whose encoded rid lists span a small fraction of the restore bytes answer
// in situ off the view — promotion-free — while big traces, forward traces,
// predicate seeds, unknown costs, and the insituPromoteAfter-th repeat
// promote and stay hot.
func (r *registry) getForTrace(id, name string, h traceHint) (*core.Result, error) {
	return r.acquire(id, name, &h)
}

// acquire is the common resolution loop for get/getForTrace. It may release
// the registry lock to load a segment (ensureViewLocked) or to wait for a
// concurrent loader, then re-resolves from scratch — the world can change
// while unlocked.
func (r *registry) acquire(id, name string, h *traceHint) (*core.Result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		now := r.clock()
		r.sweepLocked(now)
		s, err := r.sessionLocked(id, now)
		if err != nil {
			return nil, err
		}
		if rr, ok := s.results[name]; ok {
			// Memory hit — including results mid-demotion: the still-resident
			// copy serves, and the freshened LRU clock keeps it resident when
			// the pending write lands (the write then just bought durability).
			rr.last = now
			if dr, ok := s.demoted[name]; ok {
				dr.last = now
			}
			return rr.res, nil
		}
		dr, ok := s.demoted[name]
		if !ok {
			if s.gone.has(name) {
				return nil, serr.New(serr.Gone,
					"server: result %q was evicted from session %s; re-run the base query", name, id)
			}
			return nil, serr.New(serr.NotFound, "server: session %s has no result %q", id, name)
		}
		if dr.loading != nil {
			w := dr.loading
			r.mu.Unlock()
			<-w
			r.mu.Lock()
			continue
		}
		if dr.view == nil {
			if err := r.ensureViewLocked(s, name, dr); err != nil {
				return nil, err
			}
			continue
		}
		dr.last = now
		if h != nil && !r.shouldPromoteLocked(dr, *h) {
			dr.hits++
			r.counters.insituTraces++
			return dr.view, nil
		}
		// Promotion is the full restore: from here the result serves every
		// kind of trace over all of its lists, so its chunk bytes — which
		// the lazily mapped view took on trust — are validated first.
		if err := dr.view.Capture().Validate(); err != nil {
			return nil, r.unrecoverableLocked(s, name, dr, err)
		}
		return r.promoteLocked(s, name, dr, now), nil
	}
}

// unrecoverableLocked makes a demoted result whose segment cannot be used
// gone — when the entry is still current — and returns the 410 the client
// sees.
func (r *registry) unrecoverableLocked(s *session, name string, dr *demotedResult, err error) error {
	if cur, ok := s.demoted[name]; ok && cur == dr {
		r.deleteDemotedLocked(s, name)
		s.gone.add(name)
	}
	return serr.New(serr.Gone,
		"server: result %q of session %s could not be recovered from disk (%v); re-run the base query",
		name, s.id, err)
}

// ensureViewLocked materializes dr's segment-backed view, releasing the
// registry lock for the segment load so concurrent sessions keep moving.
// Exactly one goroutine loads; waiters block on dr.loading. On return the
// lock is held again. A load failure makes the result gone (the segment is
// unrecoverable).
func (r *registry) ensureViewLocked(s *session, name string, dr *demotedResult) error {
	w := make(chan struct{})
	dr.loading = w
	r.mu.Unlock()
	ld, err := r.store.LoadResult(s.id, name)
	var view *core.Result
	if err == nil {
		view = core.RestoreView(r.db, ld.Out, ld.GroupCounts, ld.Capture, ld.Bases)
	}
	r.mu.Lock()
	dr.loading = nil
	close(w)
	if err != nil {
		return r.unrecoverableLocked(s, name, dr, err)
	}
	dr.view = view
	r.counters.views++
	return nil
}

// shouldPromoteLocked is the cost cutoff between answering a trace in situ
// off the view and promoting the whole result back into memory.
func (r *registry) shouldPromoteLocked(dr *demotedResult, h traceHint) bool {
	if dr.hits >= insituPromoteAfter {
		return true
	}
	if !h.backward || h.seeds == nil {
		return true // forward and predicate-seeded traces want the full result
	}
	trace, restore, ok := dr.view.TraceCost(h.table, h.seeds)
	if !ok {
		return true
	}
	return trace*insituCostFactor > restore
}

// promoteLocked installs the already-loaded view as a retained result. The
// disk copy stays current (re-demotion is then free), and the promotion
// charges the memory budget like any retention — possibly demoting colder
// results.
func (r *registry) promoteLocked(s *session, name string, dr *demotedResult, now time.Time) *core.Result {
	res := dr.view
	rr := &retainedResult{res: res, last: now, onDisk: true}
	s.results[name] = rr
	dr.last = now
	dr.hits = 0
	r.retainRefLocked(res)
	r.counters.promotes++
	for r.maxBytes > 0 && r.retained-r.demotingBytes > r.maxBytes {
		if !r.demoteLRUResultLocked(rr, now) {
			break
		}
	}
	return res
}

// stats snapshots both retention tiers and the disk-tier counters.
func (r *registry) stats() registryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked(r.clock())
	st := registryStats{retainedBytes: r.retained, diskBytes: r.diskBytes, c: r.counters}
	st.sessions = len(r.sessions) + len(r.dormant)
	for _, set := range []map[string]*session{r.sessions, r.dormant} {
		for _, s := range set {
			st.results += len(s.results)
			st.demoted += len(s.demoted)
		}
	}
	if r.fl != nil {
		st.queueDepth = r.fl.queueDepth()
	}
	return st
}

// sessionMissingLocked distinguishes an expired/evicted session (410) from
// one that never existed (404).
func (r *registry) sessionMissingLocked(id string) error {
	if r.goneSessions.has(id) {
		return serr.New(serr.Gone, "server: session %s expired or was evicted; open a new session", id)
	}
	return serr.New(serr.NotFound, "server: unknown session %s", id)
}

// sweepLocked demotes every session idle past the TTL. Dormant sessions are
// exempt: they already cost disk, not memory.
func (r *registry) sweepLocked(now time.Time) {
	if r.ttl <= 0 {
		return
	}
	for _, s := range r.sessions {
		if now.Sub(s.last) > r.ttl {
			r.demoteSessionLocked(s, now)
		}
	}
}

// demoteLRUSessionLocked demotes the least-recently-used live session.
func (r *registry) demoteLRUSessionLocked(now time.Time) bool {
	var lru *session
	for _, s := range r.sessions {
		if lru == nil || s.last.Before(lru.last) {
			lru = s
		}
	}
	if lru == nil {
		return false
	}
	return r.demoteSessionLocked(lru, now)
}

// demoteLRUResultLocked demotes the least-recently-used retained result
// whose release actually frees memory (sole reference — demoting one of
// several references to a cache-shared Result would cost a client its
// memory residency without freeing a byte), never the just-inserted keep or
// a result already on its way out. It reports whether anything was demoted;
// false also means the byte budget cannot shrink further right now.
func (r *registry) demoteLRUResultLocked(keep *retainedResult, now time.Time) bool {
	var (
		lruSess *session
		lruName string
		lruRes  *retainedResult
	)
	for _, s := range r.sessions {
		for name, rr := range s.results {
			if rr == keep || rr.dropOnFlush {
				continue
			}
			if e := r.refs[rr.res]; e != nil && e.n > 1 {
				continue // shared with other retentions: freeing this frees nothing
			}
			if lruRes == nil || rr.last.Before(lruRes.last) {
				lruSess, lruName, lruRes = s, name, rr
			}
		}
	}
	if lruRes == nil {
		return false
	}
	return r.demoteLocked(lruSess, lruName, lruRes, now)
}

// demoteLocked moves one retained result out of the memory tier. With no
// store it degrades to gone immediately. With a current disk copy the
// demotion is free: memory drops now. Otherwise the result enters the
// demoting state — the segment write queues on the flusher and the memory
// copy is released only when it lands (a get meanwhile serves the resident
// copy and keeps it hot). Reports whether the demotion made, or queued,
// progress; false means the flusher is saturated and the result stays.
func (r *registry) demoteLocked(s *session, name string, rr *retainedResult, now time.Time) bool {
	if r.store == nil {
		r.releaseRefLocked(rr.res)
		delete(s.results, name)
		s.gone.add(name)
		r.counters.demotes++
		return true
	}
	if rr.onDisk {
		if dr, ok := s.demoted[name]; ok {
			r.cancelPendingLocked(rr)
			r.releaseRefLocked(rr.res)
			delete(s.results, name)
			dr.last = now
			dr.hits = 0 // re-demotion restarts the repeated-trace clock
			r.counters.demotes++
			return true
		}
		rr.onDisk = false // disk copy vanished (budget delete); rewrite
	}
	return r.enqueuePutLocked(s, name, rr, true)
}

// demoteSessionLocked demotes a whole live session. Results without a
// current disk copy enter the demoting state; the session parks in the
// dormant set while its pending writes and demoted entries live on. A
// session with a demotion the flusher could not accept stays live and
// retries on the next sweep. Reports whether the session left the live set.
func (r *registry) demoteSessionLocked(s *session, now time.Time) bool {
	stuck := false
	for name, rr := range s.results {
		if !r.demoteLocked(s, name, rr, now) {
			stuck = true
		}
	}
	if stuck {
		return false
	}
	delete(r.sessions, s.id)
	if r.store != nil && (len(s.demoted) > 0 || len(s.results) > 0) {
		r.dormant[s.id] = s
		return true
	}
	r.goneSessions.add(s.id)
	return true
}

// removeSessionLocked drops a session from every tier and tombstones its id.
// Pending writes are cancelled; the manifest delete queues behind them.
func (r *registry) removeSessionLocked(s *session) {
	for _, rr := range s.results {
		r.cancelPendingLocked(rr)
		r.releaseRefLocked(rr.res)
	}
	s.results = map[string]*retainedResult{}
	for name, dr := range s.demoted {
		r.diskBytes -= dr.bytes
		delete(s.demoted, name)
	}
	if r.fl != nil {
		if !r.fl.enqueue(flushJob{op: opDeleteSession, sid: s.id}, true) {
			r.counters.deleteErrors++
			r.logDiskErrLocked("queue delete of session %s failed (flusher stopped)", s.id)
		}
	}
	delete(r.sessions, s.id)
	delete(r.dormant, s.id)
	r.goneSessions.add(s.id)
}

// deleteDemotedLocked drops one demoted entry. The manifest delete runs on
// the flusher — FIFO behind any pending write of the same name, so a
// put-then-delete lands in order. A delete that cannot queue is logged once
// and counted (the entry is reclaimed as an orphan at the next Open).
func (r *registry) deleteDemotedLocked(s *session, name string) {
	dr, ok := s.demoted[name]
	if !ok {
		return
	}
	r.diskBytes -= dr.bytes
	delete(s.demoted, name)
	if r.fl != nil {
		if !r.fl.enqueue(flushJob{op: opDeleteResult, sid: s.id, name: name}, true) {
			r.counters.deleteErrors++
			r.logDiskErrLocked("queue delete of %s/%s failed (flusher stopped)", s.id, name)
		}
	}
}

// enforceDiskBudgetLocked deletes least-recently-used demoted results (the
// terminal gone tier) until the disk budget holds. Results currently
// promoted (memory copy live) are skipped — deleting their disk copy would
// only force a rewrite on the next demotion.
func (r *registry) enforceDiskBudgetLocked() {
	for r.maxDiskBytes > 0 && r.diskBytes > r.maxDiskBytes {
		var (
			lruSess *session
			lruName string
			lruDr   *demotedResult
		)
		scan := func(s *session) {
			for name, dr := range s.demoted {
				if _, live := s.results[name]; live {
					continue
				}
				if lruDr == nil || dr.last.Before(lruDr.last) {
					lruSess, lruName, lruDr = s, name, dr
				}
			}
		}
		for _, s := range r.sessions {
			scan(s)
		}
		for _, s := range r.dormant {
			scan(s)
		}
		if lruDr == nil {
			return
		}
		r.deleteDemotedLocked(lruSess, lruName)
		lruSess.gone.add(lruName)
		r.maybeRetireLocked(lruSess)
	}
}

// maybeRetireLocked tombstones a dormant session that has nothing left in
// any tier.
func (r *registry) maybeRetireLocked(s *session) {
	if len(s.results) == 0 && len(s.demoted) == 0 {
		if _, ok := r.dormant[s.id]; ok {
			delete(r.dormant, s.id)
			r.goneSessions.add(s.id)
		}
	}
}

// ---- flusher callbacks (run on the flusher goroutine) ----

// shouldFlush is the flusher's pre-write check: the job's ticket must still
// be current — a drop, overwrite, or session delete since enqueue voids it.
func (r *registry) shouldFlush(job flushJob) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sessions[job.sid]
	if !ok {
		s, ok = r.dormant[job.sid]
	}
	if !ok {
		return false
	}
	rr := s.results[job.name]
	return rr != nil && rr.flushSeq == job.seq
}

// onPutDone advances the state machine when a segment write finishes:
// demoting → disk (release the memory copy, unless it was touched since) or
// write-behind → durable-and-resident; a failed demotion write degrades to
// gone rather than pinning memory the budgets already reclaimed.
func (r *registry) onPutDone(job flushJob, bytes int64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sessions[job.sid]
	if !ok {
		s, ok = r.dormant[job.sid]
	}
	if !ok {
		// Session dropped while the write was in flight; the queued session
		// delete cleans the manifest entry back up.
		return
	}
	rr := s.results[job.name]
	if rr == nil || rr.flushSeq != job.seq {
		return // superseded: a newer put or a drop owns the name now
	}
	rr.flushSeq = 0
	r.demotingBytes -= rr.countedBytes
	rr.countedBytes = 0
	drop := rr.dropOnFlush
	rr.dropOnFlush = false
	if err != nil {
		r.counters.flushErrors++
		if r.flushErr == nil {
			r.flushErr = err
		}
		r.logDiskErrLocked("segment write for %s/%s failed: %v", job.sid, job.name, err)
		if drop {
			r.releaseRefLocked(rr.res)
			delete(s.results, job.name)
			s.gone.add(job.name)
			r.counters.demotes++
			r.maybeRetireLocked(s)
		}
		return
	}
	now := r.clock()
	r.deleteDemotedEntryOnlyLocked(s, job.name)
	s.demoted[job.name] = &demotedResult{bytes: bytes, last: now}
	r.diskBytes += bytes
	rr.onDisk = true
	if drop && !rr.last.After(rr.demoteAt) {
		r.releaseRefLocked(rr.res)
		delete(s.results, job.name)
		r.counters.demotes++
	} else {
		// Referenced since the demotion queued (or plain write-behind): the
		// result stays hot; the write still bought durability.
		r.counters.writeBehind++
	}
	r.enforceDiskBudgetLocked()
	r.maybeRetireLocked(s)
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
	if r.flushErr == nil {
		r.flushErr = err
	}
	r.logDiskErrLocked("manifest publish failed: %v", err)
}

// logDiskErrLocked reports the first disk-tier failure to the process log —
// once, so a dying disk cannot flood it — while every occurrence stays
// counted in the stats surface.
func (r *registry) logDiskErrLocked(format string, args ...any) {
	if r.diskErrLogged {
		return
	}
	r.diskErrLogged = true
	log.Printf("server: disk tier degraded (further errors counted, not logged): "+format, args...)
}

// flush persists every not-yet-durable retained result and publishes the
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
	for _, set := range []map[string]*session{r.sessions, r.dormant} {
		for _, s := range set {
			for name, rr := range s.results {
				if rr.onDisk || rr.flushSeq != 0 {
					continue
				}
				r.flushSeqGen++
				if r.fl.enqueue(flushJob{op: opPut, sid: s.id, name: name, res: rr.res, seq: r.flushSeqGen}, true) {
					rr.flushSeq = r.flushSeqGen
				}
			}
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

// deleteDemotedEntryOnlyLocked forgets a demoted entry's bookkeeping without
// touching the store (the caller just replaced the manifest entry).
func (r *registry) deleteDemotedEntryOnlyLocked(s *session, name string) {
	if dr, ok := s.demoted[name]; ok {
		r.diskBytes -= dr.bytes
		delete(s.demoted, name)
	}
}
