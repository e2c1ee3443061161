// Package server is smoked's HTTP layer: a JSON API over the engine facade
// (internal/core) that serves concurrent clients from one shared DB. It
// exposes table ingest (CSV/JSON), SQL execution (including LINEAGE
// BACKWARD/FORWARD sources and EXPLAIN), and a session-scoped result
// registry — a client runs a base query once with capture, the server
// retains the Result under a name, and every subsequent interaction is a
// bound backward/forward trace against the retained capture. That is the
// paper's interactive loop (§2.1: capture once, trace per interaction) over
// the wire.
//
// Concurrency: request handlers run on Go's per-connection goroutines; query
// execution shares the DB's morsel worker pool, which schedules fairly
// across in-flight requests (internal/pool). A bounded admission gate caps
// concurrent executions and queue depth — beyond it clients get 429
// immediately. Retained captures are memory, so the session registry bounds
// them with LRU eviction and a TTL; with a disk store (Config.Store)
// eviction demotes results to mmap-backed segments and promotes them back
// on access, so only disk-budget pressure (or an explicit DELETE) makes a
// result answer 410 Gone and force the client to re-run its base query. A
// plan-fingerprint result cache short-circuits repeated identical queries
// (crossfilter re-brushing).
//
// The JSON bodies are internal/wire's. Error mapping is deterministic: every
// engine error is a structured serr.E, and its Kind maps to the status code
// (wire.StatusOf: Invalid→400, NotFound→404, Gone→410, Unsupported→422,
// Busy→429, Unavailable→503, anything else→500).
package server

import (
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"smoke/internal/core"
	"smoke/internal/diskstore"
	"smoke/internal/expr"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/serr"
	"smoke/internal/sql"
	"smoke/internal/storage"
	"smoke/internal/wire"
)

// Config sizes a Server. Zero fields take the documented defaults.
type Config struct {
	// DB is the shared database (required). Open it with WithWorkers(n) to
	// run request queries morsel-parallel on a fair-shared pool.
	DB *core.DB
	// MaxInFlight caps concurrently executing requests (default
	// 2×GOMAXPROCS).
	MaxInFlight int
	// MaxQueued caps requests waiting for an execution slot (default
	// 4×MaxInFlight); beyond it requests fail fast with 429.
	MaxQueued int
	// SessionTTL evicts sessions idle longer than this (default 15m).
	SessionTTL time.Duration
	// MaxSessions bounds live sessions; LRU-evicted past it (default 64).
	MaxSessions int
	// MaxResultsPerSession bounds named results per session (default 32).
	MaxResultsPerSession int
	// MaxRetainedBytes bounds the summed MemBytes of retained results across
	// all sessions (default 512 MiB); the globally least-recently-used
	// result is evicted past it.
	MaxRetainedBytes int64
	// CacheEntries bounds the plan-fingerprint result cache (default 256;
	// 0 keeps the default, negative disables caching).
	CacheEntries int
	// CacheBytes bounds the summed Result.MemBytes pinned by the cache
	// (default 256 MiB) — the cache holds whole Results, so an entry count
	// alone would let distinct large queries pin unbounded memory.
	CacheBytes int64
	// Store is the optional disk tier (cmd/smoked -data-dir). With a store,
	// registry eviction demotes retained results to mmap-backed segments
	// instead of discarding them, ingested tables are written through, and
	// New recovers tables and demoted sessions from the store's manifest so
	// sessions survive a restart. Nil keeps the memory-only behavior.
	Store *diskstore.Store
	// MaxDiskBytes bounds the summed segment bytes of demoted results
	// (default 4 GiB when Store is set; negative disables the bound). Past
	// it the globally least-recently-used demoted result is deleted — the
	// terminal "gone" tier.
	MaxDiskBytes int64
	// Clock overrides time.Now (TTL tests).
	Clock func() time.Time
}

// Server handles the smoked HTTP API. Create with New; it implements
// http.Handler.
type Server struct {
	db       *core.DB
	store    *diskstore.Store // nil: memory-only retention
	gate     *gate
	sessions *registry
	cache    *resultCache
	mux      *http.ServeMux

	// Strategy observability (/healthz): traces answered by plan
	// re-execution, traces against hybrid-strategy results, and evicted
	// results rebuilt through the lazy retention tier instead of 410.
	lazyTraces    atomic.Uint64
	hybridTraces  atomic.Uint64
	lazyFallbacks atomic.Uint64
	// scatterTraces counts traces computed by the forward-scatter rewrite:
	// a sibling result's forward index answered them, no hash table.
	scatterTraces atomic.Uint64
}

// New returns a Server over cfg.DB.
func New(cfg Config) *Server {
	if cfg.DB == nil {
		panic("server: Config.DB is required")
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueued <= 0 {
		cfg.MaxQueued = 4 * cfg.MaxInFlight
	}
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = 15 * time.Minute
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 64
	}
	if cfg.MaxResultsPerSession <= 0 {
		cfg.MaxResultsPerSession = 32
	}
	if cfg.MaxRetainedBytes == 0 {
		cfg.MaxRetainedBytes = 512 << 20
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 256
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 256 << 20
	}
	if cfg.MaxDiskBytes == 0 {
		cfg.MaxDiskBytes = 4 << 30
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Store != nil {
		// Recover persisted tables before the registry builds its dormant
		// set: promoted results re-bind forward traces against these.
		for name, pk := range cfg.Store.Tables() {
			rel, err := cfg.Store.LoadTable(name)
			if err != nil {
				continue // unreadable segment: the table re-ingests
			}
			cfg.DB.Register(rel)
			if pk != "" {
				cfg.DB.Catalog().SetPrimaryKey(name, pk)
			}
		}
	}
	// Hand the registry a plain nil, not a typed-nil *diskstore.Store boxed
	// in the interface — the registry gates the disk tier on store != nil.
	var rs resultStore
	if cfg.Store != nil {
		rs = cfg.Store
	}
	s := &Server{
		db:    cfg.DB,
		store: cfg.Store,
		gate:  newGate(cfg.MaxInFlight, cfg.MaxQueued),
		sessions: newRegistry(cfg.DB, rs, cfg.Clock, cfg.SessionTTL, cfg.MaxSessions,
			cfg.MaxResultsPerSession, cfg.MaxRetainedBytes, cfg.MaxDiskBytes),
	}
	if cfg.CacheEntries > 0 {
		s.cache = newResultCache(cfg.CacheEntries, cfg.CacheBytes)
	}
	s.mux = s.routes()
	return s
}

// Close flushes retained session state to the disk tier (when one is
// configured), publishes the manifest, and stops the background flusher —
// the graceful-shutdown half of crash safety. Drain the HTTP listener first
// (http.Server.Shutdown); Close does not fence concurrent requests. It does
// not close the store itself: the owner that opened it closes it.
func (s *Server) Close() error {
	return s.sessions.close()
}

func (s *Server) routes() *http.ServeMux {
	return wire.NewMux(map[string]http.HandlerFunc{
		"GET /healthz":                                s.handleHealth,
		"GET /v1/tables":                              s.handleListTables,
		"GET /v1/tables/{name}":                       s.handleGetTable,
		"POST /v1/tables/{name}":                      s.handleIngest,
		"POST /v1/query":                              s.handleQuery,
		"POST /v1/sessions":                           s.handleNewSession,
		"DELETE /v1/sessions/{id}":                    s.handleDropSession,
		"POST /v1/sessions/{id}/results/{name}":       s.handleRunResult,
		"GET /v1/sessions/{id}/results/{name}":        s.handleGetResult,
		"POST /v1/sessions/{id}/results/{name}/trace": s.handleTrace,
	})
}

// ServeHTTP dispatches with panic containment: a handler panic answers 500
// instead of killing the connection goroutine silently.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			wire.WriteError(w, serr.New(serr.Internal, "server: internal panic: %v", rec))
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// Body size caps. MaxBytesReader (not a bare LimitReader) enforces them: an
// over-limit body is a client error, never a silent truncation that could
// register a partial table with 200.
const (
	maxJSONBody   = 64 << 20
	maxIngestBody = 256 << 20
)

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.sessions.stats()
	body := map[string]any{
		"ok":             true,
		"tables":         len(s.db.Catalog().Names()),
		"sessions":       st.sessions,
		"results":        st.results,
		"retained_bytes": st.retainedBytes,
		"workers":        s.db.Workers(),
		"lazy_traces":    s.lazyTraces.Load(),
		"hybrid_traces":  s.hybridTraces.Load(),
		"lazy_fallbacks": s.lazyFallbacks.Load(),
		"scatter_traces": s.scatterTraces.Load(),
	}
	if s.store != nil {
		body["demoted_results"] = st.demoted
		body["disk_bytes"] = st.diskBytes
		body["data_dir"] = s.store.Dir()
		body["flusher_queue_depth"] = st.queueDepth
		body["demotes"] = st.c.demotes
		body["promotes"] = st.c.promotes
		body["views"] = st.c.views
		body["insitu_traces"] = st.c.insituTraces
		body["write_behind"] = st.c.writeBehind
		body["flush_errors"] = st.c.flushErrors
		body["delete_errors"] = st.c.deleteErrors
		body["publish_errors"] = st.c.publishErrors
	}
	wire.WriteJSON(w, http.StatusOK, body)
}

func (s *Server) handleListTables(w http.ResponseWriter, r *http.Request) {
	type tbl struct {
		Name   string       `json:"name"`
		Rows   int          `json:"rows"`
		Schema []wire.Field `json:"schema"`
	}
	var out []tbl
	for _, name := range s.db.Catalog().Names() {
		rel, err := s.db.Table(name)
		if err != nil {
			continue // raced a re-registration; skip
		}
		out = append(out, tbl{Name: name, Rows: rel.N, Schema: wire.Fields(rel.Schema)})
	}
	wire.WriteJSON(w, http.StatusOK, map[string]any{"tables": out})
}

func (s *Server) handleGetTable(w http.ResponseWriter, r *http.Request) {
	rel, err := s.db.Table(r.PathValue("name"))
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]any{"name": rel.Name, "rows": rel.N, "schema": wire.Fields(rel.Schema)})
}

// handleIngest registers (or replaces) a table from a CSV or JSON body.
// CSV: header record + ?types=int,float,... (or sniffed); JSON: explicit
// schema + rows. ?pk=col (or the JSON "pk" field) declares the primary key.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == "" {
		wire.WriteError(w, serr.New(serr.Invalid, "server: table name is empty"))
		return
	}
	ct := r.Header.Get("Content-Type")
	pk := r.URL.Query().Get("pk")
	var (
		rel *storage.Relation
		err error
	)
	if strings.HasPrefix(ct, "text/csv") {
		rel, err = ParseTableCSV(name, http.MaxBytesReader(w, r.Body, maxIngestBody), r.URL.Query().Get("types"))
	} else {
		var body wire.Table
		if err := wire.DecodeRequest(http.MaxBytesReader(w, r.Body, maxJSONBody), &body); err != nil {
			wire.WriteError(w, err)
			return
		}
		if body.PK != "" {
			pk = body.PK
		}
		rel, err = body.Relation(name)
	}
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	if pk != "" {
		if err := VerifyPK(rel, pk); err != nil {
			wire.WriteError(w, err)
			return
		}
	}
	if s.store != nil {
		// Write-through before registering: on a persist failure the catalog
		// and the manifest still agree (the old version, if any, stays live
		// in both), and the client knows to retry.
		if err := s.store.PutTable(rel, pk); err != nil {
			wire.WriteError(w, serr.New(serr.Internal, "server: persist table %q: %v", name, err))
			return
		}
	}
	s.db.Register(rel)
	s.sessions.forgetSpecs(name)
	if pk != "" {
		s.db.Catalog().SetPrimaryKey(name, pk)
	}
	wire.WriteJSON(w, http.StatusOK, map[string]any{"name": name, "rows": rel.N})
}

// runSQL parses, compiles, and executes one statement with the
// plan-fingerprint cache in front. EXPLAIN statements render the optimizer
// trace instead of executing.
func (s *Server) runSQL(req wire.QueryRequest, defMode ops.CaptureMode) (*core.Result, wire.Result, error) {
	if strings.TrimSpace(req.SQL) == "" {
		return nil, wire.Result{}, serr.New(serr.Invalid, "server: request has no sql")
	}
	st, err := sql.Parse(req.SQL)
	if err != nil {
		return nil, wire.Result{}, err
	}
	if st.Explain {
		text, err := sql.ExplainStmt(s.db, st)
		if err != nil {
			return nil, wire.Result{}, err
		}
		return nil, wire.Result{Explain: text}, nil
	}
	strat, err := core.ParseStrategy(req.Strategy)
	if err != nil {
		return nil, wire.Result{}, err
	}
	if strat == core.StrategyLazy {
		// Lazy is capture-free by definition; an unset capture must not fall
		// back to a capturing default and trip the conflict validation.
		defMode = ops.None
	}
	mode, err := wire.ParseCaptureMode(req.Capture, defMode)
	if err != nil {
		return nil, wire.Result{}, err
	}
	params, err := wire.Params(req.Params)
	if err != nil {
		return nil, wire.Result{}, err
	}
	q, err := sql.CompileStmt(s.db, st)
	if err != nil {
		return nil, wire.Result{}, err
	}
	opts := core.CaptureOptions{Mode: mode, Compress: req.Compress, Params: params, Strategy: strat}
	res, out, err := s.runCached(q, opts)
	if err != nil {
		return nil, wire.Result{}, err
	}
	if strat != core.StrategyDefault && res != nil {
		out.StrategyUsed = res.Strategy().String()
	}
	return res, out, nil
}

// runCached executes q through the fingerprint cache.
func (s *Server) runCached(q *core.Query, opts core.CaptureOptions) (*core.Result, wire.Result, error) {
	var key string
	if s.cache != nil {
		if fp, err := q.Fingerprint(); err == nil {
			key = cacheKey(fp, opts)
			if res, ok := s.cache.get(key); ok {
				out := wire.Rows(res.Out)
				out.GroupCounts = res.GroupCounts
				out.Cached = true
				return res, out, nil
			}
		}
	}
	res, err := q.Run(opts)
	if err != nil {
		return nil, wire.Result{}, err
	}
	s.cache.put(key, res)
	out := wire.Rows(res.Out)
	out.GroupCounts = res.GroupCounts
	return res, out, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req wire.QueryRequest
	if err := wire.DecodeRequest(http.MaxBytesReader(w, r.Body, maxJSONBody), &req); err != nil {
		wire.WriteError(w, err)
		return
	}
	if err := s.gate.enter(r.Context()); err != nil {
		wire.WriteError(w, err)
		return
	}
	defer s.gate.exit()
	_, out, err := s.runSQL(req, ops.None)
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	wire.WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleNewSession(w http.ResponseWriter, r *http.Request) {
	sess := s.sessions.create()
	wire.WriteJSON(w, http.StatusCreated, map[string]any{
		"id":          sess.id,
		"ttl_seconds": int(s.sessions.ttl / time.Second),
	})
}

func (s *Server) handleDropSession(w http.ResponseWriter, r *http.Request) {
	if err := s.sessions.drop(r.PathValue("id")); err != nil {
		wire.WriteError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleRunResult executes a statement and retains the Result under
// /v1/sessions/{id}/results/{name} for later bound traces.
func (s *Server) handleRunResult(w http.ResponseWriter, r *http.Request) {
	id, name := r.PathValue("id"), r.PathValue("name")
	var req wire.QueryRequest
	if err := wire.DecodeRequest(http.MaxBytesReader(w, r.Body, maxJSONBody), &req); err != nil {
		wire.WriteError(w, err)
		return
	}
	// Retention exists to serve later traces. Without a lazy-capable
	// strategy those need a capture, so an explicit capture:"none" would
	// only fail later — at trace time, as a confusing lineage error — and is
	// rejected up front as a structured 400. With strategy "lazy" (or
	// "auto", which may resolve to lazy) a capture-free retained result is
	// exactly the point: its traces re-execute the stored plan.
	strat, err := core.ParseStrategy(req.Strategy)
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	lazyCapable := strat == core.StrategyLazy || strat == core.StrategyAuto
	defMode := ops.Inject
	if strat == core.StrategyLazy {
		defMode = ops.None
	}
	if mode, err := wire.ParseCaptureMode(req.Capture, defMode); err != nil {
		wire.WriteError(w, err)
		return
	} else if mode == ops.None && !lazyCapable {
		wire.WriteError(w, serr.New(serr.Invalid,
			"server: retained results need a capture; use \"inject\" or \"defer\" (or omit capture), or set \"strategy\":\"lazy\" for capture-free retention"))
		return
	}
	// Probe the session before paying for execution; put re-checks after
	// the run, covering a mid-query expiry.
	if err := s.sessions.touch(id); err != nil {
		wire.WriteError(w, err)
		return
	}
	if err := s.gate.enter(r.Context()); err != nil {
		wire.WriteError(w, err)
		return
	}
	defer s.gate.exit()
	res, out, err := s.runSQL(req, defMode)
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	if res == nil {
		wire.WriteError(w, serr.New(serr.Invalid, "server: EXPLAIN statements cannot be retained"))
		return
	}
	// The producing request rides along: it answers traces the retained
	// capture cannot (the lazy retention tier).
	if err := s.sessions.put(id, name, res, &req); err != nil {
		wire.WriteError(w, err)
		return
	}
	out.Retained = name
	wire.WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetResult(w http.ResponseWriter, r *http.Request) {
	res, err := s.sessions.get(r.PathValue("id"), r.PathValue("name"))
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	wire.WriteJSON(w, http.StatusOK, wire.Rows(res.Out))
}

// traceHintOf projects a trace request onto the registry's routing hint.
// Seeds pass through unvalidated: the registry's cost probe bounds-checks
// them itself (out-of-range falls back to promotion, where runTrace turns
// the bad seed into a 400), and nil seeds mean predicate-seeded.
func traceHintOf(req wire.TraceRequest) *traceHint {
	h := &traceHint{
		backward: strings.EqualFold(req.Direction, "backward"),
		table:    req.Table,
		lazy:     strings.EqualFold(req.Strategy, "lazy"),
	}
	if req.Rids != nil {
		h.seeds = make([]lineage.Rid, len(req.Rids))
		for i, v := range req.Rids {
			h.seeds[i] = lineage.Rid(v)
		}
	}
	return h
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id, name := r.PathValue("id"), r.PathValue("name")
	var req wire.TraceRequest
	if err := wire.DecodeRequest(http.MaxBytesReader(w, r.Body, maxJSONBody), &req); err != nil {
		wire.WriteError(w, err)
		return
	}
	res, sp, err := s.sessions.resolve(id, name, traceHintOf(req))
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	if err := s.gate.enter(r.Context()); err != nil {
		wire.WriteError(w, err)
		return
	}
	defer s.gate.exit()
	if res == nil {
		// The lazy tier answers: re-derive the result capture-free from its
		// producing request, and trace that.
		lazy := sp.req
		lazy.Strategy, lazy.Capture = "lazy", ""
		if res, _, err = s.runSQL(lazy, ops.None); err == nil {
			err = s.sessions.adopt(id, name, sp, res)
		}
		if err != nil {
			wire.WriteError(w, err)
			return
		}
		s.lazyFallbacks.Add(1)
	}
	out, err := s.runTrace(id, res, req)
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	wire.WriteJSON(w, http.StatusOK, out)
}

// runTrace builds and executes the bound trace query described by req.
func (s *Server) runTrace(sessionID string, res *core.Result, req wire.TraceRequest) (wire.Result, error) {
	backward, err := req.Validate()
	if err != nil {
		return wire.Result{}, err
	}

	// Validate explicit seeds against the addressed space so a bad seed is a
	// 400, not an index-out-of-range panic deep in a kernel.
	var rids []lineage.Rid
	if req.Rids != nil {
		limit := res.Out.N // backward seeds address the result's output rows
		space := "result output rows"
		if !backward {
			// Forward seeds address the capture-time base relation — not the
			// current catalog entry, which may have been re-ingested since.
			rel := res.BaseRelation(req.Table)
			if rel == nil {
				return wire.Result{}, serr.New(serr.NotFound,
					"server: result has no captured base relation %q", req.Table)
			}
			limit, space = rel.N, "base rows of "+req.Table
		}
		rids = make([]lineage.Rid, len(req.Rids))
		for i, v := range req.Rids {
			if v < 0 || v >= int64(limit) {
				return wire.Result{}, serr.New(serr.Invalid,
					"server: seed rid %d out of range [0,%d) for %s", v, limit, space)
			}
			rids[i] = lineage.Rid(v)
		}
	}

	forced, err := core.ParseStrategy(req.Strategy)
	if err != nil {
		return wire.Result{}, err
	}
	dir := core.TraceForward
	if backward {
		dir = core.TraceBackward
	}
	var seed core.Seed
	switch {
	case rids != nil:
		seed = core.Rids(rids...)
	case req.SeedWhere != "":
		pred, err := parseOptionalExpr(req.SeedWhere)
		if err != nil {
			return wire.Result{}, err
		}
		seed = core.Where(pred)
	}
	q := s.db.Query().Trace(res, dir, req.Table, seed)
	if forced != core.StrategyDefault {
		// TraceWith rejects "hybrid" (a capture-time split, not a trace
		// path) and forced-but-unavailable paths with structured Invalid.
		q = q.TraceWith(forced)
	}
	// The path that will answer: the result's own routing unless forced.
	path := res.TraceStrategy(req.Table, dir)
	if forced == core.StrategyEager || forced == core.StrategyLazy {
		path = forced
	}
	if q, err = Consume(q, req); err != nil {
		return wire.Result{}, err
	}

	defMode := ops.None
	if req.Retain != "" {
		defMode = ops.Inject // retained consuming results need a capture
	}
	mode, err := wire.ParseCaptureMode(req.Capture, defMode)
	if err != nil {
		return wire.Result{}, err
	}
	if req.Retain != "" && mode == ops.None {
		return wire.Result{}, serr.New(serr.Invalid,
			"server: retaining a trace result needs a capture; use \"inject\" or \"defer\" (or omit capture)")
	}
	params, err := wire.Params(req.Params)
	if err != nil {
		return wire.Result{}, err
	}
	if mode == ops.None && len(req.GroupBy) > 0 {
		// The session's other results in memory may answer a consuming
		// COUNT through a forward index (the BT+FT rewrite).
		q = q.Siblings(s.sessions.residents(sessionID))
	}
	traced, out, err := s.runCached(q, core.CaptureOptions{Mode: mode, Compress: req.Compress, Params: params})
	if err != nil {
		return wire.Result{}, err
	}
	if !out.Cached && traced.ScatteredFrom() != "" {
		s.scatterTraces.Add(1)
	}
	if path == core.StrategyLazy {
		s.lazyTraces.Add(1)
	}
	if res.Strategy() == core.StrategyHybrid {
		s.hybridTraces.Add(1)
	}
	if path == core.StrategyEager || path == core.StrategyLazy {
		out.StrategyUsed = path.String()
	}
	if req.Retain != "" {
		if err := s.sessions.put(sessionID, req.Retain, traced, nil); err != nil {
			return wire.Result{}, err
		}
		out.Retained = req.Retain
	}
	return out, nil
}

// Consume builds a trace request's consuming query on top of the trace
// query q: the filter over the traced rows, then the group-by and its
// aggregates. The scatter/gather coordinator builds the traces it answers
// itself through this same function.
func Consume(q *core.Query, req wire.TraceRequest) (*core.Query, error) {
	if req.Where != "" {
		pred, err := sql.ParseExpr(req.Where)
		if err != nil {
			return nil, err
		}
		q = q.Where(pred)
	}
	if len(req.GroupBy) > 0 {
		q = q.GroupBy(req.GroupBy...)
	}
	for i, a := range req.Aggs {
		fn, err := wire.ParseAggFn(a.Fn)
		if err != nil {
			return nil, err
		}
		var arg expr.Expr
		if a.Arg != "" {
			arg, err = sql.ParseScalarExpr(a.Arg)
			if err != nil {
				return nil, err
			}
		}
		aname := a.Name
		if aname == "" {
			aname = fmt.Sprintf("%s_%d", fn, i)
		}
		q = q.Agg(fn, arg, aname)
	}
	return q, nil
}

// parseOptionalExpr parses a predicate string; empty means nil (trace all).
func parseOptionalExpr(src string) (expr.Expr, error) {
	if strings.TrimSpace(src) == "" {
		return nil, nil
	}
	return sql.ParseExpr(src)
}
