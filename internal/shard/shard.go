// Package shard is smoked's horizontal scale-out tier: a coordinator that
// partitions relations by rid range across N in-process shard nodes — each a
// full engine behind the standard server handler stack — and speaks the
// unchanged smoked HTTP API by scattering requests and gathering the partial
// replies. Clients cannot tell a coordinator from a single node except
// through /healthz, which additionally reports per-shard counters.
//
// Placement: a table ingested with ?dist=shard is split into contiguous rid
// ranges, one per shard (global rid = shard range start + shard-local rid);
// ?dist=replicate (the default) registers a full copy on every shard.
// Queries over replicated tables only run on exactly one shard — the
// session's "home", chosen by a consistent-hash ring over the session id so
// a session's retained captures and its later traces land on the same node.
// Queries that read the sharded table scatter to every shard and gather:
//
//   - group-by results merge two-phase (COUNT/SUM add, MIN/MAX fold, AVG
//     reweights by the partial group sizes carried in group_counts), with
//     output slots assigned on first appearance scanning shards in shard
//     order — the same partition-major discovery order the morsel merge
//     (internal/lineage/merge.go) proves equal to serial order, which is
//     what makes the gathered result element-identical to a single node's;
//   - bound backward/forward traces translate between global and shard-local
//     rids at the coordinator (seed validation happens against the global
//     spaces, so a seed that is out of range for one shard's slice but valid
//     globally is never a 400) and concatenate the per-shard rid-ordered
//     partials seed-major, shard-minor — again the serial append order.
//
// Failure handling is structured, never silent: every shard call carries the
// coordinator's deadline, a shard that is down or does not answer in time
// surfaces as a 503 (serr.Unavailable) naming the shard, and a failed wave
// is cancelled — the coordinator never serves a partial gather and never
// hangs on a wedged shard.
package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smoke/internal/core"
	"smoke/internal/plan"
	"smoke/internal/serr"
	"smoke/internal/server"
	"smoke/internal/storage"
	"smoke/internal/wire"
)

// Config sizes a Coordinator. Zero fields take the documented defaults.
type Config struct {
	// Shards is the shard-node count (required, >= 1).
	Shards int
	// Workers is each shard's morsel worker-pool size (default 1).
	Workers int
	// ShardTimeout bounds every per-shard call; past it the request answers
	// 503 instead of hanging (default 5s).
	ShardTimeout time.Duration
	// MaxInFlight caps concurrently executing coordinator requests; beyond
	// it requests fail fast with 429 (default 4×GOMAXPROCS).
	MaxInFlight int
	// SessionTTL passes through to every shard's session registry.
	SessionTTL time.Duration
}

// Coordinator implements http.Handler over N shard nodes.
type Coordinator struct {
	nodes   []*node
	ring    *ring
	timeout time.Duration
	gate    chan struct{}
	mux     *http.ServeMux

	mu       sync.RWMutex
	tables   map[string]*table
	sessions map[string]*session
	sessSeq  atomic.Uint64
	// cat is the coordinator's catalog over the GLOBAL relations (the same
	// pointers tables holds, zero-copy), which statements lower and traces
	// run over. It never runs a shard's work; it runs on one worker.
	cat *core.DB

	// Coordinator counters (/healthz): scatter waves issued, single-shard
	// proxies, merged grouped queries, merged bound traces, shard calls that
	// timed out or were down, shard calls answering an error status, and
	// requests the admission gate turned away.
	scatters      atomic.Uint64
	proxied       atomic.Uint64
	mergedQueries atomic.Uint64
	mergedTraces  atomic.Uint64
	shardTimeouts atomic.Uint64
	shardErrors   atomic.Uint64
	rejected      atomic.Uint64
	// fenced counts refusals by reason code (plan.Fence).
	fenced [plan.NumFences]atomic.Uint64
}

// table is the coordinator's global view of one ingested relation. The
// coordinator keeps the full relation (the shard slices alias its column
// arrays, so this costs no extra row storage) to lower statements over it,
// validate global seeds, evaluate forward seed predicates, run the traces the
// plan layer collapses to scans, and serve table metadata globally.
type table struct {
	rel  *storage.Relation
	dist string // "shard" | "replicate"
	// starts has len(shards)+1 entries for dist=shard: shard i holds global
	// rids [starts[i], starts[i+1]).
	starts []int
}

// ownerOf returns the shard holding global rid r of a dist=shard table.
func (t *table) ownerOf(r int) int {
	for s := 0; s+1 < len(t.starts); s++ {
		if r < t.starts[s+1] {
			return s
		}
	}
	return len(t.starts) - 2
}

// New builds a coordinator with cfg.Shards fresh shard nodes.
func New(cfg Config) *Coordinator {
	if cfg.Shards < 1 {
		panic("shard: Config.Shards must be >= 1")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = 5 * time.Second
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	c := &Coordinator{
		ring:     newRing(cfg.Shards),
		timeout:  cfg.ShardTimeout,
		gate:     make(chan struct{}, cfg.MaxInFlight),
		tables:   map[string]*table{},
		sessions: map[string]*session{},
		cat:      core.Open(core.WithWorkers(1)),
	}
	for i := 0; i < cfg.Shards; i++ {
		db := core.Open(core.WithWorkers(cfg.Workers))
		// Admission is enforced once, at the coordinator's front door; the
		// shard servers get wide-open gates so a scatter wave can never 429
		// against its own backends.
		srv := server.New(server.Config{
			DB:          db,
			MaxInFlight: 1024,
			MaxQueued:   4096,
			SessionTTL:  cfg.SessionTTL,
			MaxSessions: 1024,
		})
		n := &node{id: i, db: db, srv: srv}
		n.handler = srv
		c.nodes = append(c.nodes, n)
	}
	c.mux = c.routes()
	return c
}

// Close shuts every shard node down.
func (c *Coordinator) Close() error {
	var first error
	for _, n := range c.nodes {
		if err := n.srv.Close(); err != nil && first == nil {
			first = err
		}
		n.db.Close()
	}
	c.cat.Close()
	return first
}

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return len(c.nodes) }

// SetShardHandler swaps shard i's request handler — the fault-injection
// seam. nil simulates a killed shard; a blocking handler simulates a wedged
// one. Passing the shard's own server handler restores it.
func (c *Coordinator) SetShardHandler(i int, h http.Handler) {
	c.nodes[i].setHandler(h)
}

// RestoreShardHandler reattaches shard i's real server after an injected
// fault.
func (c *Coordinator) RestoreShardHandler(i int) {
	c.nodes[i].setHandler(c.nodes[i].srv)
}

func (c *Coordinator) routes() *http.ServeMux {
	return wire.NewMux(map[string]http.HandlerFunc{
		"GET /healthz":                                c.handleHealth,
		"GET /v1/tables":                              c.handleListTables,
		"GET /v1/tables/{name}":                       c.handleGetTable,
		"POST /v1/tables/{name}":                      c.handleIngest,
		"POST /v1/query":                              c.handleQuery,
		"POST /v1/sessions":                           c.handleNewSession,
		"DELETE /v1/sessions/{id}":                    c.handleDropSession,
		"POST /v1/sessions/{id}/results/{name}":       c.handleRunResult,
		"GET /v1/sessions/{id}/results/{name}":        c.handleGetResult,
		"POST /v1/sessions/{id}/results/{name}/trace": c.handleTrace,
	})
}

// ServeHTTP dispatches with panic containment, mirroring the single-node
// server: a handler panic answers 500 instead of killing the connection
// goroutine.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			wire.WriteError(w, serr.New(serr.Internal, "shard: internal panic: %v", rec))
		}
	}()
	c.mux.ServeHTTP(w, r)
}

// enter is the coordinator's admission gate: fail fast with Busy (429) past
// MaxInFlight concurrent requests instead of queueing scatter waves onto
// already-saturated shards.
func (c *Coordinator) enter() error {
	select {
	case c.gate <- struct{}{}:
		return nil
	default:
		c.rejected.Add(1)
		return serr.New(serr.Busy, "shard: coordinator at capacity; retry")
	}
}

func (c *Coordinator) exit() { <-c.gate }

// forward sends one request to shard s untouched, under the coordinator's
// deadline; a shard that is down or does not answer in time counts as a
// timeout (proxy paths).
func (c *Coordinator) forward(ctx context.Context, s int, method, path string, body []byte) (*callResult, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	contentType := ""
	if body != nil {
		contentType = "application/json"
	}
	res, err := c.nodes[s].invoke(ctx, method, path, body, contentType, false)
	if err != nil {
		c.shardTimeouts.Add(1)
	}
	return res, err
}

// writeShardReply writes a forwarded shard reply verbatim, or the error that
// kept the shard from answering.
func writeShardReply(w http.ResponseWriter, res *callResult, err error) {
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

const maxBody = 256 << 20

func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	c.mu.RLock()
	nTables, nSessions := len(c.tables), len(c.sessions)
	c.mu.RUnlock()
	body := map[string]any{
		"ok":                true,
		"shards":            len(c.nodes),
		"tables":            nTables,
		"sessions":          nSessions,
		"scatters":          c.scatters.Load(),
		"proxied":           c.proxied.Load(),
		"merged_queries":    c.mergedQueries.Load(),
		"merged_traces":     c.mergedTraces.Load(),
		"shard_timeouts":    c.shardTimeouts.Load(),
		"shard_errors":      c.shardErrors.Load(),
		"rejected_requests": c.rejected.Load(),
	}
	fenced := make(map[string]uint64, plan.NumFences-1)
	for f := plan.Admit + 1; f < plan.NumFences; f++ {
		fenced[f.String()] = c.fenced[f].Load()
	}
	body["fenced"] = fenced
	// Per-shard probes share the coordinator deadline (enforced inside invoke
	// through the request context) so a wedged shard makes its entry report
	// ok=false instead of wedging /healthz itself.
	ctx, cancel := context.WithTimeout(r.Context(), c.timeout)
	defer cancel()
	perShard := make([]map[string]any, len(c.nodes))
	var wg sync.WaitGroup
	for i, n := range c.nodes {
		i, n := i, n
		wg.Add(1)
		go func() {
			defer wg.Done()
			entry := map[string]any{
				"shard":    i,
				"calls":    n.calls.Load(),
				"failures": n.failures.Load(),
			}
			res, err := n.invoke(ctx, http.MethodGet, "/healthz", nil, "", false)
			switch {
			case err != nil:
				entry["ok"] = false
				entry["error"] = err.Error()
			case !res.ok():
				entry["ok"] = false
				entry["error"] = fmt.Sprintf("healthz answered %d", res.status)
			default:
				var h map[string]any
				if json.Unmarshal(res.body, &h) == nil {
					for k, v := range h {
						if k != "ok" {
							entry[k] = v
						}
					}
					entry["ok"] = true
				}
			}
			perShard[i] = entry
		}()
	}
	wg.Wait()
	body["per_shard"] = perShard
	wire.WriteJSON(w, http.StatusOK, body)
}

func (c *Coordinator) handleListTables(w http.ResponseWriter, r *http.Request) {
	type tbl struct {
		Name   string       `json:"name"`
		Rows   int          `json:"rows"`
		Dist   string       `json:"dist"`
		Schema []wire.Field `json:"schema"`
	}
	c.mu.RLock()
	var out []tbl
	for name, t := range c.tables {
		out = append(out, tbl{Name: name, Rows: t.rel.N, Dist: t.dist, Schema: wire.Fields(t.rel.Schema)})
	}
	c.mu.RUnlock()
	wire.WriteJSON(w, http.StatusOK, map[string]any{"tables": out})
}

func (c *Coordinator) handleGetTable(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	c.mu.RLock()
	t, ok := c.tables[name]
	c.mu.RUnlock()
	if !ok {
		wire.WriteError(w, serr.New(serr.NotFound, "shard: unknown table %q", name))
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]any{"name": name, "rows": t.rel.N, "dist": t.dist, "schema": wire.Fields(t.rel.Schema)})
}

// splitStarts computes the rid-range boundaries of an n-row table over the
// given shard count: contiguous, near-even slices, the first n%shards of
// them one row longer.
func splitStarts(n, shards int) []int {
	starts := make([]int, shards+1)
	base, rem := n/shards, n%shards
	for i := 0; i < shards; i++ {
		size := base
		if i < rem {
			size++
		}
		starts[i+1] = starts[i] + size
	}
	return starts
}

// handleIngest registers (or replaces) a table across the shards. The body
// and parameters are exactly the single-node ingest API plus ?dist=shard to
// rid-range partition the rows (?dist=replicate, the default, registers a
// full copy per shard). The coordinator parses the body once, verifies a
// declared pk against the GLOBAL rows once, and registers zero-copy slices
// directly into the shard engines — the data plane bypasses the per-shard
// HTTP stack, the control plane does not.
func (c *Coordinator) handleIngest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == "" {
		wire.WriteError(w, serr.New(serr.Invalid, "shard: table name is empty"))
		return
	}
	dist := strings.ToLower(r.URL.Query().Get("dist"))
	switch dist {
	case "":
		dist = "replicate"
	case "shard", "replicate":
	default:
		wire.WriteError(w, serr.New(serr.Invalid, "shard: unknown dist %q (want shard or replicate)", dist))
		return
	}
	pk := r.URL.Query().Get("pk")

	var (
		rel *storage.Relation
		err error
	)
	if strings.HasPrefix(r.Header.Get("Content-Type"), "text/csv") {
		rel, err = server.ParseTableCSV(name, http.MaxBytesReader(w, r.Body, maxBody), r.URL.Query().Get("types"))
	} else {
		var body wire.Table
		if err = wire.DecodeRequest(http.MaxBytesReader(w, r.Body, maxBody), &body); err == nil {
			rel, err = body.Relation(name)
		}
		if body.PK != "" {
			pk = body.PK
		}
	}
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	if pk != "" {
		if err := server.VerifyPK(rel, pk); err != nil {
			wire.WriteError(w, err)
			return
		}
	}

	t := &table{rel: rel, dist: dist}
	if dist == "shard" {
		t.starts = splitStarts(rel.N, len(c.nodes))
	}
	for i, n := range c.nodes {
		part := rel
		if dist == "shard" {
			part = rel.Slice(name, t.starts[i], t.starts[i+1])
		}
		n.db.Register(part)
		if pk != "" {
			n.db.Catalog().SetPrimaryKey(name, pk)
		}
	}
	c.mu.Lock()
	c.tables[name] = t
	c.cat.Register(rel)
	if pk != "" {
		c.cat.Catalog().SetPrimaryKey(name, pk)
	}
	c.mu.Unlock()
	wire.WriteJSON(w, http.StatusOK, map[string]any{"name": name, "rows": rel.N})
}

// allShards returns [0, 1, ..., n-1].
func (c *Coordinator) allShards() []int {
	out := make([]int, len(c.nodes))
	for i := range out {
		out[i] = i
	}
	return out
}
