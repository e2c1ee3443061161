package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sync"

	"smoke/internal/plan"
	"smoke/internal/serr"
	"smoke/internal/storage"
	"smoke/internal/wire"
)

// session is the coordinator's view of one client session. The shards hold
// the real state — every shard has a same-named peer session created eagerly
// at POST /v1/sessions — and the coordinator remembers only placement: which
// shard is the session's consistent-hash home (where replicated-only work
// runs, so its retained captures and later traces meet on one node) and, for
// each retained name, whether the result lives whole on the home shard or
// scattered across all of them.
type session struct {
	id       string
	shardIDs []string // per-shard peer session ids, indexed by shard
	home     int

	mu      sync.RWMutex
	results map[string]*placement
}

// placement records how a retained result was produced, which is what a
// later trace against it needs to route itself.
type placement struct {
	scattered bool
	// Scattered placements keep the merge artifacts: the sharded table the
	// result reads, the merged grouped output (global seed validation and
	// seed-predicate and filter evaluation run against it), its group-key
	// count, and the flat slot map: local[g*shards+s] is shard s's partial
	// row of global slot g, -1 where the shard saw no input for the group.
	table string
	nKeys int
	out   *storage.Relation
	local []int32
	// tbl snapshots the sharded table AS OF the run — the capture-time
	// relation and rid-range starts. Traces translate seeds against this
	// snapshot, not the live book, exactly as a single node's bound trace
	// reads the relation instance the result was captured against even after
	// the table is re-ingested.
	tbl *table
	// plan is the statement's optimized plan, lowered over the same snapshot
	// (its scans read tbl.rel); traces build their backward node over it so
	// the plan layer makes the scan-vs-index decision. strategy is the
	// resolved capture strategy ("eager", "lazy", "hybrid", or "auto").
	plan     plan.Node
	strategy string
}

func (s *session) setPlacement(name string, p *placement) {
	s.mu.Lock()
	s.results[name] = p
	s.mu.Unlock()
}

func (s *session) placementOf(name string) *placement {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.results[name]
}

// handleNewSession creates a peer session on EVERY shard, picks the home by
// consistent hash over the coordinator-level id, and answers that id. Eager
// creation means a later scattered retain never races shard-by-shard session
// setup.
func (c *Coordinator) handleNewSession(w http.ResponseWriter, r *http.Request) {
	if err := c.enter(); err != nil {
		wire.WriteError(w, err)
		return
	}
	defer c.exit()
	id := fmt.Sprintf("cs-%d", c.sessSeq.Add(1))

	ctx, cancel := context.WithTimeout(r.Context(), c.timeout)
	defer cancel()
	type created struct {
		id  string
		ttl int
	}
	replies := make([]*created, len(c.nodes))
	errs := make([]error, len(c.nodes))
	var wg sync.WaitGroup
	for i, n := range c.nodes {
		i, n := i, n
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := n.invoke(ctx, http.MethodPost, "/v1/sessions", nil, "application/json", false)
			if err != nil {
				errs[i] = err
				return
			}
			if !res.ok() {
				errs[i] = errorFromShard(n.id, res.status, res.body)
				return
			}
			var body struct {
				ID  string `json:"id"`
				TTL int    `json:"ttl_seconds"`
			}
			if err := json.Unmarshal(res.body, &body); err != nil {
				errs[i] = serr.New(serr.Internal, "shard: shard %d session reply: %v", n.id, err)
				return
			}
			replies[i] = &created{id: body.ID, ttl: body.TTL}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			wire.WriteError(w, err)
			return
		}
	}
	// Each shard mints its own id; remember the per-shard mapping so every
	// later session-scoped call can rewrite its path for the shard it hits.
	sess := &session{
		id:      id,
		home:    c.ring.owner(id),
		results: map[string]*placement{},
	}
	sess.shardIDs = make([]string, len(c.nodes))
	for i, rep := range replies {
		sess.shardIDs[i] = rep.id
	}
	c.mu.Lock()
	c.sessions[id] = sess
	c.mu.Unlock()
	wire.WriteJSON(w, http.StatusCreated, map[string]any{
		"id":          id,
		"ttl_seconds": replies[0].ttl,
	})
}

// lookupSession resolves a coordinator session id.
func (c *Coordinator) lookupSession(id string) (*session, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.sessions[id]
	if !ok {
		return nil, c.missingSessionErr(id)
	}
	return s, nil
}

// missingSessionErr mirrors the single-node registry's 410-vs-404 split
// without a tombstone set: coordinator ids are minted from a monotonic
// counter, so a well-formed id at or below the current sequence that is
// absent from the map must have been created here and since dropped — Gone,
// telling the client to open a new session. Anything else never existed.
func (c *Coordinator) missingSessionErr(id string) error {
	var seq uint64
	if _, err := fmt.Sscanf(id, "cs-%d", &seq); err == nil && seq >= 1 && seq <= c.sessSeq.Load() {
		return serr.New(serr.Gone, "shard: session %s was dropped; open a new session", id)
	}
	return serr.New(serr.NotFound, "shard: unknown session %q", id)
}

// handleDropSession drops the coordinator session and scatters the delete to
// every shard. A shard that already expired its peer answers 404 — that is
// success for a delete, not a failure to surface.
func (c *Coordinator) handleDropSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c.mu.Lock()
	sess, ok := c.sessions[id]
	if ok {
		delete(c.sessions, id)
	}
	c.mu.Unlock()
	if !ok {
		wire.WriteError(w, c.missingSessionErr(id))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), c.timeout)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, len(c.nodes))
	for i, n := range c.nodes {
		i, n := i, n
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := n.invoke(ctx, http.MethodDelete, "/v1/sessions/"+url.PathEscape(sess.shardIDs[i]), nil, "", false)
			if err != nil {
				errs[i] = err
				return
			}
			if !res.ok() && res.status != http.StatusNotFound {
				errs[i] = errorFromShard(n.id, res.status, res.body)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			wire.WriteError(w, err)
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}
