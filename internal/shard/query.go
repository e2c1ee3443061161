package shard

import (
	"bytes"
	"io"
	"net/http"
	"strings"

	"smoke/internal/serr"
	"smoke/internal/wire"
)

// resolvedStrategy mirrors core.resolveStrategy's label for a query request:
// an explicit strategy wins, otherwise capture "none" resolves lazy and every
// capturing mode resolves eager. "auto" stays "auto" — its resolution reads
// per-node runtime counters the coordinator cannot see, which is exactly why
// traces whose row order depends on it are fenced rather than guessed.
func resolvedStrategy(capture, strategy string) string {
	switch strings.ToLower(strategy) {
	case "eager", "lazy", "hybrid", "auto":
		return strings.ToLower(strategy)
	}
	if strings.ToLower(capture) == "none" {
		return "lazy"
	}
	return "eager"
}

// readRequest decodes a JSON request body into req and returns the raw
// bytes: those are what the shards receive, so fields the coordinator does
// not read still reach them unchanged.
func readRequest(w http.ResponseWriter, r *http.Request, req any) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		return nil, serr.New(serr.Invalid, "shard: read body: %v", err)
	}
	return body, wire.DecodeRequest(bytes.NewReader(body), req)
}

// handleQuery is stateless execution: proxy when every input is replicated
// (any shard's answer is the answer; the ring spreads statements across
// shards), scatter + two-phase merge when the statement reads the sharded
// table.
func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req wire.QueryRequest
	body, err := readRequest(w, r, &req)
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	if err := c.enter(); err != nil {
		wire.WriteError(w, err)
		return
	}
	defer c.exit()
	a, err := c.planQuery(req.SQL)
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	if a == nil {
		c.proxied.Add(1)
		res, err := c.forward(r.Context(), c.ring.owner(req.SQL), http.MethodPost, "/v1/query", body)
		writeShardReply(w, res, err)
		return
	}

	parts, err := c.scatter(r.Context(), c.allShards(), func(int) (string, string, []byte) {
		return http.MethodPost, "/v1/query", body
	})
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	merged, _, err := mergeGrouped(parts, len(a.scatter.Keys), a.scatter.Aggs)
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	c.mergedQueries.Add(1)
	wire.WriteJSON(w, http.StatusOK, merged)
}

// handleRunResult executes and retains a named result. Proxy-routed
// statements retain whole on the session's home shard; scattered statements
// retain a partial capture on EVERY shard, and the coordinator remembers the
// merged output plus the gather map so traces can translate seeds.
func (c *Coordinator) handleRunResult(w http.ResponseWriter, r *http.Request) {
	id, name := r.PathValue("id"), r.PathValue("name")
	sess, err := c.lookupSession(id)
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	var req wire.QueryRequest
	body, err := readRequest(w, r, &req)
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	if err := c.enter(); err != nil {
		wire.WriteError(w, err)
		return
	}
	defer c.exit()
	a, err := c.planQuery(req.SQL)
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	if a == nil {
		c.proxied.Add(1)
		res, err := c.forward(r.Context(), sess.home, http.MethodPost, sess.resultPath(sess.home, name), body)
		if err == nil && res.ok() {
			sess.setPlacement(name, &placement{scattered: false})
		}
		writeShardReply(w, res, err)
		return
	}

	parts, err := c.scatter(r.Context(), c.allShards(), func(s int) (string, string, []byte) {
		return http.MethodPost, sess.resultPath(s, name), body
	})
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	merged, slots, err := mergeGrouped(parts, len(a.scatter.Keys), a.scatter.Aggs)
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	c.mergedQueries.Add(1)
	sess.setPlacement(name, &placement{
		scattered: true,
		table:     a.scatter.Table,
		nKeys:     len(a.scatter.Keys),
		out:       merged.Rel(),
		local:     localRows(parts, slots, merged.N),
		tbl:       a.tbl,
		plan:      a.plan,
		strategy:  resolvedStrategy(req.Capture, req.Strategy),
	})
	merged.Retained = name
	wire.WriteJSON(w, http.StatusOK, merged)
}

// handleGetResult re-renders a retained result. Scattered results render
// from the coordinator's merged copy (shape-identical to a single node's
// GET: rows only, none of the run-time annotations); proxy results forward.
func (c *Coordinator) handleGetResult(w http.ResponseWriter, r *http.Request) {
	id, name := r.PathValue("id"), r.PathValue("name")
	sess, err := c.lookupSession(id)
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	if err := c.enter(); err != nil {
		wire.WriteError(w, err)
		return
	}
	defer c.exit()
	p := sess.placementOf(name)
	if p != nil && p.scattered {
		wire.WriteJSON(w, http.StatusOK, wire.Rows(p.out))
		return
	}
	res, err := c.forward(r.Context(), sess.home, http.MethodGet, sess.resultPath(sess.home, name), nil)
	writeShardReply(w, res, err)
}
