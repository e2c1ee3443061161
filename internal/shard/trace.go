package shard

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"strings"

	"smoke/internal/core"
	"smoke/internal/expr"
	"smoke/internal/ops"
	"smoke/internal/plan"
	"smoke/internal/serr"
	"smoke/internal/server"
	"smoke/internal/sql"
	"smoke/internal/storage"
	"smoke/internal/wire"
)

// handleTrace runs a bound trace against a retained result. Results retained
// whole on the session's home shard (and every result in a single-shard
// deployment) proxy untouched — exact single-node behavior. Results gathered
// from scattered partials translate between the global and the shard-local
// rid spaces here, which is precisely why a seed that is valid globally but
// out of range for any single shard's slice must never 400: validation runs
// against the GLOBAL spaces (the merged output for backward, the whole base
// table for forward) before any shard sees a translated local rid.
func (c *Coordinator) handleTrace(w http.ResponseWriter, r *http.Request) {
	id, name := r.PathValue("id"), r.PathValue("name")
	sess, err := c.lookupSession(id)
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	var req wire.TraceRequest
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

	p := sess.placementOf(name)
	if p == nil || !p.scattered {
		// Home-shard result (or a name the coordinator never placed — e.g. a
		// trace result the home shard retained itself): forward untouched and
		// let the shard answer, including its own 404/410 bookkeeping.
		c.proxied.Add(1)
		res, err := c.forward(r.Context(), sess.home, http.MethodPost, sess.tracePath(sess.home, name), body)
		writeShardReply(w, res, err)
		return
	}

	out, err := c.runScatteredTrace(r.Context(), sess, name, p, req)
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	c.mergedTraces.Add(1)
	wire.WriteJSON(w, http.StatusOK, out)
}

// runScatteredTrace validates, routes, and gathers a trace against a
// scattered placement.
func (c *Coordinator) runScatteredTrace(ctx context.Context, sess *session, name string, p *placement, req wire.TraceRequest) (*wire.Result, error) {
	backward, err := req.Validate()
	if err != nil {
		return nil, err
	}
	if req.Table != p.table {
		// A scattered capture records lineage to the sharded table per shard.
		// Tracing into a REPLICATED base relation would gather each shard's
		// rids over the same full copy — overlapping lists whose merged order
		// no longer matches a single node's — so it is fenced, not wrong.
		return nil, c.fence(plan.FenceReplicatedTrace)
	}
	if req.Retain != "" {
		return nil, c.fence(plan.FenceRetain)
	}
	for _, a := range req.Aggs {
		fn, err := wire.ParseAggFn(a.Fn)
		if err != nil {
			return nil, err
		}
		if fn == ops.CountDistinct {
			return nil, c.fence(plan.FenceCountDistinct)
		}
	}
	params, err := wire.Params(req.Params)
	if err != nil {
		return nil, err
	}
	if backward {
		return c.backwardScattered(ctx, sess, name, p, req, params)
	}
	return c.forwardScattered(ctx, sess, name, p, req, params)
}

// seedRids resolves a trace's seeds to GLOBAL rids of rel — the merged
// output for backward traces, the capture-time base relation for forward
// ones — in seed order: explicit rids validated against rel (space names it
// in the 400), a seed predicate evaluated over rel in rid order, or — with
// neither — every rid, the zero-seed "trace everything" expansion the engine
// itself uses. The parsed seed predicate is returned alongside.
func seedRids(req wire.TraceRequest, rel *storage.Relation, space string, params expr.Params) ([]int, expr.Expr, error) {
	if req.Rids != nil {
		rids := make([]int, len(req.Rids))
		for i, v := range req.Rids {
			if v < 0 || v >= int64(rel.N) {
				return nil, nil, serr.New(serr.Invalid,
					"server: seed rid %d out of range [0,%d) for %s", v, rel.N, space)
			}
			rids[i] = int(v)
		}
		return rids, nil, nil
	}
	if req.SeedWhere != "" {
		return matching(req.SeedWhere, rel, params, "trace seed predicate")
	}
	all := make([]int, rel.N)
	for i := range all {
		all[i] = i
	}
	return all, nil, nil
}

// matching parses the predicate src and returns the rids of rel satisfying
// it in rid order (never nil), with the parsed predicate.
func matching(src string, rel *storage.Relation, params expr.Params, what string) ([]int, expr.Expr, error) {
	pred, err := sql.ParseExpr(src)
	if err != nil {
		return nil, nil, err
	}
	cp, err := expr.CompilePred(pred, rel, params)
	if err != nil {
		return nil, nil, serr.New(serr.Invalid, "server: %s: %v", what, err)
	}
	rids := []int{}
	for i := 0; i < rel.N; i++ {
		if cp(int32(i)) {
			rids = append(rids, i)
		}
	}
	return rids, pred, nil
}

// backwardPath resolves which trace path answers a backward trace of this
// placement: "eager" (captured index, per-seed expansion) or "lazy" (plan
// re-execution, scan-collapsible). A per-trace strategy forces it; otherwise
// the placement's resolved capture strategy routes — hybrid captures the
// backward direction eagerly. "" means unknowable: the placement ran under
// strategy auto, whose resolution reads per-node runtime counters.
func (p *placement) backwardPath(reqStrategy string) string {
	switch strings.ToLower(reqStrategy) {
	case "eager":
		return "eager"
	case "lazy":
		return "lazy"
	}
	switch p.strategy {
	case "lazy":
		return "lazy"
	case "eager", "hybrid":
		return "eager"
	}
	return ""
}

// shardTraceBody renders the per-shard request: same trace, shard-local
// seeds. marshal cannot fail on these field types.
func shardTraceBody(req wire.TraceRequest, rids []int64, keepWhere bool) []byte {
	out := wire.TraceRequest{
		Direction: req.Direction,
		Table:     req.Table,
		Rids:      rids,
		GroupBy:   req.GroupBy,
		Aggs:      req.Aggs,
		Capture:   req.Capture,
		Compress:  req.Compress,
		Params:    req.Params,
		Strategy:  req.Strategy,
	}
	if keepWhere {
		out.Where = req.Where
	}
	b, _ := json.Marshal(out)
	return b
}

// resultPath renders a shard's endpoint for the retained result name under
// the session's peer id; tracePath, its trace endpoint.
func (sess *session) resultPath(shard int, name string) string {
	return "/v1/sessions/" + url.PathEscape(sess.shardIDs[shard]) + "/results/" + url.PathEscape(name)
}

func (sess *session) tracePath(shard int, name string) string {
	return sess.resultPath(shard, name) + "/trace"
}

// emptyTrace answers a zero-seed trace by asking one shard for its (empty)
// result — the cheapest way to produce the exactly-right output schema for
// every trace shape without re-deriving it coordinator-side.
func (c *Coordinator) emptyTrace(ctx context.Context, sess *session, name string, req wire.TraceRequest, keepWhere bool) (*wire.Result, error) {
	parts, err := c.scatter(ctx, []int{0}, func(int) (string, string, []byte) {
		return http.MethodPost, sess.tracePath(0, name), shardTraceBody(req, []int64{}, keepWhere)
	})
	if err != nil {
		return nil, err
	}
	if err := checkReplies(parts, nil, false); err != nil {
		return nil, err
	}
	empty := wire.Rows(parts[0].Rel())
	empty.Cached = parts[0].Cached
	return &empty, nil
}

// backwardScattered gathers a backward trace. The engine answers one of two
// ways — exec.backwardRids decides per node with LOCAL numbers — and the
// coordinator takes the same decision with GLOBAL ones:
//
//   - the per-seed index path expands every seed's captured rid list in seed
//     order. Coordinator equivalent: one scatter wave per seed to the shards
//     whose partial contributed to the seed's merged group, cells
//     concatenated seed-major shard-minor (shard slices are rid-contiguous
//     in shard order, so that IS the single node's capture append order).
//     Join placements always take it, and it is order-exact for them:
//     plan.Distribute admits joins only with the sharded table as the probe
//     side, so each group's captured list is its probe rows in slice rid
//     order.
//   - the scan path — taken when the plan layer proves the trace equivalent
//     to one filtered scan (plan.TraceScanEquiv) and the seeds cover enough
//     of the output (plan.ScanBeatsIndex, eager), or always on the lazy path
//     — answers in base-table rid order. Coordinator equivalent: run that
//     scan, or the consuming group-by over it, over the global relation it
//     already holds, with no shard round-trip at all.
func (c *Coordinator) backwardScattered(ctx context.Context, sess *session, name string, p *placement, req wire.TraceRequest, params expr.Params) (*wire.Result, error) {
	slots, seedPred, err := seedRids(req, p.out, "result output rows", params)
	if err != nil {
		return nil, err
	}
	if len(slots) == 0 {
		return c.emptyTrace(ctx, sess, name, req, true)
	}

	// With a single seed the two paths are row-identical (one group's
	// captured list is its rows in rid order), so only multi-seed traces
	// need the decision — which keeps single-seed crossfilter interactions
	// on the cheap per-seed path under every strategy, including auto.
	// Explicit rids name output rows no scan predicate can: per-seed.
	if req.Rids == nil && len(slots) >= 2 {
		bw := plan.Backward{Source: p.plan, Table: p.table, Rel: p.tbl.rel, SeedPred: seedPred}
		if _, ok := plan.TraceScanEquiv(bw); ok {
			path := p.backwardPath(req.Strategy)
			switch {
			case plan.ScanBeatsIndex(len(slots), p.out.N), path == "lazy":
				return c.scanBackward(bw, req, params, path)
			case path == "":
				return nil, c.fence(plan.FenceAutoOrder)
			}
		}
	}

	cells, err := c.perSeedCells(ctx, sess, name, p, req, slots)
	if err != nil {
		return nil, err
	}
	if len(req.GroupBy) > 0 || len(req.Aggs) > 0 {
		merged, _, err := mergeGrouped(cells, len(req.GroupBy), reqAggs(req))
		return merged, err
	}
	return concatReplies(cells)
}

// scanBackward answers a trace on the scan path the way a single node does:
// the unbound backward node over the placement's plan, wrapped in the
// request's consuming query (server.Consume, the single node's own builder),
// runs through core — whose optimizer collapses it to the filtered scan of
// the capture-time global relation — on the coordinator's catalog.
func (c *Coordinator) scanBackward(bw plan.Backward, req wire.TraceRequest, params expr.Params, path string) (*wire.Result, error) {
	q, err := server.Consume(c.cat.QueryTrace(bw), req)
	if err != nil {
		return nil, err
	}
	res, err := q.Run(core.CaptureOptions{Params: params})
	if err != nil {
		return nil, err
	}
	out := wire.Rows(res.Out)
	out.GroupCounts = res.GroupCounts
	out.StrategyUsed = path
	return &out, nil
}

// perSeedCells runs one scatter wave per seed: a shard's reply carries no
// per-seed boundaries, so batching a shard's seeds into one request would
// lose the seed-major interleave a single node produces. Crossfilter-style
// interactions seed one output row, so the common case is exactly one wave.
func (c *Coordinator) perSeedCells(ctx context.Context, sess *session, name string, p *placement, req wire.TraceRequest, slots []int) ([]reply, error) {
	var cells []reply
	n := len(c.nodes)
	for _, g := range slots {
		locals := p.local[g*n : (g+1)*n]
		var participants []int
		for s, local := range locals {
			if local >= 0 {
				participants = append(participants, s)
			}
		}
		parts, err := c.scatter(ctx, participants, func(s int) (string, string, []byte) {
			return http.MethodPost, sess.tracePath(s, name), shardTraceBody(req, []int64{int64(locals[s])}, true)
		})
		if err != nil {
			return nil, err
		}
		cells = append(cells, parts...)
	}
	return cells, nil
}

func reqAggs(req wire.TraceRequest) []ops.AggFn {
	aggs := make([]ops.AggFn, len(req.Aggs))
	for i, a := range req.Aggs {
		aggs[i], _ = wire.ParseAggFn(a.Fn) // validated in runScatteredTrace
	}
	return aggs
}

// forwardScattered gathers a forward trace: seeds address the sharded base
// table's GLOBAL rid space, translate to shard-local rids, and route only to
// the owning shard (the seed-range routing of the issue — non-owning shards
// never see the request). Each shard answers its partial output rows for its
// seeds in seed order; the coordinator maps every reply row to the merged
// global row by group identity and applies the consuming filter against the
// MERGED values, because the shard-local partial aggregates are not the
// values a single node's filter would see.
func (c *Coordinator) forwardScattered(ctx context.Context, sess *session, name string, p *placement, req wire.TraceRequest, params expr.Params) (*wire.Result, error) {
	if len(req.GroupBy) > 0 || len(req.Aggs) > 0 {
		return nil, c.fence(plan.FenceConsumingForward)
	}
	// The placement snapshot, not the live book: seeds address the
	// capture-time relation, which survives a re-ingest the same way a single
	// node's bound trace does.
	t := p.tbl

	seeds, _, err := seedRids(req, t.rel, "base rows of "+p.table, params)
	if err != nil {
		return nil, err
	}
	if len(seeds) == 0 {
		return c.emptyTrace(ctx, sess, name, req, false)
	}

	// Optional consuming filter, evaluated over the MERGED output rows:
	// precompute a per-slot mask once.
	var mask []bool
	if req.Where != "" {
		kept, _, err := matching(req.Where, p.out, params, "trace filter")
		if err != nil {
			return nil, err
		}
		mask = make([]bool, p.out.N)
		for _, slot := range kept {
			mask[slot] = true
		}
	}

	// Maximal same-owner seed runs, one shard request per run: the shard
	// answers its seeds' reached rows in seed order, so run-order concat is
	// the global seed-order concat.
	var cells []reply
	for i := 0; i < len(seeds); {
		owner := t.ownerOf(seeds[i])
		j := i
		var locals []int64
		for ; j < len(seeds) && t.ownerOf(seeds[j]) == owner; j++ {
			locals = append(locals, int64(seeds[j]-t.starts[owner]))
		}
		parts, err := c.scatter(ctx, []int{owner}, func(int) (string, string, []byte) {
			return http.MethodPost, sess.tracePath(owner, name), shardTraceBody(req, locals, false)
		})
		if err != nil {
			return nil, err
		}
		cells = append(cells, parts[0])
		i = j
	}
	// Reply rows are rows of the shards' partial results, so they carry the
	// merged result's schema.
	if err := checkReplies(cells, p.out.Schema, false); err != nil {
		return nil, err
	}
	rows, err := mergedRows(p, cells)
	if err != nil {
		return nil, err
	}
	kept := rows[:0]
	for _, slot := range rows {
		if mask == nil || mask[slot] {
			kept = append(kept, slot)
		}
	}
	out := wire.Rows(p.out.Gather(p.out.Name, kept))
	out.StrategyUsed, out.Cached = uniformStrategy(cells), allCached(cells)
	return &out, nil
}

// mergedRows maps every row of the forward-trace replies, in order, to the
// merged output row of its group. The merged keys and the replies' keys
// resolve together through keySlots: the merged keys come first and are
// distinct, so a reply row's slot is its group's merged row.
func mergedRows(p *placement, cells []reply) ([]ops.Rid, error) {
	_, slots := keySlots(append([]*storage.Relation{p.out}, relations(cells)...), p.nKeys)
	rows := slots[p.out.N:]
	for _, g := range rows {
		if int(g) >= p.out.N {
			return nil, serr.New(serr.Internal, "shard: forward trace reached a group absent from the merged result")
		}
	}
	return rows, nil
}
