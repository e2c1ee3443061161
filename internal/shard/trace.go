package shard

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"smoke/internal/expr"
	"smoke/internal/ops"
	"smoke/internal/serr"
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
		ctx, cancel := context.WithTimeout(r.Context(), c.timeout)
		defer cancel()
		path := "/v1/sessions/" + sess.shardIDs[sess.home] + "/results/" + name + "/trace"
		res, err := c.nodes[sess.home].invoke(ctx, http.MethodPost, path, body, "application/json")
		if err != nil {
			c.shardTimeouts.Add(1)
			wire.WriteError(w, err)
			return
		}
		writeShardReply(w, res)
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
		return nil, serr.New(serr.Unsupported,
			"shard: traces against a scattered result must address the sharded table %q, not %q", p.table, req.Table)
	}
	if req.Retain != "" {
		return nil, serr.New(serr.Unsupported,
			"shard: retaining a trace of a scattered result is not supported; re-run the consuming query as a retained base query")
	}
	for _, a := range req.Aggs {
		fn, err := wire.ParseAggFn(a.Fn)
		if err != nil {
			return nil, err
		}
		if fn == ops.CountDistinct {
			return nil, serr.New(serr.Unsupported, "shard: COUNT(DISTINCT) does not decompose across shards; not supported")
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

// seedSlots resolves a backward trace's seeds to GLOBAL output slots, in
// seed order: explicit rids validated against the merged output's row count,
// a seed predicate evaluated over the merged output (slot order), or — with
// neither — every slot (the zero-seed "trace everything" expansion the
// engine itself uses). The parsed seed predicate is returned alongside so
// the scan-decision mirror can inspect its columns without re-parsing.
func (p *placement) seedSlots(req wire.TraceRequest, params expr.Params) ([]int, expr.Expr, error) {
	if req.Rids != nil {
		slots := make([]int, len(req.Rids))
		for i, v := range req.Rids {
			if v < 0 || v >= int64(p.merged.N) {
				return nil, nil, serr.New(serr.Invalid,
					"server: seed rid %d out of range [0,%d) for result output rows", v, p.merged.N)
			}
			slots[i] = int(v)
		}
		return slots, nil, nil
	}
	if req.SeedWhere != "" {
		pred, err := sql.ParseExpr(req.SeedWhere)
		if err != nil {
			return nil, nil, err
		}
		rel, err := p.merged.Relation("merged")
		if err != nil {
			return nil, nil, err
		}
		cp, err := expr.CompilePred(pred, rel, params)
		if err != nil {
			return nil, nil, serr.New(serr.Invalid, "server: trace seed predicate: %v", err)
		}
		var slots []int
		for i := 0; i < rel.N; i++ {
			if cp(int32(i)) {
				slots = append(slots, i)
			}
		}
		if slots == nil {
			slots = []int{}
		}
		return slots, pred, nil
	}
	all := make([]int, p.merged.N)
	for i := range all {
		all[i] = i
	}
	return all, nil, nil
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

// seedPredOnKeys mirrors the optimizer's seed-predicate precondition for the
// scan rewrite: every column the predicate reads must be a group key of the
// traced query AND a column of the traced base relation.
func (p *placement) seedPredOnKeys(seedPred expr.Expr) bool {
	if seedPred == nil {
		return true
	}
	for _, col := range expr.Columns(seedPred) {
		if !containsStr(p.keys, col) || p.tbl.rel.Schema.Col(col) < 0 {
			return false
		}
	}
	return true
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
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

// tracePath renders a shard's trace endpoint for the session's peer id.
func (sess *session) tracePath(shard int, name string) string {
	return "/v1/sessions/" + sess.shardIDs[shard] + "/results/" + name + "/trace"
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
	return emptyLike(parts[0]), nil
}

// backwardScattered gathers a backward trace. It first mirrors the engine's
// own path decision — made per node by exec.backwardRids with LOCAL numbers —
// using GLOBAL ones:
//
//   - the per-seed index path expands every seed's captured rid list in seed
//     order. Coordinator equivalent: one scatter wave per seed to the shards
//     whose partial contributed to the seed's merged group, cells
//     concatenated seed-major shard-minor (shard slices are rid-contiguous
//     in shard order, so that IS the single node's capture append order).
//   - the scan path — taken when the plan shape collapses (placement.scanOK)
//     and the seeds cover at least half the output (eager), or always on the
//     lazy path — answers with one filtered scan of the base table in rid
//     order. Coordinator equivalent: evaluate the folded predicate over the
//     global base relation it already holds, no shard round-trip at all.
//
// Consuming traces (group_by + aggs) fold per-seed cells through the
// two-phase grouped merge; when the single node would have scanned, the
// merged groups are re-ranked into scan discovery order (merge values are
// order-insensitive, first-appearance order is not).
func (c *Coordinator) backwardScattered(ctx context.Context, sess *session, name string, p *placement, req wire.TraceRequest, params expr.Params) (*wire.Result, error) {
	// Join placements (!scanOK) always take the per-seed path, and it is
	// order-exact for them: the analyzer admits joins only with the sharded
	// table as the probe side, so each group's captured lineage list is its
	// probe rows in slice rid order — shard-minor concatenation IS the single
	// node's capture order. No scan rewrite exists for the join shape on a
	// single node either, which also makes the path strategy-independent
	// (auto included).
	slots, seedPred, err := p.seedSlots(req, params)
	if err != nil {
		return nil, err
	}
	if len(slots) == 0 {
		return c.emptyTrace(ctx, sess, name, req, true)
	}

	// Scan-vs-index mirror. With a single seed the two paths are
	// row-identical (one group's captured list is its rows in rid order), so
	// only multi-seed traces need the decision — which keeps single-seed
	// crossfilter interactions on the cheap per-seed path under every
	// strategy, including auto.
	useScan, path := false, ""
	if p.scanOK && req.Rids == nil && p.seedPredOnKeys(seedPred) && len(slots) >= 2 {
		path = p.backwardPath(req.Strategy)
		switch {
		case 2*len(slots) >= p.merged.N:
			useScan = true // eager and lazy both scan at this coverage
		case path == "lazy":
			useScan = true // the lazy rewrite scans unconditionally
		case path == "":
			return nil, serr.New(serr.Unsupported,
				"shard: this trace's row order depends on strategy auto's per-node cost decision; request an explicit strategy or seed fewer rows")
		}
	}
	if useScan {
		return c.scanBackward(ctx, sess, name, p, req, seedPred, params, slots, path)
	}

	cells, err := c.perSeedCells(ctx, sess, name, p, req, slots)
	if err != nil {
		return nil, err
	}
	if len(req.GroupBy) > 0 || len(req.Aggs) > 0 {
		merged, _, err := mergeGrouped(cells, len(req.GroupBy), reqAggs(req))
		return merged, err
	}
	return concatCells(cells), nil
}

// perSeedCells runs one scatter wave per seed: a shard's reply carries no
// per-seed boundaries, so batching a shard's seeds into one request would
// lose the seed-major interleave a single node produces. Crossfilter-style
// interactions seed one output row, so the common case is exactly one wave.
func (c *Coordinator) perSeedCells(ctx context.Context, sess *session, name string, p *placement, req wire.TraceRequest, slots []int) ([]*wire.Result, error) {
	var cells []*wire.Result
	for _, g := range slots {
		var participants []int
		for s, local := range p.gm.globalToLocal[g] {
			if local >= 0 {
				participants = append(participants, s)
			}
		}
		parts, err := c.scatter(ctx, participants, func(s int) (string, string, []byte) {
			local := int64(p.gm.globalToLocal[g][s])
			return http.MethodPost, sess.tracePath(s, name), shardTraceBody(req, []int64{local}, true)
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

// scanBackward answers a backward trace the way a single node's scan rewrite
// does: the traced rows are the base rows satisfying the folded predicate
// (statement filters ∧ seed predicate ∧ trace filter), in rid order. The
// coordinator holds the global base relation — it is the ingest point — so a
// bare trace needs no shard round-trip; a consuming trace still gathers its
// aggregate VALUES from per-seed shard cells (two-phase merge) and takes only
// its row ORDER from the scan's first-appearance sequence.
func (c *Coordinator) scanBackward(ctx context.Context, sess *session, name string, p *placement, req wire.TraceRequest, seedPred expr.Expr, params expr.Params, slots []int, path string) (*wire.Result, error) {
	conj := p.scanPreds
	if seedPred != nil {
		conj = append(conj[:len(conj):len(conj)], seedPred)
	}
	if req.Where != "" {
		wp, err := sql.ParseExpr(req.Where)
		if err != nil {
			return nil, err
		}
		conj = append(conj[:len(conj):len(conj)], wp)
	}
	keep, err := compileConj(conj, p.tbl.rel, params)
	if err != nil {
		return nil, err
	}

	if len(req.GroupBy) == 0 && len(req.Aggs) == 0 {
		out := wire.Rows(p.tbl.rel, keep)
		out.StrategyUsed = path
		return &out, nil
	}

	// Consuming: correct values from the per-seed merge, scan-order rows.
	cells, err := c.perSeedCells(ctx, sess, name, p, req, slots)
	if err != nil {
		return nil, err
	}
	merged, _, err := mergeGrouped(cells, len(req.GroupBy), reqAggs(req))
	if err != nil {
		return nil, err
	}
	gbCols := make([]int, len(req.GroupBy))
	for i, col := range req.GroupBy {
		ci := p.tbl.rel.Schema.Col(col)
		if ci < 0 {
			return nil, serr.New(serr.Invalid, "server: unknown column %q", col)
		}
		gbCols[i] = ci
	}
	rank := map[string]int{}
	for r := 0; r < p.tbl.rel.N; r++ {
		if keep != nil && !keep(r) {
			continue
		}
		k := relKey(p.tbl.rel, gbCols, r)
		if _, ok := rank[k]; !ok {
			rank[k] = len(rank)
		}
	}
	reorderGrouped(merged, len(req.GroupBy), rank)
	return merged, nil
}

// compileConj compiles the conjunction of preds over rel; nil means
// keep-everything.
func compileConj(preds []expr.Expr, rel *storage.Relation, params expr.Params) (func(int) bool, error) {
	var conj expr.Expr
	for _, e := range preds {
		if e == nil {
			continue
		}
		if conj == nil {
			conj = e
		} else {
			conj = expr.And{L: conj, R: e}
		}
	}
	if conj == nil {
		return nil, nil
	}
	cp, err := expr.CompilePred(conj, rel, params)
	if err != nil {
		return nil, serr.New(serr.Invalid, "server: trace filter: %v", err)
	}
	return func(r int) bool { return cp(int32(r)) }, nil
}

// relKey renders the group-identity string of a base row's key columns in
// exactly encodeKey's format, so ranks computed from the base relation match
// keys computed from merged wire rows.
func relKey(rel *storage.Relation, cols []int, r int) string {
	var b strings.Builder
	for _, ci := range cols {
		switch rel.Schema[ci].Type {
		case storage.TInt:
			b.WriteByte('i')
			b.WriteString(strconv.FormatInt(rel.Int(ci, r), 10))
		case storage.TFloat:
			b.WriteByte('f')
			b.WriteString(strconv.FormatUint(math.Float64bits(rel.Float(ci, r)), 16))
		case storage.TString:
			s := rel.Str(ci, r)
			b.WriteByte('s')
			b.WriteString(strconv.Itoa(len(s)))
			b.WriteByte(':')
			b.WriteString(s)
		}
		b.WriteByte('|')
	}
	return b.String()
}

// reorderGrouped re-ranks a merged consuming result's rows (and group
// counts) into the given first-appearance order. Keys absent from the rank
// map — which a correct merge never produces — keep their relative order at
// the end rather than dropping rows.
func reorderGrouped(merged *wire.Result, nKeys int, rank map[string]int) {
	type slot struct {
		row  []any
		gc   int64
		rank int
	}
	slotted := make([]slot, len(merged.Rows))
	for i, row := range merged.Rows {
		r, ok := rank[encodeKey(row[:nKeys])]
		if !ok {
			r = len(rank) + i
		}
		var gc int64
		if i < len(merged.GroupCounts) {
			gc = merged.GroupCounts[i]
		}
		slotted[i] = slot{row: row, gc: gc, rank: r}
	}
	sort.SliceStable(slotted, func(a, b int) bool { return slotted[a].rank < slotted[b].rank })
	for i, s := range slotted {
		merged.Rows[i] = s.row
		if i < len(merged.GroupCounts) {
			merged.GroupCounts[i] = s.gc
		}
	}
}

// concatCells concatenates non-consuming trace cells in order.
func concatCells(cells []*wire.Result) *wire.Result {
	out := &wire.Result{Columns: cells[0].Columns, Types: cells[0].Types, Rows: [][]any{}}
	strategy, uniform := cells[0].StrategyUsed, true
	for _, cell := range cells {
		out.Rows = append(out.Rows, cell.Rows...)
		out.N += cell.N
		if cell.StrategyUsed != strategy {
			uniform = false
		}
	}
	if uniform {
		out.StrategyUsed = strategy
	}
	return out
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
		return nil, serr.New(serr.Unsupported,
			"shard: consuming forward traces of a scattered result are not supported")
	}
	// The placement snapshot, not the live book: seeds address the
	// capture-time relation, which survives a re-ingest the same way a single
	// node's bound trace does.
	t := p.tbl

	// Resolve global base-row seeds in seed order.
	var seeds []int
	switch {
	case req.Rids != nil:
		seeds = make([]int, len(req.Rids))
		for i, v := range req.Rids {
			if v < 0 || v >= int64(t.rel.N) {
				return nil, serr.New(serr.Invalid,
					"server: seed rid %d out of range [0,%d) for base rows of %s", v, t.rel.N, p.table)
			}
			seeds[i] = int(v)
		}
	case req.SeedWhere != "":
		pred, err := sql.ParseExpr(req.SeedWhere)
		if err != nil {
			return nil, err
		}
		cp, err := expr.CompilePred(pred, t.rel, params)
		if err != nil {
			return nil, serr.New(serr.Invalid, "server: trace seed predicate: %v", err)
		}
		for i := 0; i < t.rel.N; i++ {
			if cp(int32(i)) {
				seeds = append(seeds, i)
			}
		}
		if seeds == nil {
			seeds = []int{}
		}
	default:
		seeds = make([]int, t.rel.N)
		for i := range seeds {
			seeds[i] = i
		}
	}
	if len(seeds) == 0 {
		return c.emptyTrace(ctx, sess, name, req, false)
	}

	// Optional consuming filter, evaluated over the MERGED output rows:
	// precompute a per-slot mask once.
	var mask []bool
	if req.Where != "" {
		pred, err := sql.ParseExpr(req.Where)
		if err != nil {
			return nil, err
		}
		rel, err := p.merged.Relation("merged")
		if err != nil {
			return nil, err
		}
		cp, err := expr.CompilePred(pred, rel, params)
		if err != nil {
			return nil, serr.New(serr.Invalid, "server: trace filter: %v", err)
		}
		mask = make([]bool, rel.N)
		for i := 0; i < rel.N; i++ {
			mask[i] = cp(int32(i))
		}
	}

	// Maximal same-owner seed runs, one shard request per run: the shard
	// answers its seeds' reached rows in seed order, so run-order concat is
	// the global seed-order concat.
	out := &wire.Result{Columns: p.merged.Columns, Types: p.merged.Types, Rows: [][]any{}}
	strategy, uniform, first := "", true, true
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
		cell := parts[0]
		for _, row := range cell.Rows {
			if len(row) < p.nKeys {
				return nil, serr.New(serr.Internal, "shard: forward trace row narrower than the group key")
			}
			slot, ok := p.gm.keyToGlobal[encodeKey(row[:p.nKeys])]
			if !ok {
				return nil, serr.New(serr.Internal, "shard: forward trace reached a group absent from the merged result")
			}
			if mask != nil && !mask[slot] {
				continue
			}
			out.Rows = append(out.Rows, p.merged.Rows[slot])
			out.N++
		}
		if first {
			strategy, first = cell.StrategyUsed, false
		} else if cell.StrategyUsed != strategy {
			uniform = false
		}
		i = j
	}
	if uniform && !first {
		out.StrategyUsed = strategy
	}
	return out, nil
}
