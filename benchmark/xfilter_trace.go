package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"smoke/internal/core"
	"smoke/internal/exec"
	"smoke/internal/expr"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/plan"
	"smoke/internal/pool"
	"smoke/internal/server"
	"smoke/internal/serverclient"
	"smoke/internal/sql"
)

// countingTransport counts the bytes the client puts on and takes off the
// wire (traced run only).
type countingTransport struct {
	next      http.RoundTripper
	req, resp atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.ContentLength > 0 {
		c.req.Add(r.ContentLength)
	}
	resp, err := c.next.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.resp}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// num reads a /healthz counter (the client decodes numbers as json.Number).
func num(h map[string]any, key string) float64 {
	switch v := h[key].(type) {
	case json.Number:
		f, _ := v.Float64()
		return f
	case float64:
		return v
	}
	return 0
}

// shardSum sums one per-shard counter of a coordinator's /healthz.
func shardSum(h map[string]any, key string) float64 {
	var sum float64
	shards, _ := h["per_shard"].([]any)
	for _, s := range shards {
		if m, ok := s.(map[string]any); ok {
			sum += num(m, key)
		}
	}
	return sum
}

// serve sends one request straight into a handler, without the network.
func serve(h http.Handler, method, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

// handlerSession is a session driven through ServeHTTP directly.
type handlerSession struct {
	h  http.Handler
	id string
}

func openHandlerSession(h http.Handler) (*handlerSession, error) {
	code, body := serve(h, http.MethodPost, "/v1/sessions", []byte("{}"))
	var out struct {
		ID string `json:"id"`
	}
	if code != http.StatusCreated || json.Unmarshal(body, &out) != nil || out.ID == "" {
		return nil, fmt.Errorf("handler session: status %d: %s", code, body)
	}
	return &handlerSession{h: h, id: out.ID}, nil
}

// post sends a run or trace request for the named result and reports
// whether the handler answered from its cache.
func (s *handlerSession) post(name, suffix string, req any) (cached bool, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return false, err
	}
	code, resp := serve(s.h, http.MethodPost, "/v1/sessions/"+s.id+"/results/"+name+suffix, body)
	if code != http.StatusOK {
		return false, fmt.Errorf("handler answered %d: %.200s", code, resp)
	}
	var out struct {
		Cached bool `json:"cached"`
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		return false, err
	}
	return out.Cached, nil
}

func (s *handlerSession) close() error {
	if code, body := serve(s.h, http.MethodDelete, "/v1/sessions/"+s.id, nil); code != http.StatusNoContent {
		return fmt.Errorf("handler session close: status %d: %s", code, body)
	}
	return nil
}

// ladderOp is what one replayed op measured at each rung, in milliseconds.
type ladderOp struct {
	class               opClass
	client, handler     float64 // serverclient call; ServeHTTP of the deployment
	refHandler          float64 // single-node ServeHTTP (shard2 only)
	composite           float64 // the engine calls the handler performs, made directly
	coreCall, coreParts float64 // opaque Query.Run of a trace; its Plan+Optimize+RunPlan
	agree               bool    // every rung saw the same cache outcome
}

// tracedRun is the xfilter-* traced pass: a counter window under the real
// concurrent load, a one-client window, the ladder replay, and the layer
// probes on the workload's own view statement.
func (x *xfRun) tracedRun(ctx context.Context, cfg config, out *outcome) error {
	m, d := out.layer, x.d
	sharded := d.sharded()
	if sharded {
		m["shard.ingest_ms"] = d.ingestMS
	} else {
		m["server.ingest_ms"] = d.ingestMS
	}
	retained := func(h map[string]any) float64 {
		if sharded {
			return shardSum(h, "retained_bytes")
		}
		return num(h, "retained_bytes")
	}

	// ---- counter window: the untraced run's load, counted -------------------
	before, err := d.client.Health(ctx)
	if err != nil {
		return err
	}
	var depthMax atomic.Int64
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	var sessionBytes atomic.Int64
	sampler.Add(1)
	go func() { // flusher queue depth and retained bytes, sampled every 100 ms
		defer sampler.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				h, err := d.client.Health(ctx)
				if err != nil {
					continue
				}
				if q := int64(num(h, "flusher_queue_depth")); q > depthMax.Load() {
					depthMax.Store(q)
				}
				if n := num(h, "sessions"); n > 0 {
					sessionBytes.Store(int64(retained(h) / n))
				}
			}
		}
	}()
	wire0 := [2]int64{d.wire.req.Load(), d.wire.resp.Load()}
	clients := x.newClients(xfClients)
	x.window(ctx, clients, cfg.dur(0.1))
	runtime.GC()
	probe := startRuntimeProbe()
	w2 := x.window(ctx, clients, cfg.dur(0.3))
	attempted, failed, _ := w2.counts()
	for k, v := range probe.finish(attempted) {
		m[k] = v
	}
	close(stop)
	sampler.Wait()
	after, err := d.client.Health(ctx)
	if err != nil {
		return err
	}
	out.attempted, out.failed = attempted, failed
	ops2 := float64(max(attempted, 1))
	m["serverclient.req_bytes_per_op"] = float64(d.wire.req.Load()-wire0[0]) / ops2
	m["serverclient.resp_bytes_per_op"] = float64(d.wire.resp.Load()-wire0[1]) / ops2
	if total := w2.cachedBase[1] + w2.cachedTrace[1]; total > 0 {
		m["server.cache_hit_rate"] = float64(w2.cachedBase[0]+w2.cachedTrace[0]) / float64(total)
	}
	m["server.rejected_429"] = float64(w2.rejected429)
	m["server.retained_bytes_per_session"] = float64(sessionBytes.Load())
	delta := func(key string) float64 { return num(after, key) - num(before, key) }
	for metric, key := range map[string]string{
		"server.demotes": "demotes", "server.promotes": "promotes", "server.views": "views",
		"server.insitu_traces": "insitu_traces", "server.write_behind": "write_behind",
		"server.flush_errors": "flush_errors", "server.lazy_fallbacks": "lazy_fallbacks",
	} {
		m[metric] = delta(key)
	}
	m["server.flusher_queue_depth_max"] = float64(depthMax.Load())
	if demoted := m["server.insitu_traces"] + m["server.promotes"]; demoted > 0 {
		m["server.insitu_share"] = m["server.insitu_traces"] / demoted
	}
	if sharded {
		m["shard.scatters"], m["shard.proxied"] = delta("scatters"), delta("proxied")
		m["shard.merged_traces"], m["shard.shard_errors"] = delta("merged_traces"), delta("shard_errors")
		m["shard.calls_per_request"] = (shardSum(after, "calls") - shardSum(before, "calls")) / ops2
	}
	if err := x.assertShape(m); err != nil {
		return err
	}

	// ---- one client: what two clients add is contention ---------------------
	w1 := x.window(ctx, x.newClients(1), cfg.dur(0.15))
	trace1, trace2 := w1.byClass(clsTrace), w2.byClass(clsTrace)
	if len(trace1) == 0 || len(trace2) == 0 {
		return fmt.Errorf("traced run: a counter window completed no trace")
	}
	m["server.contention_ms"] = median(trace2) - median(trace1)

	// ---- the ladder ---------------------------------------------------------
	out.rec = newRecorder()
	rungs, played, err := x.ladder(ctx, out.rec, time.Now().Add(cfg.dur(0.3)), ladderSessions, false)
	if err != nil {
		return err
	}
	// The same sessions again through the top rung only: what the ladder's
	// own bookkeeping adds to a client call.
	plain, _, err := x.ladder(ctx, newRecorder(), time.Now().Add(cfg.dur(1)), played, true)
	if err != nil {
		return err
	}
	pick := func(class opClass, f func(ladderOp) float64) []float64 {
		var xs []float64
		for _, o := range rungs {
			if o.class == class && o.agree {
				xs = append(xs, f(o))
			}
		}
		return xs
	}
	single := func(o ladderOp) float64 { // the single-node handler's time
		if sharded {
			return o.refHandler
		}
		return o.handler
	}
	for _, c := range []struct {
		class opClass
		name  string
	}{{clsBase, "base"}, {clsTrace, "trace"}} {
		if len(pick(c.class, single)) == 0 {
			return fmt.Errorf("ladder replayed no %s op whose rungs agree on the cache outcome", c.name)
		}
		m["server.handler_"+c.name+"_ms"] = median(pick(c.class, single))
		m["server.self_"+c.name+"_ms"] = median(pick(c.class, func(o ladderOp) float64 { return single(o) - o.composite }))
		if sharded {
			m["shard.handler_"+c.name+"_ms"] = median(pick(c.class, func(o ladderOp) float64 { return o.handler }))
			m["shard.overhead_"+c.name+"_ratio"] = median(pick(c.class, func(o ladderOp) float64 { return o.handler / o.refHandler }))
		}
	}
	overhead := append(pick(clsBase, func(o ladderOp) float64 { return o.client - o.handler }),
		pick(clsTrace, func(o ladderOp) float64 { return o.client - o.handler })...)
	m["serverclient.overhead_ms"] = median(overhead)
	m["server.session_create_ms"] = median(out.rec.durationsMS(d.layer(), "ServeHTTP session_create"))
	m["server.session_close_ms"] = median(out.rec.durationsMS(d.layer(), "ServeHTTP session_close"))
	var coverage []float64
	for _, o := range rungs {
		if o.coreCall > 0 {
			coverage = append(coverage, o.coreParts/o.coreCall)
		}
	}
	m["trace.coverage_frac"] = median(coverage)
	clientMS := func(ops []ladderOp) float64 {
		var xs []float64
		for _, o := range ops {
			if o.class == clsTrace {
				xs = append(xs, o.client)
			}
		}
		return median(xs)
	}
	m["trace.overhead_frac"] = (clientMS(rungs) - clientMS(plain)) / clientMS(plain)
	out.shares = map[string]map[string]float64{
		"Session.Trace": layerShares(out.rec.spans, "Session.Trace"),
		"Session.Run":   layerShares(out.rec.spans, "Session.Run"),
	}

	// ---- layer probes on the workload's own view statement ------------------
	pl := pool.New(workers)
	defer pl.Close()
	w := x.script.windows[0]
	kit := probeKit{
		db: x.ref.db, pool: pl, stmt: x.script.viewSQL(0, 0, 0), table: xfTable, rel: x.ref.rel,
		filter:     expr.AndE(expr.GeE(expr.C("date"), expr.I(int64(w[0]))), expr.LtE(expr.C("date"), expr.I(int64(w[1])))),
		key:        xfDims[0],
		consumeKey: xfDims[firstTarget(0)],
	}
	for _, bar := range x.ref.bars[0][0] {
		kit.seeds = append(kit.seeds, core.Rid(bar.rid))
	}
	for r := 0; r < x.ref.rel.N; r += max(1, x.ref.rel.N/1000) {
		kit.fwd = append(kit.fwd, core.Rid(r))
	}
	if err := kit.measure(m); err != nil {
		return err
	}
	if d.kind == "xfilter-churn" {
		res, err := runView(x.ref.db, kit.stmt, core.CaptureOptions{Mode: ops.Inject, Compress: true})
		if err != nil {
			return err
		}
		return diskstoreProbes(x.ref.db, res, x.ref.rel, cfg.tmpDir, m)
	}
	return nil
}

// assertShape keeps a script or sizing change from silently turning a
// workload into a different test: xfilter-http must neither be a cache test
// nor cache-free and must never touch the disk tier; xfilter-churn must
// exercise it.
func (x *xfRun) assertShape(m map[string]float64) error {
	tiers := []string{"server.demotes", "server.promotes", "server.views", "server.insitu_traces", "server.write_behind"}
	switch x.d.kind {
	case "xfilter-http":
		if hr := m["server.cache_hit_rate"]; hr <= 0.1 || hr >= 0.9 {
			return fmt.Errorf("xfilter-http: cache hit rate %.3f is outside (0.1, 0.9); the script no longer mixes shared and fresh fingerprints", hr)
		}
		for _, k := range tiers {
			if m[k] != 0 {
				return fmt.Errorf("xfilter-http: %s = %g, want 0: the workload must fit the retention budget", k, m[k])
			}
		}
	case "xfilter-churn":
		if m["server.demotes"] == 0 || m["server.insitu_traces"]+m["server.promotes"]+m["server.views"] == 0 {
			return fmt.Errorf("xfilter-churn: demotes %g, in-situ %g, promotes %g: the retention budget no longer forces tiering",
				m["server.demotes"], m["server.insitu_traces"], m["server.promotes"])
		}
	}
	return nil
}

// ladderSessions caps the replay; the deadline usually cuts it first.
const ladderSessions = 50

// ladderBrushes is how many brushes of each replayed session are traced.
const ladderBrushes = 4

// ladderRun replays scripted sessions serially, each op down a ladder of
// entry points: the serverclient call over loopback, the same request into
// ServeHTTP of the deployment (and, under the coordinator, of a single-node
// server too), the engine calls the handler performs made directly, and the
// lineage/ops calls under those. Each rung runs in a session of its own with
// its own statement nonce, so a rung never finds the cache warmed by the
// rung above it.
type ladderRun struct {
	x            *xfRun
	ctx          context.Context
	rec          *recorder
	clientOnly   bool // the untraced twin: only the top rung, to price the tracing itself
	handlerLayer string
	refSrv       *server.Server // single-node reference under the coordinator, else nil
	popts        exec.PlanOpts
	req          int

	// The session being replayed, one handle per rung.
	script xfSession
	nonces [3]int64
	cs     *serverclient.Session
	hs, rs *handlerSession
	views  []*core.Result // the composite rung's own retained views
}

// ladder replays up to maxSessions sessions until the deadline and returns
// what each op measured and how many sessions it played.
func (x *xfRun) ladder(ctx context.Context, rec *recorder, deadline time.Time, maxSessions int, clientOnly bool) ([]ladderOp, int, error) {
	l := &ladderRun{x: x, ctx: ctx, rec: rec, clientOnly: clientOnly, handlerLayer: x.d.layer()}
	if x.d.sharded() && !clientOnly {
		l.refSrv = server.New(server.Config{DB: x.ref.db})
		defer l.refSrv.Close()
	}
	pl := pool.New(workers)
	defer pl.Close()
	l.popts = exec.PlanOpts{Workers: workers, Pool: pl}
	rng := x.script.clientRNG(1000)
	nonce := int64(1 << 40) // far from any nonce the counter windows used
	if clientOnly {
		nonce = 1 << 41
	}
	var out []ladderOp
	played := 0
	for ; played < maxSessions && time.Now().Before(deadline); played++ {
		l.script = x.script.session(rng)
		l.nonces = [3]int64{}
		if !l.script.shared {
			l.nonces = [3]int64{nonce, nonce + 1, nonce + 2}
			nonce += 3
		}
		if err := l.open(); err != nil {
			return nil, 0, err
		}
		for v := range xfDims {
			op, err := l.base(v)
			if err != nil {
				return nil, 0, err
			}
			out = append(out, op)
		}
		for _, b := range l.script.brushes[:min(ladderBrushes, len(l.script.brushes))] {
			bar := b.bar % len(x.ref.bars[l.script.window][b.view])
			for t := range xfDims {
				if t == b.view {
					continue
				}
				op, err := l.trace(b.view, bar, t)
				if err != nil {
					return nil, 0, err
				}
				out = append(out, op)
			}
		}
		if err := l.close(); err != nil {
			return nil, 0, err
		}
	}
	return out, played, nil
}

// under records fn as a replayed child of parent and lays it at parent's
// start.
func (l *ladderRun) under(parent int, layer, name string, fn func()) int {
	mark := len(l.rec.spans)
	id := l.rec.call(l.req, parent, layer, name, fn)
	l.rec.rebase(mark, parent)
	return id
}

func (l *ladderRun) open() error {
	l.req++
	var err error
	a := l.rec.call(l.req, 0, "serverclient", "NewSession", func() { l.cs, err = l.x.d.client.NewSession(l.ctx) })
	if err != nil || l.clientOnly {
		return err
	}
	l.under(a, l.handlerLayer, "ServeHTTP session_create", func() { l.hs, err = openHandlerSession(l.x.d.handler) })
	if err == nil && l.refSrv != nil {
		l.rs, err = openHandlerSession(l.refSrv)
	}
	l.views = make([]*core.Result, len(xfDims))
	return err
}

func (l *ladderRun) close() error {
	l.req++
	var err error
	a := l.rec.call(l.req, 0, "serverclient", "Session.Close", func() { err = l.cs.Close(l.ctx) })
	if err != nil || l.clientOnly {
		return err
	}
	l.under(a, l.handlerLayer, "ServeHTTP session_close", func() { err = l.hs.close() })
	if err == nil && l.rs != nil {
		err = l.rs.close()
	}
	return err
}

func spanMS(rec *recorder, id int) float64 { return float64(rec.spans[id-1].durNS()) / 1e6 }

// handlerRungs replays a request into the deployment's handler (a span under
// the client call a) and, under the coordinator, into the single-node
// reference. It returns the handler span and whether it answered from cache.
func (l *ladderRun) handlerRungs(op *ladderOp, a int, what, name, suffix string, body, refBody any, clientCached bool) (h int, cached bool, err error) {
	h = l.under(a, l.handlerLayer, "ServeHTTP "+what, func() { cached, err = l.hs.post(name, suffix, body) })
	if err != nil {
		return 0, false, err
	}
	op.handler, op.agree = spanMS(l.rec, h), cached == clientCached
	if l.rs != nil {
		var refCached bool
		op.refHandler = timeMS(func() { refCached, err = l.rs.post(name, suffix, refBody) })
		op.agree = op.agree && refCached == cached
	}
	return h, cached, err
}

// base replays one view query down the ladder and keeps the composite rung's
// retained result for the session's traces.
func (l *ladderRun) base(view int) (ladderOp, error) {
	x, rec, db, window := l.x, l.rec, l.x.ref.db, l.script.window
	l.req++
	op := ladderOp{class: clsBase}
	name := viewName(view, "")
	body := func(rung int) serverclient.QueryRequest {
		r := xfRaw
		r.SQL = x.script.viewSQL(window, view, l.nonces[rung])
		return r
	}

	var got *serverclient.Result
	var err error
	a := rec.call(l.req, 0, "serverclient", "Session.Run", func() { got, err = l.cs.Run(l.ctx, name, body(0)) })
	if err != nil {
		return op, err
	}
	if digestServed(got) != x.ref.base[window][view] {
		return op, fmt.Errorf("ladder: view %s of window %d answered wrongly", xfDims[view], window)
	}
	op.client = spanMS(rec, a)
	if l.clientOnly {
		return op, nil
	}
	h, cached, err := l.handlerRungs(&op, a, "base", name, "", body(1), body(2), got.Cached)
	if err != nil {
		return op, err
	}

	// The engine calls handleRunResult performs, made directly.
	stmt := body(1).SQL
	var st *sql.Stmt
	var node, opt plan.Node
	first := len(rec.spans)
	rec.call(l.req, h, "sql", "Parse", func() { st, err = sql.Parse(stmt) })
	if err == nil {
		rec.call(l.req, h, "sql", "Lower", func() { node, err = sql.Lower(db, st) })
	}
	if err != nil {
		return op, err
	}
	var fired []plan.Trace
	o := rec.call(l.req, h, "plan", "Optimize", func() { opt, fired = plan.Optimize(node, plan.Opts{Catalog: db.Catalog()}) })
	rec.count(o, "rules_fired", int64(len(fired)))
	rec.call(l.req, h, "plan", "Fingerprint", func() { _ = plan.Fingerprint(opt) })
	if !cached {
		popts := l.popts
		popts.Mode = ops.Inject
		var pres exec.PlanResult
		e := rec.call(l.req, h, "exec", "RunPlan", func() { pres, err = exec.RunPlan(opt, popts) })
		if err != nil {
			return op, err
		}
		rec.count(e, "rows_out", int64(pres.Out.N))
		rec.call(l.req, h, "server", "json.Marshal", func() { err = marshalResult(pres.Out) })
	}
	for _, s := range rec.spans[first:] {
		op.composite += float64(s.durNS()) / 1e6
	}
	rebaseSequential(rec, first, h)

	// Untimed: the result this rung's later traces bind to.
	l.views[view], err = runView(db, stmt, core.CaptureOptions{Mode: ops.Inject})
	return op, err
}

// trace replays one bound trace request down the ladder.
func (l *ladderRun) trace(view, bar, target int) (ladderOp, error) {
	x, rec, db, window := l.x, l.rec, l.x.ref.db, l.script.window
	l.req++
	op := ladderOp{class: clsTrace}
	rid := x.ref.bars[window][view][bar].rid
	name, body := viewName(view, ""), xfTraceReq(rid, target)

	var got *serverclient.Result
	var err error
	a := rec.call(l.req, 0, "serverclient", "Session.Trace", func() { got, err = l.cs.Trace(l.ctx, name, body) })
	if err != nil {
		return op, err
	}
	if digestServed(got) != x.ref.trace[window][view][bar][target] {
		return op, fmt.Errorf("ladder: trace of window %d view %s bar %d answered wrongly", window, xfDims[view], bar)
	}
	op.client = spanMS(rec, a)
	if l.clientOnly {
		return op, nil
	}
	h, cached, err := l.handlerRungs(&op, a, "trace", name, "/trace", body, body, got.Cached)
	if err != nil || cached {
		return op, err // answered from the cache: nothing below the handler ran
	}

	// The engine call handleTrace performs, opaque ...
	bound := l.views[view]
	query := func() *core.Query { return xfTraceQuery(db, bound, rid, target) }
	first := len(rec.spans)
	var traced *core.Result
	c := rec.call(l.req, h, "core", "Query.Trace.Run", func() { traced, err = query().Run(core.CaptureOptions{}) })
	if err != nil {
		return op, err
	}
	j := rec.call(l.req, h, "server", "json.Marshal", func() { err = marshalResult(traced.Out) })
	op.coreCall = spanMS(rec, c)
	op.composite = op.coreCall + spanMS(rec, j)

	// ... and decomposed: plan, optimize, execute.
	parts := len(rec.spans)
	var node plan.Node
	rec.call(l.req, c, "core", "Query.Plan", func() { node, err = query().Plan() })
	if err != nil {
		return op, err
	}
	rec.call(l.req, c, "plan", "OptimizeNoTrace", func() { node = plan.OptimizeNoTrace(node, plan.Opts{Catalog: db.Catalog()}) })
	e := rec.call(l.req, c, "exec", "RunPlan", func() { _, err = exec.RunPlan(node, l.popts) })
	if err != nil {
		return op, err
	}
	for _, s := range rec.spans[parts:] {
		op.coreParts += float64(s.durNS()) / 1e6
	}

	// Under exec: the lineage read and the re-aggregation over the traced rids.
	under := len(rec.spans)
	var rids []lineage.Rid
	rec.call(l.req, e, "lineage", "Capture.Backward", func() { rids, err = bound.Capture().Backward(xfTable, []lineage.Rid{lineage.Rid(rid)}) })
	if err != nil {
		return op, err
	}
	spec := ops.GroupBySpec{Keys: []string{xfDims[target]}, Aggs: []ops.AggSpec{{Fn: ops.Count, Name: "cnt"}}}
	g := rec.call(l.req, e, "ops", "HashAgg", func() {
		_, err = ops.HashAgg(x.ref.rel, rids, spec, ops.AggOpts{Workers: l.popts.Workers, Pool: l.popts.Pool, DupRids: true})
	})
	rec.count(g, "rids_in", int64(len(rids)))
	rebaseSequential(rec, under, e)
	rebaseSequential(rec, parts, c)
	rebaseSequential(rec, first, h)
	return op, err
}

// rebaseSequential lays the direct children of parent recorded since mark
// end to end from parent's start, each with everything recorded under it:
// they decompose parent by replay, one call after another.
func rebaseSequential(rec *recorder, mark, parent int) {
	cursor := rec.spans[parent-1].StartNS
	for i := mark; i < len(rec.spans); i++ {
		if rec.spans[i].Parent != parent {
			continue
		}
		shift := cursor - rec.spans[i].StartNS
		for j := i; j < len(rec.spans); j++ {
			if j == i || descends(rec, j, rec.spans[i].ID) {
				rec.spans[j].StartNS += shift
				rec.spans[j].EndNS += shift
				rec.spans[j].Replay = true
			}
		}
		cursor = rec.spans[i].EndNS
	}
}

func descends(rec *recorder, i, ancestor int) bool {
	for p := rec.spans[i].Parent; p != 0; p = rec.spans[p-1].Parent {
		if p == ancestor {
			return true
		}
	}
	return false
}
