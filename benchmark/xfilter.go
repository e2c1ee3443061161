package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"smoke/internal/core"
	"smoke/internal/diskstore"
	"smoke/internal/ontime"
	"smoke/internal/ops"
	"smoke/internal/server"
	"smoke/internal/serverclient"
	"smoke/internal/shard"
	"smoke/internal/sql"
	"smoke/internal/storage"
)

// The three xfilter-* workloads run one script — crossfilter sessions over
// the HTTP API — against three deployments. Only the deployment differs, so
// a metric's ratio between two of them is the cost of what differs.

const (
	xfTable   = "ontime"
	xfClients = 2 // closed-loop users; with `workers` engine workers this fills the 2-core box
)

var xfDims = ontime.Dims()

// xfSizes scales the script. Windows have one fixed width so the work of a
// view query does not depend on which window the seed drew.
type xfSizes struct {
	rows, airports, days int
	windows, width       int
	bars                 int // brushable bars per view: its largest groups
	brushes              int // per session
	sharedPct            int // share of sessions whose fingerprints other sessions can reuse
}

func xfSizesFor(size string) xfSizes {
	if size == "tiny" {
		return xfSizes{rows: 6_000, airports: 100, days: 120, windows: 3, width: 40, bars: 3, brushes: 2, sharedPct: 30}
	}
	return xfSizes{rows: 500_000, airports: 2000, days: 2000, windows: 12, width: 500, bars: 8, brushes: 30, sharedPct: 30}
}

// xfScript is the seeded op script: which windows exist and how a client's
// random stream becomes sessions. The engine only ever sees its output.
type xfScript struct {
	sz      xfSizes
	seed    int64
	windows [][2]int // [lo, hi) date bounds
	winCDF  []float64
	barCDF  []float64
}

// xfBrush is one interaction: brushing bar of view updates the three other
// views, one bound backward trace request each. A probe brush repeats its
// first trace against the view's compressed copy and as a stateless
// re-execution (a LINEAGE BACKWARD statement over /v1/query).
type xfBrush struct {
	view, bar int
	probe     bool
}

// xfSession is one user session: retain four views of a window, retain a
// compressed copy of the designated view and run it once capture-free, brush.
type xfSession struct {
	window     int
	shared     bool // statement text (and so fingerprint) shared with other shared sessions
	designated int
	brushes    []xfBrush
}

func newXFScript(seed int64, sz xfSizes) *xfScript {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	s := &xfScript{sz: sz, seed: seed, winCDF: zipfCDF(sz.windows, 1.0), barCDF: zipfCDF(sz.bars, 0.5)}
	for w := 0; w < sz.windows; w++ {
		lo := rng.Intn(sz.days - sz.width)
		s.windows = append(s.windows, [2]int{lo, lo + sz.width})
	}
	return s
}

func (s *xfScript) clientRNG(client int) *rand.Rand {
	return rand.New(rand.NewSource(s.seed*1_000_003 + int64(client)*101 + 1))
}

func (s *xfScript) session(rng *rand.Rand) xfSession {
	sess := xfSession{
		window:     pickCDF(rng, s.winCDF),
		shared:     rng.Intn(100) < s.sz.sharedPct,
		designated: rng.Intn(len(xfDims)),
	}
	for i := 0; i < s.sz.brushes; i++ {
		b := xfBrush{view: rng.Intn(len(xfDims)), bar: pickCDF(rng, s.barCDF)}
		// Every other brush of the designated view probes the two copies.
		b.probe = b.view == sess.designated && rng.Intn(2) == 0
		sess.brushes = append(sess.brushes, b)
	}
	return sess
}

// viewSQL is a view's base query. nonce only changes the statement text: the
// delay predicate passes every row for any nonce >= 0, so the answer is the
// window's answer while the plan fingerprint is the session's own.
func (s *xfScript) viewSQL(window, view int, nonce int64) string {
	w := s.windows[window]
	return fmt.Sprintf("SELECT %s, COUNT(*) AS cnt FROM %s WHERE date >= %d AND date < %d AND delay < %d GROUP BY %s",
		xfDims[view], xfTable, w[0], w[1], 1000+nonce, xfDims[view])
}

func xfTraceReq(bar, target int) serverclient.TraceRequest {
	return serverclient.TraceRequest{
		Direction: "backward", Table: xfTable, Rids: []int64{int64(bar)},
		GroupBy: []string{xfDims[target]},
		Aggs:    []serverclient.Agg{{Fn: "count", Name: "cnt"}},
	}
}

// rerunSQL is the capture-free way to ask a brush's question: re-execute
// the view query with the bar's key pushed down as the seed. It needs no
// retained state, so it is also what a client whose capture was evicted can
// always fall back to.
func (s *xfScript) rerunSQL(window, view int, nonce, barKey int64, target int) string {
	return fmt.Sprintf("SELECT %s, COUNT(*) AS cnt FROM LINEAGE BACKWARD(%s OF %s WHERE %s = %d) GROUP BY %s",
		xfDims[target], s.viewSQL(window, view, nonce), xfTable, xfDims[view], barKey, xfDims[target])
}

// The two retained representations of a view.
var (
	xfRaw = serverclient.QueryRequest{Capture: "inject"}
	xfEnc = serverclient.QueryRequest{Capture: "inject", Compress: true}
)

// ---- in-process reference --------------------------------------------------

// xfRef is in-process execution of every distinct answer the script can ask
// for: the gate compares each deployment against it element by element, and
// the timed window checks every response against its digests.
type xfRef struct {
	db           *core.DB
	rel          *storage.Relation
	bars         [][][]xfBar    // [window][view] the view's brushable bars, largest first
	base         [][]uint64     // [window][view]
	trace        [][][][]uint64 // [window][view][bar][target]
	sessionBytes int64          // retained bytes of one session's five results
	bytesPerRid  float64
}

// xfBar is one brushable bar of a view: its output rid and its group key.
// Bars are a view's largest groups, so their sizes follow the generator's
// distributions and not the order a seed's rows happen to arrive in.
type xfBar struct {
	rid int
	key int64
}

func topBars(res *core.Result, n int) []xfBar {
	order := bySizeDesc(res.GroupCounts)
	bars := make([]xfBar, 0, n)
	for _, rid := range order[:min(n, len(order))] {
		bars = append(bars, xfBar{rid: rid, key: res.Out.Int(0, rid)})
	}
	return bars
}

func xfTraceQuery(db *core.DB, res *core.Result, bar, target int) *core.Query {
	return db.Query().Trace(res, core.TraceBackward, xfTable, core.Rids(core.Rid(bar))).
		GroupBy(xfDims[target]).Agg(ops.Count, nil, "cnt")
}

func runView(db *core.DB, stmt string, opts core.CaptureOptions) (*core.Result, error) {
	q, err := sql.Compile(db, stmt)
	if err != nil {
		return nil, err
	}
	return q.Run(opts)
}

func buildXFRef(s *xfScript, rel *storage.Relation) (*xfRef, error) {
	db := core.Open(core.WithWorkers(workers))
	db.Register(rel)
	r := &xfRef{db: db, rel: rel}
	var encBytes, encEdges int64
	for w := range s.windows {
		bd, td, bars := make([]uint64, len(xfDims)), make([][][]uint64, len(xfDims)), make([][]xfBar, len(xfDims))
		for v := range xfDims {
			stmt := s.viewSQL(w, v, 0)
			raw, err := runView(db, stmt, core.CaptureOptions{Mode: ops.Inject})
			if err != nil {
				return nil, fmt.Errorf("reference view %q: %w", stmt, err)
			}
			bd[v], bars[v] = digestRelation(raw.Out), topBars(raw, s.sz.bars)
			if w == 0 {
				r.sessionBytes += raw.MemBytes()
			}
			td[v] = make([][]uint64, len(bars[v]))
			for b, bar := range bars[v] {
				td[v][b] = make([]uint64, len(xfDims))
				for t := range xfDims {
					if t == v {
						continue
					}
					tr, err := xfTraceQuery(db, raw, bar.rid, t).Run(core.CaptureOptions{})
					if err != nil {
						return nil, fmt.Errorf("reference trace w%d v%d b%d t%d: %w", w, v, b, t, err)
					}
					td[v][b][t] = digestRelation(tr.Out)
				}
			}
			if v != w%len(xfDims) {
				continue
			}
			// The window's probes: the compressed copy and the stateless
			// re-execution must give the raw capture's answer before anything is
			// timed against them.
			enc, err := runView(db, stmt, core.CaptureOptions{Mode: ops.Inject, Compress: true})
			if err != nil {
				return nil, err
			}
			encBytes += enc.Capture().MemBytes()
			encEdges += captureEdges(enc.Capture())
			if w == 0 {
				r.sessionBytes += enc.MemBytes()
			}
			t := firstTarget(v)
			for b, bar := range bars[v] {
				tr, err := xfTraceQuery(db, enc, bar.rid, t).Run(core.CaptureOptions{})
				if err != nil {
					return nil, fmt.Errorf("reference compressed trace w%d v%d b%d: %w", w, v, b, err)
				}
				rr, err := runView(db, s.rerunSQL(w, v, 0, bar.key, t), core.CaptureOptions{})
				if err != nil {
					return nil, fmt.Errorf("reference re-execution w%d v%d b%d: %w", w, v, b, err)
				}
				for name, got := range map[string]*core.Result{"compressed trace": tr, "re-execution": rr} {
					if digestRelation(got.Out) != td[v][b][t] {
						return nil, fmt.Errorf("in-process %s of window %d view %s bar %d differs from the raw capture's trace", name, w, xfDims[v], b)
					}
				}
			}
		}
		r.base, r.trace, r.bars = append(r.base, bd), append(r.trace, td), append(r.bars, bars)
	}
	if encEdges == 0 {
		return nil, errors.New("reference captures hold no lineage edge; windows select no row")
	}
	r.bytesPerRid = float64(encBytes) / float64(encEdges)
	return r, nil
}

// firstTarget is the view a probe brush of view v re-aggregates into.
func firstTarget(v int) int { return (v + 1) % len(xfDims) }

// ---- deployments -----------------------------------------------------------

// xfDeploy is one server under test behind a loopback httptest.Server.
type xfDeploy struct {
	kind     string
	handler  http.Handler
	ts       *httptest.Server
	hc       *http.Client
	client   *serverclient.Client
	wire     *countingTransport // non-nil in the traced run only
	closers  []func() error
	ingestMS float64
}

func csvOf(rel *storage.Relation) []byte {
	buf := make([]byte, 0, rel.N*20)
	for c, f := range rel.Schema {
		if c > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, f.Name...)
	}
	buf = append(buf, '\n')
	for i := 0; i < rel.N; i++ {
		for c := range rel.Schema {
			if c > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, rel.Cols[c].Ints[i], 10)
		}
		buf = append(buf, '\n')
	}
	return buf
}

// ingestCSV posts the table over the HTTP ingest endpoint. serverclient has
// no CSV call that carries ?dist=, and a JSON body of boxed rows would make
// the generator, not the server, the process's peak memory.
func ingestCSV(hc *http.Client, base string, body []byte, dist string) error {
	url := base + "/v1/tables/" + xfTable + "?types=int,int,int,int"
	if dist != "" {
		url += "&dist=" + dist
	}
	resp, err := hc.Post(url, "text/csv", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ingest answered %d: %s", resp.StatusCode, msg)
	}
	return nil
}

// buildXFDeploy constructs the deployment and ingests the table; its wall
// time is one set-up sample.
func buildXFDeploy(kind string, csvBody []byte, sessionBytes int64, tmpRoot string, countWire bool) (*xfDeploy, error) {
	d := &xfDeploy{kind: kind}
	dist := ""
	switch kind {
	case "xfilter-http":
		db := core.Open(core.WithWorkers(workers))
		srv := server.New(server.Config{DB: db})
		d.handler = srv
		d.closers = append(d.closers, srv.Close, func() error { db.Close(); return nil })
	case "xfilter-churn":
		dir, err := os.MkdirTemp(tmpRoot, "churn-")
		if err != nil {
			return nil, err
		}
		store, err := diskstore.Open(dir)
		if err != nil {
			return nil, err
		}
		db := core.Open(core.WithWorkers(workers))
		srv := server.New(server.Config{
			DB: db, Store: store,
			MaxRetainedBytes: sessionBytes * 3 / 2,
			CacheEntries:     -1,
		})
		d.handler = srv
		d.closers = append(d.closers, srv.Close, store.Close,
			func() error { db.Close(); return nil }, func() error { return os.RemoveAll(dir) })
	case "xfilter-shard2":
		coord := shard.New(shard.Config{Shards: 2, Workers: 1})
		d.handler = coord
		d.closers = append(d.closers, coord.Close)
		dist = "shard"
	default:
		return nil, fmt.Errorf("unknown deployment %q", kind)
	}
	d.ts = httptest.NewServer(d.handler)
	d.hc = d.ts.Client()
	if countWire {
		d.wire = &countingTransport{next: d.hc.Transport}
		d.hc = &http.Client{Transport: d.wire}
	}
	d.client = serverclient.New(d.ts.URL, d.hc)
	var err error
	d.ingestMS = timeMS(func() { err = ingestCSV(d.hc, d.ts.URL, csvBody, dist) })
	if err != nil {
		d.close()
		return nil, fmt.Errorf("%s: %w", kind, err)
	}
	return d, nil
}

func (d *xfDeploy) sharded() bool { return d.kind == "xfilter-shard2" }

// layer names the package whose handler fronts the deployment.
func (d *xfDeploy) layer() string {
	if d.sharded() {
		return "shard"
	}
	return "server"
}

func (d *xfDeploy) close() {
	d.hc.CloseIdleConnections()
	d.ts.Close()
	for _, c := range d.closers {
		if err := c(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: close: %v\n", d.kind, err)
		}
	}
}

// ---- the closed loop -------------------------------------------------------

// xfRun is one workload process: script, reference and the deployment.
type xfRun struct {
	script *xfScript
	ref    *xfRef
	d      *xfDeploy
}

// xfClient is one closed-loop user: it sends its next request only after
// the previous one answered.
type xfClient struct {
	x        *xfRun
	id       int
	rng      *rand.Rand
	sessions int64
	st       *windowStats
}

func (x *xfRun) newClients(n int) []*xfClient {
	cs := make([]*xfClient, n)
	for i := range cs {
		cs[i] = &xfClient{x: x, id: i, rng: x.script.clientRNG(i)}
	}
	return cs
}

// op times one request, checks its answer against the reference digest and
// records the sample. A refusal or error is a failed op. fresh reports a
// correct answer the server computed rather than took from its result cache:
// only fresh ops pair into the claim ratios, which compare mechanisms, not
// cache luck.
func (c *xfClient) op(class opClass, want uint64, call func() (*serverclient.Result, error)) (ms float64, fresh bool) {
	t0 := time.Now()
	res, err := call()
	ms = float64(time.Since(t0).Nanoseconds()) / 1e6
	ok := err == nil && (res == nil || digestServed(res) == want)
	var se *serverclient.Error
	if errors.As(err, &se) && se.Status == http.StatusTooManyRequests {
		c.st.rejected429++
	}
	if res != nil {
		switch class {
		case clsBase, clsBaseEnc, clsBaseNone:
			c.st.cachedBase[1]++
			if res.Cached {
				c.st.cachedBase[0]++
			}
		case clsTrace, clsTraceEnc, clsTraceLazy:
			c.st.cachedTrace[1]++
			if res.Cached {
				c.st.cachedTrace[0]++
			}
		}
	}
	c.st.add(class, ms, ok)
	return ms, ok && (res == nil || !res.Cached)
}

// runSession plays one scripted session. Ops are only started before the
// deadline; a session cut short is still closed, untimed.
func (c *xfClient) runSession(ctx context.Context, s xfSession, deadline time.Time) {
	x, sc := c.x, c.x.script
	expired := func() bool { return !time.Now().Before(deadline) }
	var nonce int64
	if !s.shared {
		c.sessions++
		nonce = c.sessions*xfClients + int64(c.id) + 1
	}
	var sess *serverclient.Session
	_, ok := c.op(clsSessionCreate, 0, func() (*serverclient.Result, error) {
		var err error
		sess, err = x.d.client.NewSession(ctx)
		return nil, err
	})
	if !ok {
		return
	}
	closed := false
	defer func() {
		if !closed {
			_ = sess.Close(ctx) // past the deadline: tidy up, untimed
		}
	}()

	run := func(class opClass, name string, view int, req serverclient.QueryRequest) (float64, bool) {
		req.SQL = sc.viewSQL(s.window, view, nonce)
		return c.op(class, x.ref.base[s.window][view], func() (*serverclient.Result, error) {
			return sess.Run(ctx, name, req)
		})
	}
	var rawDesignated float64 // 0 unless the designated view's capture run was fresh
	for v := range xfDims {
		if expired() {
			return
		}
		ms, fresh := run(clsBase, viewName(v, ""), v, xfRaw)
		if fresh && v == s.designated {
			rawDesignated = ms
		}
	}
	if expired() {
		return
	}
	run(clsBaseEnc, viewName(s.designated, "c"), s.designated, xfEnc)
	if expired() {
		return
	}
	// The same statement with capture off, stateless: the paper's baseline.
	noneSQL := sc.viewSQL(s.window, s.designated, nonce)
	ms, fresh := c.op(clsBaseNone, x.ref.base[s.window][s.designated], func() (*serverclient.Result, error) {
		return x.d.client.Query(ctx, serverclient.QueryRequest{SQL: noneSQL})
	})
	if fresh && rawDesignated > 0 {
		c.st.capture = append(c.st.capture, pair{num: rawDesignated, den: ms, stratum: s.designated})
	}

	for _, b := range s.brushes {
		bars := x.ref.bars[s.window][b.view]
		bar := b.bar % len(bars)
		trace := func(class opClass, name string, target int) (float64, bool) {
			return c.op(class, x.ref.trace[s.window][b.view][bar][target], func() (*serverclient.Result, error) {
				return sess.Trace(ctx, name, xfTraceReq(bars[bar].rid, target))
			})
		}
		var rawFirst float64 // 0 unless the first target's raw trace was fresh
		for t := range xfDims {
			if t == b.view {
				continue
			}
			if expired() {
				return
			}
			ms, fresh := trace(clsTrace, viewName(b.view, ""), t)
			if fresh && t == firstTarget(b.view) {
				rawFirst = ms
			}
		}
		if !b.probe {
			continue
		}
		t := firstTarget(b.view)
		if expired() {
			return
		}
		if ms, fresh := trace(clsTraceEnc, viewName(b.view, "c"), t); fresh && rawFirst > 0 {
			c.st.encoded = append(c.st.encoded, pair{num: ms, den: rawFirst, stratum: b.view})
		}
		if expired() {
			return
		}
		rerun := sc.rerunSQL(s.window, b.view, nonce, bars[bar].key, t)
		ms, fresh := c.op(clsTraceLazy, x.ref.trace[s.window][b.view][bar][t], func() (*serverclient.Result, error) {
			return x.d.client.Query(ctx, serverclient.QueryRequest{SQL: rerun})
		})
		if fresh && rawFirst > 0 {
			c.st.rerun = append(c.st.rerun, pair{num: rawFirst, den: ms, stratum: b.view})
		}
	}
	if expired() {
		return
	}
	closed = true
	c.op(clsSessionClose, 0, func() (*serverclient.Result, error) { return nil, sess.Close(ctx) })
}

func viewName(view int, suffix string) string { return "v" + strconv.Itoa(view) + suffix }

// window runs the clients concurrently for dur and returns what they
// measured. Clients keep their random streams across windows, so warm-up
// and the timed window are one continuous script.
func (x *xfRun) window(ctx context.Context, clients []*xfClient, dur time.Duration) *windowStats {
	out := newWindow()
	deadline := out.start.Add(dur)
	var wg sync.WaitGroup
	for _, c := range clients {
		c.st = &windowStats{start: out.start}
		wg.Add(1)
		go func(c *xfClient) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c.runSession(ctx, x.script.session(c.rng), deadline)
			}
		}(c)
	}
	wg.Wait()
	out.windowS = time.Since(out.start).Seconds()
	for _, c := range clients {
		out.merge(c.st, true)
	}
	return out
}

// ---- equality gate ---------------------------------------------------------

// gate asks the deployment, serially and untimed, for every distinct answer
// the script can request — each (window, view) base result and each
// (window, view, bar, target) trace, plus the designated view's compressed
// copy and stateless re-execution — and requires each to be element-identical
// to in-process execution.
func (x *xfRun) gate(ctx context.Context) error {
	s, ref := x.script, x.ref
	for w := range s.windows {
		sess, err := x.d.client.NewSession(ctx)
		if err != nil {
			return fmt.Errorf("gate: new session: %w", err)
		}
		check := func(what string, got *serverclient.Result, err error, want uint64) error {
			if err != nil {
				return fmt.Errorf("gate: %s: %w", what, err)
			}
			if digestServed(got) != want {
				return fmt.Errorf("gate: %s on %s is not element-identical to in-process execution", what, x.d.kind)
			}
			return nil
		}
		for v := range xfDims {
			copies := map[string]serverclient.QueryRequest{"": xfRaw}
			designated := v == w%len(xfDims)
			if designated {
				copies["c"] = xfEnc
			}
			for suffix, req := range copies {
				req.SQL = s.viewSQL(w, v, 0)
				got, err := sess.Run(ctx, viewName(v, suffix), req)
				if err := check(fmt.Sprintf("view %s%s of window %d", xfDims[v], suffix, w), got, err, ref.base[w][v]); err != nil {
					return err
				}
				for b, bar := range ref.bars[w][v] {
					for t := range xfDims {
						if t == v || (suffix != "" && t != firstTarget(v)) {
							continue
						}
						got, err := sess.Trace(ctx, viewName(v, suffix), xfTraceReq(bar.rid, t))
						what := fmt.Sprintf("trace of window %d view %s%s bar %d into %s", w, xfDims[v], suffix, b, xfDims[t])
						if err := check(what, got, err, ref.trace[w][v][b][t]); err != nil {
							return err
						}
					}
				}
			}
			if !designated {
				continue
			}
			got, err := x.d.client.Query(ctx, serverclient.QueryRequest{SQL: s.viewSQL(w, v, 0)})
			if err := check(fmt.Sprintf("capture-free view %s of window %d", xfDims[v], w), got, err, ref.base[w][v]); err != nil {
				return err
			}
			t := firstTarget(v)
			for b, bar := range ref.bars[w][v] {
				got, err := x.d.client.Query(ctx, serverclient.QueryRequest{SQL: s.rerunSQL(w, v, 0, bar.key, t)})
				what := fmt.Sprintf("re-execution of window %d view %s bar %d into %s", w, xfDims[v], b, xfDims[t])
				if err := check(what, got, err, ref.trace[w][v][b][t]); err != nil {
					return err
				}
			}
		}
		if err := sess.Close(ctx); err != nil {
			return fmt.Errorf("gate: close session: %w", err)
		}
	}
	return nil
}

// ---- the workload ----------------------------------------------------------

func runXFilter(cfg config) (*outcome, error) {
	ctx := context.Background()
	sz := xfSizesFor(cfg.size)
	script := newXFScript(cfg.seed, sz)

	rel := ontime.Generate(ontime.Config{Rows: sz.rows, Airports: sz.airports, Days: sz.days, Seed: cfg.seed})
	ref, err := buildXFRef(script, rel)
	if err != nil {
		return nil, err
	}
	defer ref.db.Close()
	csvBody := csvOf(rel)

	var d *xfDeploy
	setupS, err := medianSetup(func() (err error) {
		d, err = buildXFDeploy(cfg.workload, csvBody, ref.sessionBytes, cfg.tmpDir, cfg.trace)
		return err
	}, func() { d.close() })
	if err != nil {
		return nil, err
	}
	defer d.close()
	x := &xfRun{script: script, ref: ref, d: d}
	out := &outcome{setupS: setupS, bytesPerRid: ref.bytesPerRid, layer: map[string]float64{}}

	if err := x.gate(ctx); err != nil {
		return nil, err
	}
	if cfg.trace {
		return out, x.tracedRun(ctx, cfg, out)
	}
	clients := x.newClients(xfClients)
	x.window(ctx, clients, cfg.warmup())
	runtime.GC()
	out.window, _ = timedWindow(cfg.window(), func(d time.Duration) (*windowStats, error) {
		return x.window(ctx, clients, d), nil
	})
	return out, nil
}
