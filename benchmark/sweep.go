package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"smoke/internal/core"
	"smoke/internal/datagen"
	"smoke/internal/expr"
	"smoke/internal/ops"
	"smoke/internal/sql"
	"smoke/internal/storage"
)

// trace-sweep: the lineage layer's read side. Set-up captures a skewed and
// a dense group-by three ways; a pass plays one seeded script of traces
// against one representation, and passes cycle raw → compressed → lazy.

type sweepSizes struct {
	rows, groups int
	steps        int // per pass; a multiple of 8
	batch        int // rids per forward trace
	seeds        int // groups per backward or consuming trace
}

func sweepSizesFor(size string) sweepSizes {
	if size == "tiny" {
		return sweepSizes{rows: 8_000, groups: 100, steps: 16, batch: 100, seeds: 2}
	}
	return sweepSizes{rows: 500_000, groups: 1000, steps: 48, batch: 1000, seeds: 8}
}

type stepKind uint8

const (
	stepBackward      stepKind = iota // Result.Trace backward of one group
	stepForward                       // Result.Trace forward of a rid batch
	stepConsume                       // Query.Trace(...).GroupBy(...).Run, capture off
	stepConsumeInject                 // the same with capture on: a base query for further traces
)

// sweepStep is one scripted lineage query.
type sweepStep struct {
	kind  stepKind
	table int
	seeds []core.Rid // output rids (backward, consuming) or base rids (forward)
}

// sweepRep is one way of holding a query's lineage.
type sweepRep struct {
	name  string
	opts  core.CaptureOptions
	trace opClass // class of its trace steps
}

var sweepReps = []sweepRep{
	{"raw", core.CaptureOptions{Mode: ops.Inject}, clsTrace},
	{"compressed", core.CaptureOptions{Mode: ops.Inject, Compress: true}, clsTraceEnc},
	{"lazy", core.CaptureOptions{Strategy: core.StrategyLazy}, clsTraceLazy},
}

var sweepTables = []struct {
	name  string
	theta float64
}{{"skewed", 1.0}, {"dense", 0.0}}

type sweepRun struct {
	sz     sweepSizes
	db     *core.DB
	res    [][]*core.Result // [rep][table]
	script []sweepStep
	want   []uint64 // per step, fixed by the gate
}

// sweepTable is datagen's zipf table plus b, a 16-valued column the
// consuming queries group the traced rows by.
func sweepTable(name string, theta float64, n, g int, seed int64) *storage.Relation {
	src := datagen.Zipf(name, theta, n, g, seed)
	b := make([]int64, n)
	for i := range b {
		b[i] = int64(i % 16)
	}
	return &storage.Relation{
		Name: name, N: n,
		Schema: storage.Schema{src.Schema[0], src.Schema[1], {Name: "b", Type: storage.TInt}, src.Schema[2]},
		Cols:   []storage.Column{src.Cols[0], src.Cols[1], {Ints: b}, src.Cols[2]},
	}
}

// buildSweep generates the tables and captures each group-by three ways; its
// wall time is one set-up sample.
func buildSweep(sz sweepSizes, seed int64) (*sweepRun, error) {
	r := &sweepRun{sz: sz, db: core.Open(core.WithWorkers(workers))}
	for i, t := range sweepTables {
		r.db.Register(sweepTable(t.name, t.theta, sz.rows, sz.groups, seed+int64(i)+1))
	}
	for _, rep := range sweepReps {
		var row []*core.Result
		for _, t := range sweepTables {
			q, err := sql.Compile(r.db, "SELECT z, COUNT(*) AS cnt, SUM(v) AS sv FROM "+t.name+" GROUP BY z")
			if err != nil {
				return nil, err
			}
			res, err := q.Run(rep.opts)
			if err != nil {
				return nil, fmt.Errorf("capture %s %s: %w", t.name, rep.name, err)
			}
			row = append(row, res)
		}
		r.res = append(r.res, row)
	}
	return r, nil
}

// genSweepScript draws the pass script. Steps come in octets — three
// backward traces (the largest, the median and the smallest few groups of
// the group-size order, in seeded order; one group alone traces in
// microseconds, and fixed bands keep a step's size off the seed), a forward
// batch, and two consuming queries each run capture-off then capture-on over
// the same groups — alternating between the two tables.
func genSweepScript(seed int64, sz sweepSizes, groupCounts [][]int64) []sweepStep {
	rng := rand.New(rand.NewSource(seed*31 + 5))
	bands := make([][3][]core.Rid, len(groupCounts))
	for t, counts := range groupCounts {
		order := bySizeDesc(counts)
		n := len(order)
		w := sz.seeds
		for band, lo := range []int{0, (n - w) / 2, n - w} {
			for _, o := range order[lo : lo+w] {
				bands[t][band] = append(bands[t][band], core.Rid(o))
			}
		}
	}
	pick := func(t, band int) []core.Rid {
		b := bands[t][band]
		out := make([]core.Rid, sz.seeds)
		for i, j := range rng.Perm(len(b))[:sz.seeds] {
			out[i] = b[j]
		}
		return out
	}
	var script []sweepStep
	for i := 0; len(script) < sz.steps; i++ {
		t := i % len(groupCounts)
		for band := 0; band < 3; band++ {
			script = append(script, sweepStep{kind: stepBackward, table: t, seeds: pick(t, band)})
		}
		batch := make([]core.Rid, sz.batch)
		for j := range batch {
			batch[j] = core.Rid(rng.Intn(sz.rows))
		}
		script = append(script, sweepStep{kind: stepForward, table: t, seeds: batch})
		for c := 0; c < 2; c++ {
			g := pick(t, (i+c)%3)
			script = append(script,
				sweepStep{kind: stepConsume, table: t, seeds: g},
				sweepStep{kind: stepConsumeInject, table: t, seeds: g})
		}
	}
	return script[:sz.steps]
}

// step runs one scripted lineage query against a representation, reports
// the query's own wall time and returns its answer's digest (computed after
// the clock stops: checking is the benchmark's cost, not the engine's).
func (r *sweepRun) step(rep int, st sweepStep) (ms float64, d uint64, err error) {
	res, table := r.res[rep][st.table], sweepTables[st.table].name
	if st.kind == stepBackward || st.kind == stepForward {
		dir := core.TraceBackward
		if st.kind == stepForward {
			dir = core.TraceForward
		}
		var rids []core.Rid
		ms = timeMS(func() { rids, err = res.Trace(dir, table, core.Rids(st.seeds...)) })
		return ms, digestRids(rids), err
	}
	mode := ops.None
	if st.kind == stepConsumeInject {
		mode = ops.Inject
	}
	var out *core.Result
	ms = timeMS(func() {
		out, err = r.db.Query().Trace(res, core.TraceBackward, table, core.Rids(st.seeds...)).
			GroupBy("b").Agg(ops.Count, nil, "cnt").Agg(ops.Sum, expr.C("v"), "sv").
			Run(core.CaptureOptions{Mode: mode})
	})
	if err != nil {
		return ms, 0, err
	}
	return ms, digestRelation(out.Out), nil
}

// gate requires raw ≡ compressed ≡ lazy on every step of the script — rid
// lists including order and duplicates, consuming outputs cell by cell — and
// fixes the digests the timed passes are checked against.
func (r *sweepRun) gate() error {
	for i, st := range r.script {
		for rep := range sweepReps {
			_, d, err := r.step(rep, st)
			if err != nil {
				return fmt.Errorf("gate: step %d on %s: %w", i, sweepReps[rep].name, err)
			}
			if rep == 0 {
				r.want = append(r.want, d)
			} else if d != r.want[i] {
				return fmt.Errorf("gate: step %d (kind %d, table %s) on the %s capture differs from raw", i, st.kind, sweepTables[st.table].name, sweepReps[rep].name)
			}
		}
	}
	return nil
}

// sweepPass is what one pass of the script measured.
type sweepPass struct {
	totalMS              float64
	consumeMS, consumeIn float64 // summed capture-off and capture-on consuming steps
}

func (r *sweepRun) pass(rep int, w *windowStats) (sweepPass, error) {
	var p sweepPass
	for i, st := range r.script {
		ms, d, err := r.step(rep, st)
		if err != nil {
			return p, fmt.Errorf("step %d on %s: %w", i, sweepReps[rep].name, err)
		}
		class := sweepReps[rep].trace
		if rep == 0 {
			switch st.kind {
			case stepConsume:
				class = clsBaseNone
				p.consumeMS += ms
			case stepConsumeInject:
				class = clsBase
				p.consumeIn += ms
			}
		}
		w.add(class, ms, d == r.want[i])
		p.totalMS += ms
	}
	return p, nil
}

func (r *sweepRun) loop(dur time.Duration) (*windowStats, error) {
	w := newWindow()
	for time.Since(w.start) < dur {
		var ps [3]sweepPass
		for rep := range sweepReps {
			p, err := r.pass(rep, w)
			if err != nil {
				return nil, err
			}
			ps[rep] = p
		}
		raw, enc, lazy := ps[0], ps[1], ps[2]
		w.capture = append(w.capture, pair{num: raw.consumeIn, den: raw.consumeMS})
		w.rerun = append(w.rerun, pair{num: raw.totalMS, den: lazy.totalMS})
		w.encoded = append(w.encoded, pair{num: enc.totalMS, den: raw.totalMS})
	}
	w.windowS = time.Since(w.start).Seconds()
	return w, nil
}

func (r *sweepRun) bytesPerRid() float64 {
	var bytes, edges int64
	for _, res := range r.res[1] {
		bytes += res.Capture().MemBytes()
		edges += captureEdges(res.Capture())
	}
	return float64(bytes) / float64(max(edges, 1))
}

func runSweep(cfg config) (*outcome, error) {
	sz := sweepSizesFor(cfg.size)
	var r *sweepRun
	setupS, err := medianSetup(func() (err error) { r, err = buildSweep(sz, cfg.seed); return err }, func() { r.db.Close() })
	if err != nil {
		return nil, err
	}
	defer r.db.Close()
	out := &outcome{setupS: setupS, bytesPerRid: r.bytesPerRid(), layer: map[string]float64{}}
	var counts [][]int64
	for _, res := range r.res[0] {
		counts = append(counts, res.GroupCounts)
	}
	r.script = genSweepScript(cfg.seed, sz, counts)
	if err := r.gate(); err != nil {
		return nil, err
	}
	if cfg.trace {
		return out, r.tracedRun(cfg, out)
	}
	if _, err := r.loop(cfg.warmup()); err != nil {
		return nil, err
	}
	runtime.GC()
	out.window, err = timedWindow(cfg.window(), r.loop)
	return out, err
}
