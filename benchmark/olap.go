package main

import (
	"fmt"
	"runtime"
	"time"

	"smoke/internal/core"
	"smoke/internal/datagen"
	"smoke/internal/exec"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/pool"
	"smoke/internal/sql"
	"smoke/internal/tpch"
)

// capture-olap: one analyst, in process, no server. A pass runs six queries
// in one capture mode and then traces a few seed sets of the skewed group-by
// result it just produced; passes cycle none → inject → inject+compress so
// every ratio's two sides run seconds apart in one process.

type olapSizes struct {
	sf     float64
	rows   int // rows of each group-by table
	groups int
	traces int // trace ops per pass
}

func olapSizesFor(size string) olapSizes {
	if size == "tiny" {
		return olapSizes{sf: 0.001, rows: 6_000, groups: 100, traces: 8}
	}
	return olapSizes{sf: 0.02, rows: 300_000, groups: 1000, traces: 8}
}

// olapMode is one capture mode of the cycle and the classes its ops report
// under.
type olapMode struct {
	name        string
	mode        ops.CaptureMode
	compress    bool
	base, trace opClass
}

var olapModes = []olapMode{
	{"none", ops.None, false, clsBaseNone, clsTraceLazy},
	{"inject", ops.Inject, false, clsBase, clsTrace},
	{"inject+compress", ops.Inject, true, clsBaseEnc, clsTraceEnc},
}

var (
	olapTPCH   = []string{"Q1", "Q3", "Q10", "Q12"}
	olapTables = []string{"zipf", "dense"}
)

func olapGroupBySQL(table string) string {
	return "SELECT z, COUNT(*) AS cnt, SUM(v) AS sv FROM " + table + " GROUP BY z"
}

type olapRun struct {
	sz    olapSizes
	tp    *tpch.DB
	db    *core.DB
	pool  *pool.Pool
	specs []exec.Spec
	seeds [][]core.Rid // per trace op: output rids of the skewed group-by result
	// Expected digests, fixed by the gate: query outputs and traced rid lists
	// must not depend on the capture mode.
	wantQuery []uint64 // TPC-H then group-bys
	wantTrace []uint64 // per trace op
}

// olapPass is what one pass measured. encBytes/encEdges size the captures of
// a compressed pass.
type olapPass struct {
	failed             bool // an output differed from the gate's digest
	queryMS, tracesMS  float64
	encBytes, encEdges int64
}

// buildOLAP generates the data: its wall time is one set-up sample.
func buildOLAP(sz olapSizes, seed int64) *olapRun {
	r := &olapRun{sz: sz, tp: tpch.Generate(sz.sf, seed), db: core.Open(core.WithWorkers(workers)), pool: pool.New(workers)}
	r.db.Register(datagen.Zipf("zipf", 1.0, sz.rows, sz.groups, seed+1))
	r.db.Register(datagen.Zipf("dense", 0.0, sz.rows, sz.groups, seed+2))
	qs := r.tp.Queries()
	for _, name := range olapTPCH {
		r.specs = append(r.specs, qs[name])
	}
	return r
}

func (r *olapRun) close() {
	r.pool.Close()
	r.db.Close()
}

// seedSets builds n trace seeds over a result's groups. Every set holds the
// olapHead largest groups plus every olapStride-th group of the rest of the
// size order, from its own offset: one trace touches the head, the middle and
// the tail of the skew, is large enough to time (a single small group traces
// in under a microsecond), and — the head being most of the rows — costs the
// same as every other set, so the pass's trace ops are one population whose
// median and tail do not sit on the edge between two kinds of op. The sets
// depend on the data's group sizes only, not on the seed's op script.
func seedSets(counts []int64, n int) [][]core.Rid {
	order := bySizeDesc(counts)
	head := min(olapHead, len(order))
	sets := make([][]core.Rid, n)
	for k := range sets {
		for _, o := range order[:head] {
			sets[k] = append(sets[k], core.Rid(o))
		}
		for rk := head + k%olapStride; rk < len(order); rk += olapStride {
			sets[k] = append(sets[k], core.Rid(order[rk]))
		}
	}
	return sets
}

const (
	olapHead   = 4  // largest groups every seed set starts with
	olapStride = 10 // rank distance between two tail groups of one seed set
)

// pass runs the six queries in mode m, then the traces. check compares each
// output with the gate's digests; a nil want* (the gate's own first pass)
// records instead.
func (r *olapRun) pass(m olapMode, w *windowStats) (olapPass, error) {
	var p olapPass
	record := func(class opClass, ms float64, ok bool) {
		w.add(class, ms, ok)
		p.failed = p.failed || !ok
	}
	qi := 0
	checkQuery := func(d uint64) bool {
		defer func() { qi++ }()
		if qi >= len(r.wantQuery) {
			r.wantQuery = append(r.wantQuery, d)
			return true
		}
		return r.wantQuery[qi] == d
	}
	for i, spec := range r.specs {
		var res exec.Result
		var err error
		ms := timeMS(func() {
			res, err = exec.Run(spec, exec.Opts{Mode: m.mode, Dirs: ops.CaptureBoth, Workers: workers, Pool: r.pool, Compress: m.compress})
		})
		if err != nil {
			return p, fmt.Errorf("%s %s: %w", olapTPCH[i], m.name, err)
		}
		record(m.base, ms, checkQuery(digestRelation(res.Out)))
		p.queryMS += ms
		if m.compress {
			p.encBytes += res.Capture.MemBytes()
			p.encEdges += captureEdges(res.Capture)
		}
	}
	results := make([]*core.Result, len(olapTables))
	for t, table := range olapTables {
		var res *core.Result
		var err error
		ms := timeMS(func() {
			var q *core.Query
			if q, err = sql.Compile(r.db, olapGroupBySQL(table)); err == nil {
				res, err = q.Run(core.CaptureOptions{Mode: m.mode, Compress: m.compress})
			}
		})
		if err != nil {
			return p, fmt.Errorf("group-by %s %s: %w", table, m.name, err)
		}
		record(m.base, ms, checkQuery(digestRelation(res.Out)))
		p.queryMS += ms
		results[t] = res
		if m.compress {
			p.encBytes += res.Capture().MemBytes()
			p.encEdges += captureEdges(res.Capture())
		}
	}
	if r.seeds == nil {
		r.seeds = seedSets(results[0].GroupCounts, r.sz.traces)
	}
	// The queries above allocate hundreds of megabytes per second; whether a
	// concurrent GC cycle happens to overlap the sub-millisecond traces below
	// would otherwise decide their timing more than the lineage code does.
	runtime.GC()
	for g, set := range r.seeds {
		var rids []lineage.Rid
		var err error
		ms := timeMS(func() { rids, err = results[0].Trace(core.TraceBackward, olapTables[0], core.Rids(set...)) })
		if err != nil {
			return p, fmt.Errorf("trace seed set %d %s: %w", g, m.name, err)
		}
		d, ok := digestRids(rids), true
		if g >= len(r.wantTrace) {
			r.wantTrace = append(r.wantTrace, d)
		} else {
			ok = r.wantTrace[g] == d
		}
		record(m.trace, ms, ok)
		p.tracesMS += ms
	}
	return p, nil
}

// gate runs one cycle untimed: the inject pass fixes the expected digests,
// and the none and compressed passes must reproduce every query output and
// every traced rid list (order and duplicates included). It returns the
// compressed captures' bytes per lineage edge, which is exact for a seed.
func (r *olapRun) gate() (bytesPerRid float64, err error) {
	for _, m := range []olapMode{olapModes[1], olapModes[0], olapModes[2]} {
		p, err := r.pass(m, newWindow())
		if err != nil {
			return 0, err
		}
		if p.failed {
			return 0, fmt.Errorf("gate: an output of the %s pass differs from the inject pass", m.name)
		}
		if m.compress {
			if p.encEdges == 0 {
				return 0, fmt.Errorf("gate: compressed captures hold no lineage edge")
			}
			bytesPerRid = float64(p.encBytes) / float64(p.encEdges)
		}
	}
	return bytesPerRid, nil
}

// cycle runs the three passes and appends their samples and pairs.
func (r *olapRun) cycle(w *windowStats) error {
	var ps [3]olapPass
	for i, m := range olapModes {
		p, err := r.pass(m, w)
		if err != nil {
			return err
		}
		ps[i] = p
	}
	none, inject, enc := ps[0], ps[1], ps[2]
	w.capture = append(w.capture, pair{num: inject.queryMS, den: none.queryMS})
	w.rerun = append(w.rerun, pair{num: inject.tracesMS, den: none.tracesMS})
	w.encoded = append(w.encoded, pair{num: enc.tracesMS, den: inject.tracesMS})
	return nil
}

// loop cycles until dur has passed and returns the window.
func (r *olapRun) loop(dur time.Duration) (*windowStats, error) {
	w := newWindow()
	for time.Since(w.start) < dur {
		if err := r.cycle(w); err != nil {
			return nil, err
		}
	}
	w.windowS = time.Since(w.start).Seconds()
	return w, nil
}

func runOLAP(cfg config) (*outcome, error) {
	sz := olapSizesFor(cfg.size)
	var r *olapRun
	setupS, err := medianSetup(func() error { r = buildOLAP(sz, cfg.seed); return nil }, func() { r.close() })
	if err != nil {
		return nil, err
	}
	defer r.close()
	out := &outcome{setupS: setupS, layer: map[string]float64{}}
	if out.bytesPerRid, err = r.gate(); err != nil {
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
