// Package crossfilter implements the paper's crossfilter application
// (§6.5.1, Appendix D): multiple group-by COUNT views over one table; when
// the user highlights a bar in one view, the other views recompute over the
// subset of input records that contributed to it. Three lineage-based
// techniques and a data-cube baseline are provided:
//
//   - Lazy:  no capture; each interaction re-runs the group-by queries over a
//     shared selection scan of the base table.
//   - BT:    Smoke backward indexes replace the selection scan: each
//     interaction is a backward trace-then-aggregate plan
//     (core.Query.Trace → GroupBy) running through the plan layer's
//     physical trace operator — the engine's first-class consuming-query
//     path.
//   - BT+FT: forward indexes map each input record straight to its bar in
//     every view — a perfect hash — so interactions become counter
//     increments with no hash tables at all (Listing 1). It is BT's plan
//     with the other views offered as siblings: the optimizer's
//     forward-scatter rule (plan.ForwardScatter) rewrites each
//     trace-then-aggregate into counts through the target view's forward
//     index.
//   - Cube:  a partial data cube (pairwise dimension matrices) answers
//     interactions near-instantaneously but pays a large offline
//     construction cost — the cold-start trade-off of Figure 13.
//
// The base views are ordinary engine queries (core.DB → plan layer → fused
// single-table aggregation with Inject capture), so the app exercises the
// same capture and consumption machinery the paper's experiments measure.
package crossfilter

import (
	"fmt"

	"smoke/internal/core"
	"smoke/internal/hashtab"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/storage"
)

// Rid aliases the record id type.
type Rid = lineage.Rid

// Technique selects the crossfilter strategy.
type Technique uint8

const (
	// Lazy re-runs group-bys over a shared selection scan.
	Lazy Technique = iota
	// BT uses backward lineage indexes for the subset: every interaction is
	// a trace-then-aggregate plan over the captured indexes.
	BT
	// BTFT uses backward + forward indexes for incremental updates.
	BTFT
)

// String names the technique for bench output.
func (t Technique) String() string {
	switch t {
	case Lazy:
		return "LAZY"
	case BT:
		return "BT"
	case BTFT:
		return "BT+FT"
	}
	return "?"
}

// App is an initialized crossfilter session: the base views have been
// computed (with whatever capture the technique requires).
type App struct {
	db   *core.DB
	rel  *storage.Relation
	dims []string
	cols [][]int64
	tech Technique

	views []*core.Result
	// siblings offers every view to BT+FT's consuming queries, by name.
	siblings map[string]*core.Result
}

// New computes the initial views through the engine's plan layer. The
// capture performed here is the "base query + lineage capture" cost of
// Figures 13/14.
func New(rel *storage.Relation, dims []string, tech Technique) (*App, error) {
	return NewParallel(rel, dims, tech, 1)
}

// NewParallel is New with intra-query parallelism: base views (and BT's
// trace-then-aggregate interactions) run their morsel-parallel kernels over
// workers partitions.
func NewParallel(rel *storage.Relation, dims []string, tech Technique, workers int) (*App, error) {
	a := &App{rel: rel, dims: dims, tech: tech, db: core.Open(core.WithWorkers(workers))}
	a.db.Register(rel)
	for _, d := range dims {
		c := rel.Schema.Col(d)
		if c < 0 {
			return nil, fmt.Errorf("crossfilter: unknown dimension %q", d)
		}
		if rel.Schema[c].Type != storage.TInt {
			return nil, fmt.Errorf("crossfilter: dimension %q must be a binned INT", d)
		}
		a.cols = append(a.cols, rel.Cols[c].Ints)
	}
	var capture core.CaptureOptions
	switch tech {
	case Lazy:
		capture = core.CaptureOptions{Mode: ops.None}
	case BT:
		capture = core.CaptureOptions{Mode: ops.Inject, Dirs: ops.CaptureBackward}
	case BTFT:
		capture = core.CaptureOptions{Mode: ops.Inject, Dirs: ops.CaptureBoth}
	}
	for _, d := range dims {
		res, err := a.db.Query().From(rel.Name, nil).
			GroupBy(d).
			Agg(ops.Count, nil, "count").
			Run(capture)
		if err != nil {
			return nil, err
		}
		a.views = append(a.views, res)
	}
	if tech == BTFT {
		a.siblings = make(map[string]*core.Result, len(dims))
		for v, d := range dims {
			a.siblings[d] = a.views[v]
		}
	}
	return a, nil
}

// Close releases the app's engine resources.
func (a *App) Close() { a.db.Close() }

// View returns the initial output relation of one view (bars: key + count).
func (a *App) View(v int) *storage.Relation { return a.views[v].Out }

// NumBars returns the number of bars in a view.
func (a *App) NumBars(v int) int { return a.views[v].Out.N }

// Counts maps bin value → count for one view under a highlight; the slice is
// indexed by view, with a nil entry at the brushed view.
type Counts []map[int64]int64

// HighlightBar computes the crossfiltered counts of all other views when bar
// (an output row of view v) is highlighted.
func (a *App) HighlightBar(v int, bar Rid) (Counts, error) {
	if a.tech == Lazy {
		return a.lazyHighlight(v, bar)
	}
	return a.traceHighlight(v, bar)
}

// lazyHighlight: shared selection scan with the brushed predicate inlined;
// group-bys re-run with fresh hash tables (the rewrite of Appendix D).
func (a *App) lazyHighlight(v int, bar Rid) (Counts, error) {
	val := a.views[v].Out.Int(0, int(bar))
	brushed := a.cols[v]
	out := make(Counts, len(a.dims))
	type viewState struct {
		ht     *hashtab.Map
		counts []int64
		keys   []int64
	}
	states := make([]*viewState, len(a.dims))
	for w := range a.dims {
		if w != v {
			states[w] = &viewState{ht: hashtab.New(64)}
		}
	}
	n := int32(a.rel.N)
	for rid := int32(0); rid < n; rid++ {
		if brushed[rid] != val {
			continue
		}
		for w := range a.dims {
			st := states[w]
			if st == nil {
				continue
			}
			k := a.cols[w][rid]
			slot, inserted := st.ht.GetOrPut(k, int32(len(st.counts)))
			if inserted {
				st.counts = append(st.counts, 0)
				st.keys = append(st.keys, k)
			}
			st.counts[slot]++
		}
	}
	for w, st := range states {
		if st == nil {
			continue
		}
		m := make(map[int64]int64, len(st.counts))
		for i, k := range st.keys {
			m[k] = st.counts[i]
		}
		out[w] = m
	}
	return out, nil
}

// traceHighlight: every target view recomputes as a backward
// trace-then-aggregate plan. Under BT the bar's rid list expands through the
// captured index (morsel-parallel when the app is) and re-aggregates on the
// duplicate-tolerant consuming fast path, with no composition and no base
// scan. Under BT+FT the views are offered as siblings, and the
// forward-scatter rule turns the aggregation into counter increments through
// the target view's forward index (Listing 1).
func (a *App) traceHighlight(v int, bar Rid) (Counts, error) {
	out := make(Counts, len(a.dims))
	for w := range a.dims {
		if w == v {
			continue
		}
		res, err := a.db.Query().
			Trace(a.views[v], core.TraceBackward, a.rel.Name, core.Rids(bar)).
			GroupBy(a.dims[w]).
			Agg(ops.Count, nil, "count").
			Siblings(a.siblings).
			Run(core.CaptureOptions{Mode: ops.None})
		if err != nil {
			return nil, err
		}
		if a.tech == BTFT && res.ScatteredFrom() != a.dims[w] {
			return nil, fmt.Errorf("crossfilter: BT+FT brush of %s answered through %q, not the forward index of view %s",
				a.dims[v], res.ScatteredFrom(), a.dims[w])
		}
		m := make(map[int64]int64, res.Out.N)
		for o := 0; o < res.Out.N; o++ {
			m[res.Out.Int(0, o)] = res.Out.Int(1, o)
		}
		out[w] = m
	}
	return out, nil
}

// Cube is the data-cube baseline: pairwise (brushed dim → target dim) count
// matrices, stored sparsely (the NanoCubes-style encoding over the low
// dimensional decomposition of imMens the paper's custom cube uses).
type Cube struct {
	dims  []string
	pairs [][]map[int64]map[int64]int64 // [brushed][target] -> bin -> bin -> count
}

// BuildCube constructs the partial cube with a full scan per nothing — one
// pass total, updating all dimension pairs. This is the offline cost the
// lineage-based techniques avoid.
func BuildCube(rel *storage.Relation, dims []string) (*Cube, error) {
	cols := make([][]int64, len(dims))
	for i, d := range dims {
		c := rel.Schema.Col(d)
		if c < 0 || rel.Schema[c].Type != storage.TInt {
			return nil, fmt.Errorf("crossfilter: bad cube dimension %q", d)
		}
		cols[i] = rel.Cols[c].Ints
	}
	cb := &Cube{dims: dims, pairs: make([][]map[int64]map[int64]int64, len(dims))}
	for i := range dims {
		cb.pairs[i] = make([]map[int64]map[int64]int64, len(dims))
		for j := range dims {
			if i != j {
				cb.pairs[i][j] = map[int64]map[int64]int64{}
			}
		}
	}
	n := int32(rel.N)
	for rid := int32(0); rid < n; rid++ {
		for i := range dims {
			bi := cols[i][rid]
			for j := range dims {
				if i == j {
					continue
				}
				sub := cb.pairs[i][j][bi]
				if sub == nil {
					sub = map[int64]int64{}
					cb.pairs[i][j][bi] = sub
				}
				sub[cols[j][rid]]++
			}
		}
	}
	return cb, nil
}

// Highlight answers a crossfilter interaction from the cube: for a brushed
// bin value in view v, each other view's counts are one sparse-row lookup.
func (c *Cube) Highlight(v int, val int64) Counts {
	out := make(Counts, len(c.dims))
	for w := range c.dims {
		if w == v {
			continue
		}
		m := make(map[int64]int64)
		for tb, cnt := range c.pairs[v][w][val] {
			m[tb] = cnt
		}
		out[w] = m
	}
	return out
}
