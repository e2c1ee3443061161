package core

import (
	"strings"

	"smoke/internal/exec"
	"smoke/internal/expr"
	"smoke/internal/ops"
	"smoke/internal/plan"
	"smoke/internal/serr"
	"smoke/internal/storage"
)

// This file is the trace-strategy layer: the cost-based choice between eager
// lineage capture (the paper's §3 instrumentation), lazy re-execution with
// the trace seed pushed down as a predicate (Lin et al.-style
// predicate-pushdown lineage), and a hybrid of the two — surfaced through
// CaptureOptions.Strategy and the unified Seed/TraceDir trace API.
//
// The strategies answer the same question — "which base rows are behind
// these output rows?" — with different cost profiles:
//
//   - Eager pays at capture time (every base query builds rid indexes) and
//     answers traces by index reads. Wins when traces are frequent or the
//     plan is expensive to re-run.
//   - Lazy pays nothing at capture time: the result keeps only its optimized
//     plan and base snapshots, and a trace re-executes the plan with
//     targeted capture — or, when the seed translates to a predicate over
//     group keys of a single-scan aggregation, collapses to one filtered
//     scan of the base relation (the optimizer's trace-rewrite seam). Wins
//     when traces are rare or selective.
//   - Hybrid captures the backward direction eagerly (the dominant,
//     cheap-to-store direction — linked brushing, drill-down) and answers
//     forward traces by re-execution. Wins on multi-input plans where
//     re-execution replays a join but forward traces stay occasional.
//   - Auto picks per query from the optimized plan shape (plan.ProfileTrace)
//     and the DB's observed trace rate; see resolveStrategy.

// Strategy selects how a query's result provides lineage.
type Strategy uint8

const (
	// StrategyDefault preserves the pre-strategy contract: Mode alone decides.
	// A capturing Mode (Inject/Defer) resolves to StrategyEager; Mode None
	// resolves to StrategyLazy — the capture-free result keeps its plan and
	// answers traces by re-execution instead of erroring.
	StrategyDefault Strategy = iota
	// StrategyEager captures lineage indexes during execution; traces read
	// them in place. Requires a capturing Mode.
	StrategyEager
	// StrategyLazy captures nothing and answers traces by re-executing the
	// stored optimized plan with the seed pushed down as a predicate.
	// Conflicts with a capturing Mode and with capture-time options
	// (Dirs/TableDirs and the §4.2 push-downs): they configure an
	// instrumentation that never runs.
	StrategyLazy
	// StrategyHybrid captures backward indexes eagerly and answers forward
	// traces lazily by re-execution. Direction options conflict for the same
	// reason as Lazy: the split IS the strategy.
	StrategyHybrid
	// StrategyAuto chooses Eager, Lazy, or Hybrid per query from plan shape
	// and the observed trace rate.
	StrategyAuto
)

// String returns the wire spelling.
func (s Strategy) String() string {
	switch s {
	case StrategyEager:
		return "eager"
	case StrategyLazy:
		return "lazy"
	case StrategyHybrid:
		return "hybrid"
	case StrategyAuto:
		return "auto"
	}
	return "default"
}

// ParseStrategy maps the wire spelling to a Strategy; empty means Default.
// Unknown spellings are a structured Invalid (HTTP 400).
func ParseStrategy(s string) (Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "":
		return StrategyDefault, nil
	case "eager":
		return StrategyEager, nil
	case "lazy":
		return StrategyLazy, nil
	case "hybrid":
		return StrategyHybrid, nil
	case "auto":
		return StrategyAuto, nil
	}
	return StrategyDefault, serr.New(serr.Invalid,
		"core: unknown capture strategy %q (want eager, lazy, hybrid, or auto)", s)
}

// TraceDir is a lineage direction for the unified trace API.
type TraceDir uint8

const (
	// TraceBackward asks which base rows produced the seeded output rows.
	TraceBackward TraceDir = iota + 1
	// TraceForward asks which output rows depend on the seeded base rows.
	TraceForward
)

// String names the direction.
func (d TraceDir) String() string {
	if d == TraceForward {
		return "forward"
	}
	return "backward"
}

// Seed is a unified trace seed: explicit rids (Rids), a predicate (Where),
// or — the zero value — everything. For TraceBackward the rids/predicate
// address the result's output rows; for TraceForward the base relation's
// rows.
type Seed struct {
	rids     []Rid
	explicit bool
	pred     expr.Expr
}

// Rids seeds a trace with an explicit rid set. Rids() with no arguments is
// an explicit empty seed set (an empty trace), not "everything" — the zero
// Seed is.
func Rids(rids ...Rid) Seed { return Seed{rids: rids, explicit: true} }

// Where seeds a trace with a predicate; Where(nil) seeds everything.
func Where(pred expr.Expr) Seed { return Seed{pred: pred} }

// ridsForExec renders the seed in the plan convention: nil means "not
// rid-seeded" (predicate or everything); an explicit seed set is non-nil
// even when empty.
func (s Seed) ridsForExec() []Rid {
	if !s.explicit {
		return nil
	}
	if s.rids == nil {
		return []Rid{}
	}
	return s.rids
}

// validateStrategy rejects option combinations that would silently disable
// each other — a capturing mode on a capture-free strategy, capture
// direction options on a strategy that overrides them, push-downs without
// the eager capture they shape. All rejections are structured Invalid (HTTP
// 400).
func (o CaptureOptions) validateStrategy() error {
	if o.pushdown() != nil && (o.Mode == ops.None || o.Strategy == StrategyHybrid) {
		return serr.New(serr.Invalid,
			"core: capture push-down options need an eager capture: a capturing Mode, and Strategy neither Lazy nor Hybrid")
	}
	switch o.Strategy {
	case StrategyDefault, StrategyAuto:
		return nil
	case StrategyEager:
		if o.Mode == ops.None {
			return serr.New(serr.Invalid,
				"core: Strategy Eager requires a capturing Mode (Inject or Defer)")
		}
	case StrategyLazy:
		if o.Mode != ops.None {
			return serr.New(serr.Invalid,
				"core: Strategy Lazy is capture-free and conflicts with a capturing Mode")
		}
		if o.Dirs != 0 || o.TableDirs != nil {
			return serr.New(serr.Invalid,
				"core: capture directions conflict with Strategy Lazy (nothing is captured)")
		}
	case StrategyHybrid:
		if o.Dirs != 0 || o.TableDirs != nil {
			return serr.New(serr.Invalid,
				"core: Strategy Hybrid chooses capture directions itself; Dirs/TableDirs conflict")
		}
	default:
		return serr.New(serr.Invalid, "core: unknown capture strategy")
	}
	return nil
}

// autoTraceRateNum/Den: Auto treats the workload as trace-sparse while
// observed traces stay under 1/10th of base runs — the regime where the
// lazy bench shows capture-free queries winning end-to-end.
const (
	autoTraceRateNum = 1
	autoTraceRateDen = 10
)

// resolveStrategy normalizes the requested strategy against the optimized
// plan and the DB's observed workload into one of Eager, Lazy, or Hybrid.
//
// Auto's cost rules, cheapest-first for the trace-sparse case:
//   - explicit Dirs/TableDirs or push-downs pin Eager (the caller
//     configured a capture);
//   - a trace-heavy history (observed traces >= 1/10 of runs) picks Eager —
//     re-execution would be paid too often;
//   - a multi-input plan (join/union) picks Hybrid: backward stays an index
//     read, and only occasional forward traces replay the join;
//   - anything else picks Lazy — single-scan aggregations re-trace as one
//     filtered scan when the seed is key-shaped (plan.ProfileTrace).
func resolveStrategy(db *DB, opts CaptureOptions, optimized plan.Node) Strategy {
	switch opts.Strategy {
	case StrategyEager:
		return StrategyEager
	case StrategyLazy:
		return StrategyLazy
	case StrategyHybrid:
		return StrategyHybrid
	case StrategyAuto:
		if opts.Dirs != 0 || opts.TableDirs != nil || opts.pushdown() != nil {
			return StrategyEager
		}
		runs, traces := db.runs.Load(), db.traces.Load()
		if runs > 0 && traces*autoTraceRateDen >= runs*autoTraceRateNum {
			return StrategyEager
		}
		if plan.ProfileTrace(optimized).MultiInput {
			return StrategyHybrid
		}
		return StrategyLazy
	}
	if opts.Mode == ops.None {
		return StrategyLazy
	}
	return StrategyEager
}

// TraceRate reports the DB's observed workload mix: base-query runs vs
// lineage traces asked, the signal Strategy Auto costs against.
func (db *DB) TraceRate() (runs, traces uint64) {
	return db.runs.Load(), db.traces.Load()
}

// Strategy reports how the result provides lineage: StrategyEager (captured
// indexes), StrategyLazy (stored plan, re-executed per trace), or
// StrategyHybrid (eager backward, lazy forward). Results from before the
// strategy knob (restored snapshots, consuming results) report Eager.
func (r *Result) Strategy() Strategy {
	if r.strategy == StrategyDefault {
		return StrategyEager
	}
	return r.strategy
}

// TraceStrategy reports how a trace of table in the given direction would be
// answered: StrategyEager when the captured index exists, StrategyLazy when
// the result re-executes its stored plan, and StrategyDefault when neither
// path exists (the trace will fail with the capture's structured error).
func (r *Result) TraceStrategy(table string, dir TraceDir) Strategy {
	if dir == TraceForward {
		if r.capture != nil && r.capture.HasForward(table) {
			return StrategyEager
		}
	} else if r.capture != nil && r.capture.HasBackward(table) {
		return StrategyEager
	}
	if r.lazyOK() && r.BaseRelation(table) != nil {
		return StrategyLazy
	}
	return StrategyDefault
}

// lazyOK reports whether the result may answer a missing-index trace by
// re-execution. Only lazy/hybrid results qualify: an eager result with a
// pruned capture direction (TableDirs) made an explicit promise NOT to
// answer that direction, and silently re-executing would repeal it.
func (r *Result) lazyOK() bool {
	return r.plan != nil && (r.strategy == StrategyLazy || r.strategy == StrategyHybrid)
}

// seedKeyPred translates a single explicit backward seed rid into an
// equivalent predicate over the source's group-by keys, read from the output
// row itself. The translated trace qualifies for the optimizer's
// scan-and-filter rewrite: one filtered scan of the base relation instead of
// re-executing the aggregation. Only a single seed translates — a multi-rid
// seed list expands per-seed rid lists in seed order, which a predicate scan
// cannot reproduce element-identically — and only when the plan root is a
// group-by whose keys are all present in the output schema.
func (r *Result) seedKeyPred(rids []Rid) (expr.Expr, bool) {
	if len(rids) != 1 || r.Out == nil || r.plan == nil {
		return nil, false
	}
	gb, ok := r.plan.(plan.GroupBy)
	if !ok || len(gb.Keys) == 0 {
		return nil, false
	}
	o := int(rids[0])
	if o < 0 || o >= r.Out.N {
		return nil, false
	}
	conj := make([]expr.Expr, 0, len(gb.Keys))
	for _, k := range gb.Keys {
		ci := r.Out.Schema.Col(k)
		if ci < 0 {
			return nil, false
		}
		switch r.Out.Schema[ci].Type {
		case storage.TInt:
			conj = append(conj, expr.EqE(expr.C(k), expr.I(r.Out.Int(ci, o))))
		case storage.TFloat:
			conj = append(conj, expr.EqE(expr.C(k), expr.F(r.Out.Float(ci, o))))
		case storage.TString:
			conj = append(conj, expr.EqE(expr.C(k), expr.S(r.Out.Str(ci, o))))
		default:
			return nil, false
		}
	}
	return expr.AndE(conj...), true
}

// buildTraceNode assembles the physical trace node for a trace of r. Bound
// traces read the captured indexes; lazy traces leave Bound nil so the
// optimizer may collapse them (trace-rewrite) and exec re-executes the
// stored plan with targeted capture otherwise. On the lazy path a
// single-rid backward seed is translated to its group-key predicate first —
// that is what makes the scan rewrite reachable.
func (r *Result) buildTraceNode(dir TraceDir, table string, rel *storage.Relation, seed Seed, lazy, distinct bool) plan.Node {
	rids, pred := seed.ridsForExec(), seed.pred
	var bound *plan.BoundTrace
	if lazy {
		if dir == TraceBackward {
			if p, ok := r.seedKeyPred(rids); ok {
				pred, rids = p, nil
			}
		}
	} else {
		bound = r.bound()
	}
	if dir == TraceForward {
		return plan.Forward{
			Source: r.plan, Table: table, Rel: rel,
			SeedRids: rids, SeedPred: pred, Distinct: distinct, Bound: bound,
		}
	}
	return plan.Backward{
		Source: r.plan, Table: table, Rel: rel,
		SeedRids: rids, SeedPred: pred, Distinct: distinct, Bound: bound,
	}
}

// lazyParamsErr refuses a lazy trace query of a result captured under query
// parameters: it would re-execute the stored plan under the trace query's
// own parameters, selecting other rows than the result holds.
func lazyParamsErr() error {
	return serr.New(serr.Unsupported,
		"core: the result was captured under query parameters, which a lazy trace query would re-bind to its own; trace it eagerly")
}

// trace is the unified Result-level trace evaluator behind
// Backward/Forward/Trace and their Distinct variants.
func (r *Result) trace(dir TraceDir, table string, seed Seed, distinct bool) ([]Rid, error) {
	if r.db != nil {
		r.db.traces.Add(1)
	}
	lazy := r.TraceStrategy(table, dir) == StrategyLazy
	if !lazy && seed.pred == nil && seed.explicit {
		// The classic rid-seeded index read keeps its direct path.
		rids := seed.rids
		if dir == TraceBackward {
			if distinct {
				return r.capture.BackwardDistinct(table, rids)
			}
			return r.capture.Backward(table, rids)
		}
		if distinct {
			return r.capture.ForwardDistinct(table, rids)
		}
		return r.capture.Forward(table, rids)
	}
	rel := r.BaseRelation(table)
	if rel == nil {
		return nil, serr.New(serr.NotFound, "core: result has no captured base relation %q", table)
	}
	node := r.buildTraceNode(dir, table, rel, seed, lazy, distinct)
	if lazy {
		node = plan.OptimizeNoTrace(node, plan.Opts{Catalog: r.db.cat})
	}
	opts := CaptureOptions{Params: r.params}
	eopts := exec.PlanOpts{Params: r.params}
	eopts.Workers, eopts.Pool = opts.workers(r.db)
	return exec.TraceRids(node, eopts)
}

// Trace answers a rid-level lineage query in the given direction — the
// unified form of Backward/Forward. Captured indexes answer it in place;
// lazy and hybrid results re-execute the stored plan (TraceStrategy reports
// which path a given trace takes). Duplicates are preserved
// (transformational semantics); see TraceDistinct for set semantics.
func (r *Result) Trace(dir TraceDir, table string, seed Seed) ([]Rid, error) {
	return r.trace(dir, table, seed, false)
}

// TraceDistinct is Trace with set semantics (which-provenance/highlighting).
func (r *Result) TraceDistinct(dir TraceDir, table string, seed Seed) ([]Rid, error) {
	return r.trace(dir, table, seed, true)
}
