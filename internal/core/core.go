// Package core is the engine facade — the paper's primary contribution
// assembled behind one API. A DB registers base relations; a Query describes
// an SPJA block (single- or multi-table) plus capture options that encode the
// workload knowledge of §4 (pruning, selection push-down, data skipping,
// group-by push-down); a Result answers backward/forward lineage queries and
// executes lineage-consuming queries over the captured indexes.
//
// Execution is morsel-parallel: Open(WithWorkers(n)) shares a worker pool
// across queries, each query splits its scans into contiguous row-range
// partitions with partition-local lineage capture, and the merged result is
// identical for every partition count; workers=1 is one partition of the
// same drivers and reproduces the paper's experiments. A DB is safe for
// concurrent Query().Run() calls.
//
// The root package smoke re-exports this API for library users.
package core

import (
	"maps"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"smoke/internal/cube"
	"smoke/internal/exec"
	"smoke/internal/expr"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/plan"
	"smoke/internal/pool"
	"smoke/internal/serr"
	"smoke/internal/storage"
)

// Rid is a record id within a relation.
type Rid = lineage.Rid

// DB is an in-memory database instance. A DB is safe for concurrent use:
// queries may Run concurrently with each other (and with Register calls)
// from any number of goroutines, sharing one worker pool.
type DB struct {
	cat     *storage.Catalog
	workers int

	// runs/traces count base-query executions vs lineage traces asked — the
	// observed trace rate Strategy Auto costs against (TraceRate).
	runs   atomic.Uint64
	traces atomic.Uint64

	mu     sync.Mutex // guards pool creation and closed
	pool   *pool.Pool
	closed bool
}

// Option configures a DB at Open time.
type Option func(*DB)

// WithWorkers sets the DB's default intra-query parallelism: queries run
// their morsel-parallel kernels over a shared pool of n workers (n <= 1 runs
// one partition of the same drivers, the paper's original execution model).
// Per-query CaptureOptions.Parallelism overrides the default.
func WithWorkers(n int) Option {
	return func(db *DB) {
		if n < 1 {
			n = 1
		}
		db.workers = n
	}
}

// Open returns an empty database. The worker pool is created lazily by the
// first parallel query (sharedPool), so a DB that never runs one spawns no
// goroutines.
func Open(opts ...Option) *DB {
	db := &DB{cat: storage.NewCatalog(), workers: 1}
	for _, o := range opts {
		o(db)
	}
	return db
}

// Workers returns the DB's default intra-query parallelism.
func (db *DB) Workers() int { return db.workers }

// Close releases the DB's worker-pool goroutines. It is idempotent, safe on
// a never-parallel DB, and safe to call while queries are in flight (they
// finish normally; the pool drains once the last one releases it). Queries
// run after Close execute serially.
func (db *DB) Close() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.closed = true
	db.pool.Close()
}

// Register adds a relation under its own name.
func (db *DB) Register(rel *storage.Relation) { db.cat.Register(rel) }

// Table returns a registered relation.
func (db *DB) Table(name string) (*storage.Relation, error) { return db.cat.Relation(name) }

// Catalog exposes key metadata registration.
func (db *DB) Catalog() *storage.Catalog { return db.cat }

// CaptureOptions selects the instrumentation paradigm and the workload-aware
// optimizations to apply during capture.
type CaptureOptions struct {
	// Mode is None (baseline), Inject, or Defer (§3.2).
	Mode ops.CaptureMode
	// Strategy selects how the result provides lineage: eager index capture,
	// lazy re-execution, a hybrid, or a cost-based automatic choice (see the
	// Strategy constants in strategy.go). The zero value keeps the
	// pre-strategy contract: Mode alone decides, with Mode None now yielding
	// a lazy result (traces re-execute the stored plan) instead of erroring.
	// Conflicting combinations (a capturing Mode with Lazy, direction
	// options with Lazy/Hybrid, push-downs without an eager capture) fail
	// Run with a structured Invalid.
	Strategy Strategy
	// Dirs selects which directions to capture (defaults to both when Mode
	// is not None and no per-table override is given).
	Dirs ops.Directions
	// TableDirs prunes capture per relation name (§4.1); relations absent
	// from a non-nil map are not captured at all.
	TableDirs map[string]ops.Directions
	// The §4.2 push-downs below annotate the query's group-by
	// (plan.Pushdown) and need a capturing Mode. They apply to
	// single-table aggregation blocks, including consuming trace queries.
	//
	// CountsByKey supplies exact cardinalities per integer group key
	// (§6.1.1 "Cardinality Statistics").
	CountsByKey []int32
	// PushdownFilter restricts backward capture to matching records
	// (selection push-down).
	PushdownFilter expr.Expr
	// PartitionBy orders each backward rid list stably by the partition
	// code of these attributes (data skipping), so BackwardPartition reads
	// only one code's range of the captured list. The list is the ordinary
	// backward index: traces, MemBytes and persistence see it.
	PartitionBy []string
	// Cube materializes drill-down aggregates during capture (group-by
	// push-down).
	Cube *cube.Spec
	// Params binds named expression parameters.
	Params expr.Params
	// Parallelism overrides the DB's worker count for this query: 0 uses
	// the DB default (Open(WithWorkers(n))), 1 runs one partition, and
	// n > 1 runs the morsel-parallel kernels with n partitions. Every
	// partition count produces identical lineage; float aggregates (SUM,
	// AVG) can differ in the final ulp because partial sums accumulate per
	// partition (addition order), all other output is identical.
	Parallelism int
	// Compress stores the captured lineage indexes in their adaptive
	// compressed forms (per-list choice among raw rids, delta+varint,
	// run-length, and bitmap encodings — see internal/lineage). Encoding
	// happens post-capture (per partition in parallel runs, merged by
	// concatenating encoded lists); Backward/Forward and consuming queries
	// read the encoded indexes in place, element-identically to raw capture.
	// A PartitionBy capture encodes its lists once ordered; BackwardPartition
	// then decodes the group's list and slices it.
	Compress bool
}

// workers resolves the effective parallelism for a query against db's
// default. The morsel count is clamped to a small multiple of the pool's
// worker count: more morsels than that adds partition-local state (hash
// tables, accumulators) without adding concurrency, so an absurd override
// (e.g. derived from data size) cannot balloon memory.
func (o CaptureOptions) workers(db *DB) (int, *pool.Pool) {
	w := o.Parallelism
	if w == 0 {
		w = db.workers
	}
	if w <= 1 {
		return 1, nil
	}
	pl := db.sharedPool(w)
	if pl == nil {
		return 1, nil // closed DB: one partition
	}
	if max := 4 * pl.Workers(); w > max {
		w = max
	}
	return w, pl
}

// sharedPool returns the DB's pool, creating it on first parallel use, or
// nil once the DB is closed. The pool is never replaced once created
// (replacing would leak the old pool's worker goroutines, and closing it
// could race with queries still using it): a Parallelism override larger
// than the pool still splits the query into that many morsels, which
// multiplex onto the existing workers. Worker count is the operator's
// explicit Open(WithWorkers(n)) choice; a per-query override can only size
// the pool up to GOMAXPROCS, so one query passing a huge Parallelism (e.g.
// derived from data size) cannot spawn unbounded long-lived goroutines.
func (db *DB) sharedPool(w int) *pool.Pool {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	if db.pool == nil {
		n := db.workers
		if n < 2 {
			// Pool sized by a Parallelism override rather than Open.
			n = w
			if g := runtime.GOMAXPROCS(0); n > g {
				n = g
			}
		}
		db.pool = pool.New(n)
	}
	return db.pool
}

// pushdown packages the §4.2 options as the group-by annotation, or nil
// when none is set.
func (o CaptureOptions) pushdown() *plan.Pushdown {
	if o.PushdownFilter == nil && o.PartitionBy == nil && o.Cube == nil && o.CountsByKey == nil {
		return nil
	}
	return &plan.Pushdown{CountsByKey: o.CountsByKey, Filter: o.PushdownFilter,
		PartitionBy: o.PartitionBy, Cube: o.Cube}
}

func (o CaptureOptions) dirs() ops.Directions {
	if o.Mode == ops.None {
		return 0
	}
	if o.Dirs == 0 && o.TableDirs == nil {
		return ops.CaptureBoth
	}
	return o.Dirs
}

// Query builds an SPJA block against a DB. Errors accumulate and surface at
// Run, so call chains stay uncluttered. Run lowers the builder state onto the
// logical plan layer (internal/plan), runs the optimizer — whose fusion rule,
// not the front end, decides when the fused SPJA executor applies — and
// executes the optimized plan (exec.RunPlan).
type Query struct {
	db *DB
	// names and rels are the sources GroupBy and Agg resolve columns
	// against, in From/Join order (for a trace, its output); root is the
	// scan or left-deep join chain over them.
	names []string
	rels  []*storage.Relation
	root  plan.Node
	keys  []string
	aggs  []plan.AggDef
	err   error

	// prebuilt carries an externally lowered plan (QueryPlan, the SQL front
	// end); when set, the builder state above is unused.
	prebuilt plan.Node
	// traceNode carries a lineage trace root (Backward/Forward): the query's
	// input rows are the trace's output, and GroupBy/Agg build a consuming
	// aggregation on top of it. traceFilter is the consuming predicate over
	// the traced rows (Where); the optimizer sinks it into the trace.
	traceNode   plan.Node
	traceFilter expr.Expr
	// trace provenance, kept so TraceWith can rebuild the node under a
	// forced strategy.
	traceRes   *Result
	traceDir   TraceDir
	traceTable string
	traceSeed  Seed
	// siblings are the executed results the forward-scatter rule may read
	// (Siblings), in name order.
	siblings []plan.Sibling
}

// Query starts a new query.
func (db *DB) Query() *Query { return &Query{db: db} }

// QueryPlan wraps an already-lowered logical plan (e.g. from the SQL front
// end) as a runnable query: Run optimizes and executes it exactly like a
// builder query.
func (db *DB) QueryPlan(n plan.Node) *Query { return &Query{db: db, prebuilt: n} }

// QueryTrace starts a query from a backward trace node the caller built —
// unbound, over a stored optimized plan — instead of from a Result.
// Where/GroupBy/Agg build the consuming query on top exactly as after
// Query.Trace, and the optimizer collapses the trace to one filtered scan
// when it proves the equivalence (trace-rewrite). The scatter/gather
// coordinator runs such traces over its global copy of a sharded table.
func (db *DB) QueryTrace(n plan.Backward) *Query {
	return &Query{db: db, names: []string{n.Table}, rels: []*storage.Relation{n.Rel}, traceNode: n}
}

// Trace starts the query from a lineage trace of res in the given
// direction. seed selects the starting rows: Rids(...) for explicit rids
// (output rids for TraceBackward, base rids for TraceForward), Where(pred)
// for a predicate seed, and the zero Seed for everything. The query's input
// rows are the traced rows (duplicates preserved — transformational
// semantics); GroupBy/Agg on top build a lineage-consuming aggregation that
// runs through the plan layer, and the result is itself a single-table base
// query for further traces (§2.1). A keyless trace query simply returns the
// traced rows.
//
// When res captured the needed index direction the trace binds to it and is
// traced in place (raw or compressed) with the morsel-parallel trace
// operator. On a lazy or hybrid result with no such index the trace goes
// unbound: res's stored optimized plan re-executes with targeted capture —
// or collapses to a single filtered scan when the seed is key-shaped
// (optimizer trace-rewrite). TraceWith forces the path explicitly.
func (q *Query) Trace(res *Result, dir TraceDir, table string, seed Seed) *Query {
	if dir != TraceBackward && dir != TraceForward {
		q.fail(serr.New(serr.Invalid, "core: trace direction must be TraceBackward or TraceForward"))
		return q
	}
	// Resolve the relation instance res was captured against — not the
	// current catalog entry. If the table was re-registered since res ran,
	// the catalog relation is different data: tracing capture-time rids into
	// it would silently return wrong rows (or index out of range).
	rel := res.BaseRelation(table)
	if rel == nil {
		q.fail(serr.New(serr.NotFound, "core: result has no captured base relation %q", table))
		return q
	}
	if len(q.rels) > 0 || q.traceNode != nil || q.prebuilt != nil {
		q.fail(serr.New(serr.Invalid, "core: a trace must start the query"))
		return q
	}
	q.db.traces.Add(1)
	q.traceRes, q.traceDir, q.traceTable, q.traceSeed = res, dir, table, seed
	if dir == TraceBackward {
		q.names, q.rels = []string{table}, []*storage.Relation{rel}
	} else {
		q.names, q.rels = []string{res.Out.Name}, []*storage.Relation{res.Out}
	}
	lazy := res.TraceStrategy(table, dir) == StrategyLazy
	if lazy && len(res.params) > 0 {
		q.fail(lazyParamsErr())
		return q
	}
	q.traceNode = res.buildTraceNode(dir, table, rel, seed, lazy, false)
	return q
}

// TraceWith forces the pending trace's answer path, overriding the result's
// own routing: StrategyEager requires the captured index and fails with a
// structured Invalid when the result has none; StrategyLazy requires the
// stored plan and re-executes it even when an index exists.
// StrategyDefault/StrategyAuto keep the result's routing; Hybrid is a
// capture-time split, not a per-trace path, and is Invalid here.
func (q *Query) TraceWith(s Strategy) *Query {
	if q.traceNode == nil || q.traceRes == nil {
		q.fail(serr.New(serr.Invalid, "core: TraceWith applies to trace queries"))
		return q
	}
	res, dir, table := q.traceRes, q.traceDir, q.traceTable
	rel := res.BaseRelation(table)
	switch s {
	case StrategyDefault, StrategyAuto:
		return q
	case StrategyEager:
		if res.TraceStrategy(table, dir) != StrategyEager {
			q.fail(serr.New(serr.Invalid,
				"core: result captured no %s index for %q; eager trace unavailable", dir, table))
			return q
		}
		q.traceNode = res.buildTraceNode(dir, table, rel, q.traceSeed, false, false)
	case StrategyLazy:
		if res.plan == nil {
			q.fail(serr.New(serr.Invalid,
				"core: result carries no plan; lazy trace unavailable"))
			return q
		}
		if len(res.params) > 0 {
			q.fail(lazyParamsErr())
			return q
		}
		q.traceNode = res.buildTraceNode(dir, table, rel, q.traceSeed, true, false)
	default:
		q.fail(serr.New(serr.Invalid, "core: per-trace strategy must be eager or lazy"))
	}
	return q
}

// Siblings offers executed results to the optimizer's forward-scatter rule
// (plan.RewriteForwardScatter), keyed by the names EXPLAIN shows them under.
// A capture-off COUNT group-by over a bound backward trace then counts the
// traced rids through the forward index of the first qualifying result, in
// name order — a result grouping the same relation, under the same scan
// filter, by the consuming query's key — instead of hash-aggregating them:
// the same rows, row order and group counts. Results without a stored plan
// — consuming ones, and restored ones not given theirs back (AttachPlan) —
// never qualify, and a run that captures lineage ignores the siblings,
// because the rewrite captures none.
func (q *Query) Siblings(named map[string]*Result) *Query {
	q.siblings = q.siblings[:0]
	for _, name := range slices.Sorted(maps.Keys(named)) {
		if r := named[name]; r != nil && r.plan != nil {
			q.siblings = append(q.siblings, plan.Sibling{Name: name, Plan: r.plan, Out: r.Out, Capture: r.capture})
		}
	}
	return q
}

// Where adds a consuming predicate over the trace's output rows — for
// Backward, base-relation columns; for Forward, source-output columns. The
// optimizer sinks it into the trace's expansion filter, so failing rows are
// dropped during rid-list expansion. Only trace queries take Where; plain
// blocks attach per-table filters in From/Join.
func (q *Query) Where(pred expr.Expr) *Query {
	if q.traceNode == nil {
		q.fail(serr.New(serr.Invalid, "core: Where applies to trace queries; use the From/Join filter arguments"))
		return q
	}
	if q.traceFilter == nil {
		q.traceFilter = pred
	} else {
		q.traceFilter = expr.And{L: q.traceFilter, R: pred}
	}
	return q
}

// From sets the first (or only) table with an optional filter.
func (q *Query) From(table string, filter expr.Expr) *Query {
	switch {
	case q.traceNode != nil:
		q.fail(serr.New(serr.Invalid, "core: From after a trace is not supported (traces take no further tables)"))
	case q.root != nil:
		q.fail(serr.New(serr.Invalid, "core: From starts the query; add further tables with Join"))
	default:
		q.root = q.scan(table, filter)
	}
	return q
}

// Join adds a table joined to the prefix: prefixTable.leftCol = table.rightCol.
func (q *Query) Join(table string, filter expr.Expr, prefixTable, leftCol, rightCol string) *Query {
	switch {
	case q.traceNode != nil:
		q.fail(serr.New(serr.Unsupported, "core: joins after a trace are not supported"))
	case !slices.Contains(q.names, prefixTable):
		q.fail(serr.New(serr.Invalid, "core: join references %q which is not in the query prefix", prefixTable))
	default:
		// The builder names the prefix table explicitly: it qualifies the key.
		right := q.scan(table, filter)
		q.root = plan.Join{Left: q.root, Right: right, LeftKey: leftCol, RightKey: rightCol, LeftQual: prefixTable}
	}
	return q
}

// scan resolves a catalog table as the block's next source.
func (q *Query) scan(table string, filter expr.Expr) plan.Node {
	rel, err := q.db.Table(table)
	if err != nil {
		q.fail(err)
		return nil
	}
	q.names, q.rels = append(q.names, table), append(q.rels, rel)
	return plan.Scan{Table: table, Rel: rel, Filter: filter}
}

// GroupBy sets the group-by key columns; each resolves to the unique table
// containing it.
func (q *Query) GroupBy(cols ...string) *Query {
	for _, c := range cols {
		if err := q.resolve(c); err != nil {
			q.fail(err)
			return q
		}
		q.keys = append(q.keys, c)
	}
	return q
}

// Agg adds an aggregate. Count takes a nil arg. Each column of the argument
// must resolve to exactly one table.
func (q *Query) Agg(fn ops.AggFn, arg expr.Expr, name string) *Query {
	return q.AggFiltered(fn, arg, nil, name)
}

// AggFiltered adds an aggregate that only folds rows satisfying filter (the
// CASE WHEN counting idiom of TPC-H Q12).
func (q *Query) AggFiltered(fn ops.AggFn, arg, filter expr.Expr, name string) *Query {
	for _, c := range append(expr.Columns(arg), expr.Columns(filter)...) {
		if err := q.resolve(c); err != nil {
			q.fail(err)
			return q
		}
	}
	q.aggs = append(q.aggs, plan.AggDef{Fn: fn, Arg: arg, Filter: filter, Name: name})
	return q
}

// resolve checks that col names a column of exactly one source.
func (q *Query) resolve(col string) error {
	found := -1
	for i, rel := range q.rels {
		if rel.Schema.Col(col) >= 0 {
			if found >= 0 {
				return serr.New(serr.Invalid, "core: column %q is ambiguous between %s and %s", col, q.names[found], q.names[i])
			}
			found = i
		}
	}
	if found < 0 {
		return serr.New(serr.Invalid, "core: column %q not found in query tables %v", col, q.names)
	}
	return nil
}

func (q *Query) fail(err error) {
	if q.err == nil {
		q.err = err
	}
}

// Plan lowers the query onto the logical plan IR (unoptimized): scans with
// their pipelined filters, a left-deep join chain, and a group-by on top.
// Prebuilt plans (QueryPlan) are returned as-is.
func (q *Query) Plan() (plan.Node, error) {
	if q.err != nil {
		return nil, q.err
	}
	if q.prebuilt != nil {
		return q.prebuilt, nil
	}
	root := q.root
	switch {
	case q.traceNode != nil:
		root = q.traceNode
		if q.traceFilter != nil {
			root = plan.Filter{Child: root, Pred: q.traceFilter}
		}
		if len(q.keys) == 0 {
			if len(q.aggs) > 0 {
				return nil, serr.New(serr.Invalid, "core: aggregates over a trace require GroupBy")
			}
			// A bare trace: the result is the traced rows themselves.
			return root, nil
		}
	case root == nil:
		return nil, serr.New(serr.Invalid, "core: query has no tables")
	case len(q.keys) == 0:
		return nil, serr.New(serr.Unsupported, "core: only aggregation queries are supported; add GroupBy")
	}
	return plan.GroupBy{Child: root, Keys: q.keys, Aggs: q.aggs}, nil
}

// Fingerprint returns the stable fingerprint of the query's optimized plan
// (plan.Fingerprint): two queries with equal fingerprints execute
// identically against the current catalog state, which is what the server's
// result cache keys on. Capture options, push-downs included, are not part
// of it: Run attaches them. The plan is the capture-off one: a
// forward-scatter rewrite over the Siblings, and the sibling it reads, are
// part of it. Queries that cannot be planned (builder errors) return an
// error; callers then simply skip caching.
func (q *Query) Fingerprint() (string, error) {
	p, err := q.Plan()
	if err != nil {
		return "", err
	}
	return plan.Fingerprint(plan.OptimizeNoTrace(p, plan.Opts{Catalog: q.db.cat, Siblings: q.siblings})), nil
}

// Explain renders the query's logical plan and, after each optimizer rule
// that fired, the rewritten plan — the forward-scatter rule included when
// Run with opts would apply it, naming the sibling result it reads.
func (q *Query) Explain(opts CaptureOptions) (string, error) {
	p, err := q.Plan()
	if err != nil {
		return "", err
	}
	o := plan.Opts{Catalog: q.db.cat}
	if resolveStrategy(q.db, opts, plan.OptimizeNoTrace(p, o)) == StrategyLazy {
		o.Siblings = q.siblings
	}
	var b strings.Builder
	b.WriteString("logical plan:\n")
	b.WriteString(plan.Format(p))
	_, traces := plan.Optimize(p, o)
	for _, tr := range traces {
		b.WriteString("\nafter " + tr.Rule + ":\n" + tr.Plan)
	}
	if len(traces) == 0 {
		b.WriteString("\n(no optimizer rule fired)\n")
	}
	return b.String(), nil
}

// Result is an executed base query: its output relation plus captured
// lineage, which Backward/Forward and the consuming-query helpers read.
type Result struct {
	Out         *storage.Relation
	GroupCounts []int64

	db      *DB
	capture *lineage.Capture
	// plan is the optimized plan that produced the result (nil for
	// ConsumeGroupBy results, and for restored ones until AttachPlan):
	// bound traces carry it so the optimizer can reason about
	// scan-and-filter equivalence.
	plan plan.Node
	// bwPart (the data-skipping directory over the captured backward index)
	// and cube are the push-down outputs; partAttrs are bwPart's attributes.
	bwPart    *lineage.PartitionDir
	cube      *cube.Cube
	partAttrs []string
	// baseRel is the single base relation consuming queries re-aggregate.
	baseRel *storage.Relation
	params  expr.Params
	// bases is set on disk-recovered results (RestoreResult): the base
	// snapshots the capture addresses, resolved by BaseRelation in place of
	// the plan the original result carried.
	bases map[string]*storage.Relation
	// view marks a segment-backed trace view (RestoreView): a restored
	// result the server serves small bound traces off without retaining it
	// in the memory tier.
	view bool
	// strategy is the resolved capture strategy (strategy.go): it decides
	// whether a missing-index trace re-executes the stored plan (lazy,
	// hybrid) or fails like an explicitly pruned capture always has.
	strategy Strategy
	// scatteredFrom names the sibling whose forward index answered the
	// query (plan.ForwardScatter); "" when no rewrite ran.
	scatteredFrom string
}

// Run executes the query with the given capture options: the builder state
// (or prebuilt SQL plan) lowers onto the plan IR, the optimizer rewrites it
// (predicate pushdown, projection pruning, pk-fk detection, SPJA fusion), and
// exec.RunPlan executes the optimized plan. The workload-aware capture
// push-downs of §4.2 (cardinality statistics, selection push-down, data
// skipping, cube materialization) annotate the optimized root: they need it
// to be a group-by directly over a base scan or a backward trace, because
// the partition directory and the cube address the group-by's input rids as
// base rids.
func (q *Query) Run(opts CaptureOptions) (*Result, error) {
	if q.err != nil {
		return nil, q.err
	}
	if err := opts.validateStrategy(); err != nil {
		return nil, err
	}
	if q.traceNode == nil {
		q.db.runs.Add(1)
	}
	p, err := q.Plan()
	if err != nil {
		return nil, err
	}
	optimized := plan.OptimizeNoTrace(p, plan.Opts{Catalog: q.db.cat})
	if pd := opts.pushdown(); pd != nil {
		gb, _ := optimized.(plan.GroupBy) // any other root leaves gb childless
		switch gb.Child.(type) {
		case plan.Scan, plan.Backward:
		default:
			return nil, serr.New(serr.Unsupported, "core: push-down options currently require a single-table query block")
		}
		gb.Pushdown = pd
		optimized = gb
	}
	strat := resolveStrategy(q.db, opts, optimized)
	eopts := exec.PlanOpts{
		Mode: opts.Mode, Dirs: opts.Dirs, TableDirs: opts.TableDirs,
		Params: opts.Params, Compress: opts.Compress,
	}
	switch strat {
	case StrategyLazy:
		// Capture-free: the stored plan is the lineage.
		eopts.Mode, eopts.Dirs, eopts.TableDirs = ops.None, 0, nil
	case StrategyHybrid:
		// Backward eagerly, forward by re-execution.
		if eopts.Mode == ops.None {
			eopts.Mode = ops.Inject
		}
		eopts.Dirs, eopts.TableDirs = ops.CaptureBackward, nil
	case StrategyEager:
		// Auto may resolve a Mode-None request to eager capture.
		if eopts.Mode == ops.None {
			eopts.Mode = ops.Inject
		}
	}
	eopts.Workers, eopts.Pool = opts.workers(q.db)
	// The forward-scatter rewrite captures nothing, so only a capture-off
	// run takes it; the result keeps the unrewritten plan, which is what a
	// lazy trace of it re-executes with capture.
	run := optimized
	if strat == StrategyLazy {
		run = plan.RewriteForwardScatter(optimized, q.siblings)
	}
	pres, err := exec.RunPlan(run, eopts)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Out: pres.Out, GroupCounts: pres.GroupCounts,
		db: q.db, capture: pres.Capture, plan: optimized, params: opts.Params,
		bwPart: pres.BWPart, cube: pres.Cube, partAttrs: opts.PartitionBy,
		// Single-base plans keep consuming-query support (ConsumeGroupBy
		// re-aggregates base rows addressed by backward rids).
		baseRel: plan.SingleBase(optimized), strategy: strat,
	}
	if fs, ok := run.(plan.ForwardScatter); ok {
		res.scatteredFrom = fs.Sibling.Name
	}
	return res, nil
}

// ScatteredFrom names the sibling result (Query.Siblings) whose forward
// index answered the query through the forward-scatter rewrite, or "" when
// the query ran without it.
func (r *Result) ScatteredFrom() string { return r.scatteredFrom }

// Backward evaluates Lb(outRids ⊆ Out, table): the base rids of table that
// contributed to the given output rows. Lazy/hybrid results with no
// captured backward index answer by re-executing the stored plan
// (TraceStrategy reports the path).
func (r *Result) Backward(table string, outRids []Rid) ([]Rid, error) {
	return r.trace(TraceBackward, table, Rids(outRids...), false)
}

// BackwardPartition evaluates a parameterized backward query over a
// data-skipping capture: only the range of the output's backward list that
// matches the attribute values (in PartitionBy order, one per attribute) is
// read (§4.2). An outRid outside the result or a wrong value count is a
// serr.Invalid error.
func (r *Result) BackwardPartition(outRid Rid, vals []any) ([]Rid, error) {
	if r.bwPart == nil {
		return nil, serr.New(serr.Invalid, "core: query was not captured with PartitionBy")
	}
	if outRid < 0 || int(outRid) >= r.bwPart.Len() {
		return nil, serr.New(serr.Invalid, "core: output rid %d out of range [0, %d)", outRid, r.bwPart.Len())
	}
	if len(vals) != len(r.partAttrs) {
		return nil, serr.New(serr.Invalid, "core: %d partition values for %d PartitionBy attributes %v",
			len(vals), len(r.partAttrs), r.partAttrs)
	}
	key, ok := ops.PartitionKey(r.bwPart, r.baseRel, r.partAttrs, vals)
	if !ok {
		return nil, nil // value combination never observed
	}
	return r.bwPart.Partition(int(outRid), key), nil
}

// Forward evaluates Lf(inRids ⊆ table, Out). Lazy results answer by
// re-executing the stored plan.
func (r *Result) Forward(table string, inRids []Rid) ([]Rid, error) {
	return r.trace(TraceForward, table, Rids(inRids...), false)
}

// ForwardDistinct is Forward with set semantics (highlighting use cases).
func (r *Result) ForwardDistinct(table string, inRids []Rid) ([]Rid, error) {
	return r.trace(TraceForward, table, Rids(inRids...), true)
}

// BackwardDistinct is Backward with set semantics (which-provenance).
func (r *Result) BackwardDistinct(table string, outRids []Rid) ([]Rid, error) {
	return r.trace(TraceBackward, table, Rids(outRids...), true)
}

// Capture exposes the raw lineage indexes (benchmark harness, applications).
func (r *Result) Capture() *lineage.Capture { return r.capture }

// BaseRelation returns the relation instance this result was executed
// against for the named table, or nil when the result never scanned it.
// Bound traces resolve through it rather than the catalog, so a table
// re-registered after the result ran cannot be confused with the snapshot
// the captured rids address.
func (r *Result) BaseRelation(table string) *storage.Relation {
	if r.baseRel != nil && r.baseRel.Name == table {
		return r.baseRel
	}
	if rel, ok := r.bases[table]; ok {
		return rel
	}
	if r.plan != nil {
		for _, rel := range plan.Bases(r.plan, nil) {
			if rel.Name == table {
				return rel
			}
		}
	}
	return nil
}

// MemBytes approximates the memory a retained result keeps alive: its output
// relation plus every captured lineage index (raw or encoded). Session
// registries (internal/server) budget their LRU eviction on it. Base
// relations are shared with the catalog and not charged to the result.
func (r *Result) MemBytes() int64 {
	var total int64
	if r.Out != nil {
		total += r.Out.MemBytes()
	}
	if r.capture != nil {
		total += r.capture.MemBytes()
	}
	if r.bwPart != nil {
		total += int64(r.bwPart.SizeBytes())
	}
	total += int64(len(r.GroupCounts)) * 8
	return total
}

// bound packages the result as a trace binding: its output relation plus the
// captured indexes, traced in place by the physical trace operator.
func (r *Result) bound() *plan.BoundTrace {
	return &plan.BoundTrace{Out: r.Out, Capture: r.capture}
}

// Cube returns the partial data cube materialized by group-by push-down, or
// nil if none was requested.
func (r *Result) Cube() *cube.Cube { return r.cube }

// ConsumeGroupBy executes a lineage-consuming aggregation query over a base
// rid subset (typically the result of Backward), itself instrumented with the
// given options — consuming queries can act as base queries for further
// lineage queries (§2.1), which is how Q1b becomes the base query of Q1c.
// Only single-table results support this. Consuming queries run
// morsel-parallel like base queries: backward rid sets preserve duplicates
// (transformational semantics), which the duplicate-tolerant aggregation
// kernel (ops.AggOpts.DupRids) handles with output and lineage identical to
// a serial run. Query.Trace is the plan-level form of the same
// operation (with seed predicates, optimizer rewrites, and EXPLAIN).
func (r *Result) ConsumeGroupBy(rids []Rid, spec ops.GroupBySpec, opts CaptureOptions) (*Result, error) {
	if r.baseRel == nil {
		return nil, serr.New(serr.Unsupported, "core: consuming queries are supported over single-table results")
	}
	workers, pl := opts.workers(r.db)
	aggOpts := ops.AggOpts{
		Mode: opts.Mode, Dirs: opts.dirs(), Params: opts.Params,
		PushdownFilter: opts.PushdownFilter, PartitionBy: opts.PartitionBy,
		Workers: workers, Pool: pl, DupRids: true,
		Compress: opts.Compress,
	}
	var cb *cube.Builder
	if opts.Cube != nil {
		var err error
		cb, err = cube.NewBuilder(r.baseRel, *opts.Cube, opts.Params)
		if err != nil {
			return nil, err
		}
		aggOpts.Observe = cb.Observe
	}
	ares, err := ops.HashAgg(r.baseRel, rids, spec, aggOpts)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Out: ares.Out, GroupCounts: ares.GroupCounts,
		db: r.db, capture: lineage.NewCapture(),
		baseRel: r.baseRel, bwPart: ares.BWPart, partAttrs: opts.PartitionBy, params: opts.Params,
		strategy: StrategyEager,
	}
	if ix := ares.BackwardIndex(); ix != nil {
		out.capture.SetBackward(r.baseRel.Name, ix)
	}
	if ix := ares.ForwardIndex(); ix != nil {
		out.capture.SetForward(r.baseRel.Name, ix)
	}
	if cb != nil {
		out.cube = cb.Build()
	}
	return out, nil
}

// Gather materializes base rows (e.g. a backward-lineage result) from a
// registered table.
func (db *DB) Gather(table string, rids []Rid) (*storage.Relation, error) {
	rel, err := db.Table(table)
	if err != nil {
		return nil, err
	}
	return rel.Gather(table+"_lineage", rids), nil
}
