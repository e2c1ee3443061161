// Package smoke is a Go reproduction of "Smoke: Fine-grained Lineage at
// Interactive Speed" (Psallidas & Wu, VLDB 2018): an in-memory, hash-based
// query engine that captures record-level (rid-to-rid) lineage inside its
// physical operators with low overhead and answers backward/forward lineage
// queries — and lineage-consuming queries — at interactive speed.
//
// Execution is morsel-parallel: opening with smoke.WithWorkers(n) splits
// every scan into contiguous row-range partitions executed over a shared
// worker pool, with partition-local lineage capture merged in partition
// order — the paper's tight-integration principle (P1) holds per partition,
// and the merged lineage is identical for every partition count (float
// aggregates can differ in the final ulp from partial-sum order; nothing else
// does). The workers=1 default is one partition of the same drivers — the
// single-threaded execution the paper describes and its experiments
// reproduce; a DB is safe for concurrent Query().Run() calls either way.
//
// Captured indexes can be stored compressed: CaptureOptions{Compress: true}
// encodes every finished rid list adaptively (raw rids, delta+varint,
// run-length, or bitmap — whichever is smallest per list) after capture, and
// Backward/Forward and lineage-consuming queries read the encoded indexes in
// place, element-identically to raw capture. Dense capture shapes (range
// scans, clustered groups) shrink by an order of magnitude; adversarial
// shapes are bounded at raw cost. See DESIGN.md "Compressed lineage
// representations".
//
// Queries — from this builder API or the SQL front end (internal/sql,
// cmd/smokecli) — lower onto one logical plan layer (internal/plan), where
// an optimizer pushes predicates into scans, prunes join materialization,
// detects pk-fk joins, and fuses SPJA blocks onto the single-pass fused
// capture executor; multi-block shapes (aggregates over joins over grouped
// subqueries, HAVING, ORDER BY, LIMIT, unions) run their residue on a
// composing generic runner with the same parallelism and compression, and
// with end-to-end lineage composed across blocks. See DESIGN.md "Plan layer
// & optimizer".
//
// Lineage consumption is a plan citizen too: Query.Trace (and
// the SQL LINEAGE BACKWARD/FORWARD clause) start a query from a trace of a
// prior result's captured indexes, re-aggregating the traced rows through
// the same optimizer (consuming predicates push through the trace;
// key-predicate seeds may rewrite to scan-and-filter by selectivity) and
// the same morsel-parallel kernels — duplicate rid sets included, via the
// duplicate-tolerant aggregation. Result.ConsumeGroupBy is the direct
// rid-set form of the same operation and shares those kernels. See
// DESIGN.md "Lineage-consuming queries".
//
// The engine also runs as a network service: cmd/smoked serves ingest, SQL,
// and session-scoped bound traces over HTTP (internal/server), so clients
// capture once and trace per interaction across requests — see
// docs/http-api.md.
//
// The root package re-exports the engine facade (internal/core), the storage
// and expression substrates, and the capture knobs, so in-process
// applications program against one import:
//
//	db := smoke.Open(smoke.WithWorkers(4))
//	defer db.Close() // releases the worker pool
//	db.Register(rel)
//	res, err := db.Query().
//	    From("lineitem", smoke.LtE(smoke.C("l_shipdate"), smoke.I(cutoff))).
//	    GroupBy("l_returnflag", "l_linestatus").
//	    Agg(smoke.Sum, smoke.C("l_quantity"), "sum_qty").
//	    Run(smoke.CaptureOptions{Mode: smoke.Inject})
//	rids, err := res.Backward("lineitem", []smoke.Rid{0})
//
// See DESIGN.md for the documentation index (docs/architecture.md has the
// full system map) and docs/benchmarks.md for the measured record.
package smoke

import (
	"smoke/internal/core"
	"smoke/internal/cube"
	"smoke/internal/expr"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/storage"
)

// Engine facade.
type (
	// DB is an in-memory database instance.
	DB = core.DB
	// Query builds an SPJA block.
	Query = core.Query
	// Result is an executed base query with its captured lineage.
	Result = core.Result
	// CaptureOptions selects instrumentation and workload-aware optimizations.
	CaptureOptions = core.CaptureOptions
	// Rid is a record id within a relation.
	Rid = lineage.Rid
	// Option configures a DB at Open time.
	Option = core.Option
)

// Open returns an empty database. Parallel databases (WithWorkers(n > 1))
// own worker goroutines once a parallel query has run; call db.Close when
// done with a DB you will abandon.
func Open(opts ...Option) *DB { return core.Open(opts...) }

// Trace strategy and the unified seed API (see internal/core/strategy.go):
// CaptureOptions.Strategy selects eager index capture, lazy re-execution,
// a hybrid, or a cost-based automatic choice; Query.Trace / Result.Trace
// take a direction plus a Seed in place of the four legacy constructors.
type (
	// Strategy selects how a query's result provides lineage.
	Strategy = core.Strategy
	// Seed is a unified trace seed: Rids(...), Where(pred), or the zero
	// value for everything.
	Seed = core.Seed
	// TraceDir is a lineage direction (TraceBackward/TraceForward).
	TraceDir = core.TraceDir
)

// Capture strategies.
const (
	// StrategyDefault lets Mode decide (capturing Mode → eager; None → lazy).
	StrategyDefault = core.StrategyDefault
	// StrategyEager captures lineage indexes during execution.
	StrategyEager = core.StrategyEager
	// StrategyLazy captures nothing; traces re-execute the stored plan.
	StrategyLazy = core.StrategyLazy
	// StrategyHybrid captures backward eagerly, answers forward lazily.
	StrategyHybrid = core.StrategyHybrid
	// StrategyAuto chooses per query from plan shape and trace rate.
	StrategyAuto = core.StrategyAuto
)

// Trace directions.
const (
	// TraceBackward asks which base rows produced the seeded output rows.
	TraceBackward = core.TraceBackward
	// TraceForward asks which output rows depend on the seeded base rows.
	TraceForward = core.TraceForward
)

// Rids seeds a trace with an explicit rid set (Rids() with no arguments is
// an explicit empty seed set; the zero Seed traces everything).
func Rids(rids ...Rid) Seed { return core.Rids(rids...) }

// Where seeds a trace with a predicate over the seed relation's rows.
func Where(pred Expr) Seed { return core.Where(pred) }

// ParseStrategy maps a wire spelling ("eager", "lazy", "hybrid", "auto",
// "") to a Strategy; unknown spellings are a structured Invalid error.
func ParseStrategy(s string) (Strategy, error) { return core.ParseStrategy(s) }

// WithWorkers sets the DB's default intra-query parallelism: n > 1 runs the
// morsel-parallel kernels over a shared worker pool; n <= 1 keeps the serial
// specialization. CaptureOptions.Parallelism overrides it per query.
func WithWorkers(n int) Option { return core.WithWorkers(n) }

// Storage substrate.
type (
	// Relation is an in-memory table addressed by rid.
	Relation = storage.Relation
	// Schema is an ordered list of fields.
	Schema = storage.Schema
	// Field is a named, typed attribute.
	Field = storage.Field
	// Type identifies a column type.
	Type = storage.Type
)

// Column types.
const (
	TInt    = storage.TInt
	TFloat  = storage.TFloat
	TString = storage.TString
)

// NewRelation allocates a relation with n zero-valued rows.
func NewRelation(name string, schema Schema, n int) *Relation {
	return storage.NewRelation(name, schema, n)
}

// NewEmpty allocates an empty relation for AppendRow-style construction.
func NewEmpty(name string, schema Schema) *Relation { return storage.NewEmpty(name, schema) }

// Capture modes (§3.2): Baseline / Inject / Defer.
const (
	// NoCapture runs the base query without lineage capture.
	NoCapture = ops.None
	// Inject captures lineage inside operator execution.
	Inject = ops.Inject
	// Defer postpones index construction until after execution.
	Defer = ops.Defer
)

// CaptureMode selects the instrumentation paradigm.
type CaptureMode = ops.CaptureMode

// Directions selects which lineage directions to capture.
type Directions = ops.Directions

// Direction values; pruning the unused one is the §4.1 optimization.
const (
	CaptureBackward = ops.CaptureBackward
	CaptureForward  = ops.CaptureForward
	CaptureBoth     = ops.CaptureBoth
)

// Aggregation functions.
type AggFn = ops.AggFn

// Supported aggregates (algebraic and distributive, plus COUNT DISTINCT for
// profiling workloads).
const (
	Count         = ops.Count
	Sum           = ops.Sum
	Avg           = ops.Avg
	Min           = ops.Min
	Max           = ops.Max
	CountDistinct = ops.CountDistinct
)

// GroupBySpec describes a hash aggregation for consuming queries.
type GroupBySpec = ops.GroupBySpec

// AggSpec is one aggregate in a GroupBySpec.
type AggSpec = ops.AggSpec

// Expression language.
type (
	// Expr is an expression tree node.
	Expr = expr.Expr
	// Params binds named parameters at compile time.
	Params = expr.Params
)

// Expression constructors (see internal/expr for the full AST).
var (
	// C references a column.
	C = expr.C
	// I is an integer literal.
	I = expr.I
	// F is a float literal.
	F = expr.F
	// S is a string literal.
	S = expr.S
	// P is a named parameter (:name).
	P = expr.P
	// EqE, LtE, LeE, GtE, GeE build comparisons.
	EqE = expr.EqE
	LtE = expr.LtE
	LeE = expr.LeE
	GtE = expr.GtE
	GeE = expr.GeE
	// AndE conjoins expressions; MulE/SubE/AddE build arithmetic.
	AndE = expr.AndE
	MulE = expr.MulE
	SubE = expr.SubE
	AddE = expr.AddE
)

// Group-by push-down (partial data cubes, §4.2).
type (
	// CubeSpec declares drill-down dimensions and per-cell aggregates.
	CubeSpec = cube.Spec
	// CubeAgg is one materialized aggregate per cube cell.
	CubeAgg = cube.AggDef
	// Cube is the materialized result, queryable per output group.
	Cube = cube.Cube
)
