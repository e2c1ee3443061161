// Package wire is the single owner of the smoked HTTP JSON contract: the
// request, response and error bodies, the name tables that tie them to
// engine values (error kind ↔ status, column type, aggregate, capture mode),
// and the codecs between JSON values and relations. The single-node server
// (internal/server), the shard coordinator (internal/shard) and the Go
// client (internal/serverclient) all speak through it, so "what the JSON
// looks like" is decided here and nowhere else — a coordinator whose gathers
// must be element-identical to a single node cannot hold a second opinion on
// what a partial looks like. docs/http-api.md describes the same contract in
// prose.
//
// Error messages keep the "server:" prefix whichever front door produced
// them: clients cannot tell a coordinator from a single node.
package wire

import "smoke/internal/storage"

// Field is one schema field.
type Field struct {
	Name string `json:"name"`
	Type string `json:"type"` // "int" | "float" | "string"
}

// Table is the JSON ingest body of POST /v1/tables/{name}: an explicit
// schema plus rows in schema order.
type Table struct {
	Schema []Field `json:"schema"`
	Rows   [][]any `json:"rows"`
	// PK optionally declares the primary-key column (enables the pk-fk join
	// specializations for later queries).
	PK string `json:"pk,omitempty"`
}

// Result is the body of every query/trace/result reply. DecodeResult holds
// its rows boxed in Rows, int64, float64, or string by column type; Rows and
// DecodeTyped hold them as a relation's typed columns (Rel), the only form
// AppendResult renders.
type Result struct {
	Columns []string `json:"columns"`
	Types   []string `json:"types"`
	Rows    [][]any  `json:"rows"`
	N       int      `json:"row_count"`
	// GroupCounts is the input cardinality of each output group on group-by
	// results. The shard coordinator merges per-shard partial aggregates
	// through it (AVG reweighting needs the partial group sizes).
	GroupCounts []int64 `json:"group_counts,omitempty"`
	Cached      bool    `json:"cached,omitempty"`
	Explain     string  `json:"explain,omitempty"`
	// Retained echoes the name a result was stored under in the session.
	Retained string `json:"retained,omitempty"`
	// StrategyUsed echoes the lineage path that answered this request
	// ("eager", "lazy", "hybrid") when the request selected a strategy or a
	// trace was routed through a non-eager path.
	StrategyUsed string `json:"strategy_used,omitempty"`

	rel *storage.Relation // the rows as typed columns; Rows is then nil
}

// QueryRequest is the body of POST /v1/query and POST
// /v1/sessions/{id}/results/{name}.
type QueryRequest struct {
	SQL string `json:"sql"`
	// Capture is "none", "inject", or "defer". /v1/query defaults to none;
	// retained results default to inject (a capture is the point of
	// retaining) unless Strategy is "lazy".
	Capture  string         `json:"capture,omitempty"`
	Compress bool           `json:"compress,omitempty"`
	Params   map[string]any `json:"params,omitempty"`
	// Strategy is "eager", "lazy", "hybrid", or "auto" (empty keeps the
	// capture-mode default). Lazy retains no indexes: traces re-execute the
	// stored plan. Conflicting capture/strategy combinations are 400s.
	Strategy string `json:"strategy,omitempty"`
}

// TraceRequest is the body of POST
// /v1/sessions/{id}/results/{name}/trace: a bound backward/forward trace of
// the retained result, optionally filtered and re-aggregated (the consuming
// query), optionally retained under a new name for further chained traces.
type TraceRequest struct {
	// Direction is "backward" or "forward".
	Direction string `json:"direction"`
	// Table is the base relation to trace into (backward) or from (forward).
	Table string `json:"table"`
	// Rids seeds the trace with explicit rids (output rids for backward,
	// base rids for forward). Mutually exclusive with SeedWhere. It carries
	// no omitempty on purpose: nil (omitted or null) means "trace everything"
	// while a present-but-empty list is an explicit zero-seed trace — an
	// empty brush — and every re-encode (client, coordinator → shard) must
	// keep that distinction.
	Rids []int64 `json:"rids"`
	// SeedWhere seeds the trace by predicate (SQL expression syntax) over
	// the result's output rows (backward) or the base rows (forward).
	SeedWhere string `json:"seed_where,omitempty"`
	// Where filters the traced rows during rid-list expansion.
	Where string `json:"where,omitempty"`
	// GroupBy + Aggs build a consuming aggregation over the traced rows;
	// empty GroupBy returns the traced rows themselves.
	GroupBy []string `json:"group_by,omitempty"`
	Aggs    []Agg    `json:"aggs,omitempty"`

	Capture  string         `json:"capture,omitempty"`
	Compress bool           `json:"compress,omitempty"`
	Params   map[string]any `json:"params,omitempty"`
	// Retain stores the trace result under this name in the same session
	// (consuming results are base queries for further traces, §2.1).
	Retain string `json:"retain,omitempty"`
	// Strategy forces the trace's answer path: "eager" requires the captured
	// index (400 when the result has none), "lazy" forces plan re-execution.
	// Empty or "auto" keeps the result's own routing; "hybrid" is a
	// capture-time split, not a per-trace path, and is a 400 here. The
	// response echoes the path taken in "strategy_used".
	Strategy string `json:"strategy,omitempty"`
}

// Agg is one consuming aggregate of a trace request.
type Agg struct {
	Fn   string `json:"fn"`            // count, sum, avg, min, max, count_distinct
	Arg  string `json:"arg,omitempty"` // SQL expression; empty for count
	Name string `json:"name,omitempty"`
}

// ErrorBody is the uniform error reply.
type ErrorBody struct {
	Error struct {
		Kind    string `json:"kind"`
		Message string `json:"message"`
		Pos     *int   `json:"pos,omitempty"` // byte offset into the SQL text
	} `json:"error"`
}
