package sql

import (
	"fmt"

	"smoke/internal/core"
	"smoke/internal/expr"
	"smoke/internal/plan"
	"smoke/internal/serr"
	"smoke/internal/storage"
)

// Compile parses src and lowers it onto the logical plan layer, producing a
// query ready to Run with any capture options. The front end builds a naive
// plan (filters above the join tree); the optimizer — run by core.Query.Run —
// pushes predicates into scans, detects pk-fk joins, and fuses SPJA blocks
// onto the fused executor.
func Compile(db *core.DB, src string) (*core.Query, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileStmt(db, st)
}

// CompileStmt is Compile over an already-parsed statement.
func CompileStmt(db *core.DB, st *Stmt) (*core.Query, error) {
	if st.Explain {
		return nil, serr.New(serr.Invalid, "sql: EXPLAIN statements do not execute; use sql.Explain")
	}
	n, err := Lower(db, st)
	if err != nil {
		return nil, err
	}
	return db.QueryPlan(n), nil
}

// Explain parses src (with or without a leading EXPLAIN keyword), lowers it,
// and renders the logical plan before and after each optimizer rule that
// fired.
func Explain(db *core.DB, src string) (string, error) {
	st, err := Parse(src)
	if err != nil {
		return "", err
	}
	return ExplainStmt(db, st)
}

// ExplainStmt is Explain over an already-parsed statement.
func ExplainStmt(db *core.DB, st *Stmt) (string, error) {
	n, err := Lower(db, st)
	if err != nil {
		return "", err
	}
	return db.QueryPlan(n).Explain(core.CaptureOptions{})
}

// source is one FROM/JOIN relation during lowering: its reference name (alias
// or table name), its plan subtree, and its output schema.
type source struct {
	name   string
	node   plan.Node
	schema storage.Schema
}

// Lower turns a parsed statement into an (unoptimized) logical plan:
// scans/subqueries joined left-deep, the WHERE predicate as a filter above
// the join tree, a group-by, and HAVING/ORDER BY/LIMIT residue on top.
func Lower(db *core.DB, st *Stmt) (plan.Node, error) {
	first, err := lowerSource(db, st.From)
	if err != nil {
		return nil, err
	}
	srcs := []source{first}
	n := first.node

	for _, j := range st.Joins {
		s, err := lowerSource(db, j.Source)
		if err != nil {
			return nil, err
		}
		// Normalize the ON condition: one side must resolve within the
		// already-joined prefix, the other within the joined source. Accept
		// either order.
		leftRef, rightRef := j.LeftRef, j.RightRef
		if !refResolves(leftRef, srcs) || !refResolves(rightRef, []source{s}) {
			leftRef, rightRef = rightRef, leftRef
			if !refResolves(leftRef, srcs) {
				return nil, serr.New(serr.Invalid, "sql: join condition for %s does not reference the query prefix", s.name)
			}
			if !refResolves(rightRef, []source{s}) {
				return nil, serr.New(serr.Invalid, "sql: join condition for %s must reference %s on one side", s.name, s.name)
			}
		}
		n = plan.Join{Left: n, Right: s.node, LeftKey: leftRef.Col, RightKey: rightRef.Col,
			LeftQual: sourceOf(leftRef, srcs)}
		srcs = append(srcs, s)
	}

	if st.Where != nil {
		for _, conj := range conjuncts(st.Where) {
			if len(expr.Columns(conj)) == 0 {
				return nil, serr.New(serr.Unsupported, "sql: constant predicate %s is not supported", conj)
			}
		}
		n = plan.Filter{Child: n, Pred: st.Where}
	}

	groupSet := map[string]bool{}
	var keys []string
	for _, g := range st.GroupBy {
		keys = append(keys, g.Col)
		groupSet[g.Col] = true
	}
	gb := plan.GroupBy{Child: n, Keys: keys}
	aggIdx := 0
	for _, it := range st.Items {
		switch {
		case it.Col != nil:
			if !groupSet[it.Col.Col] {
				return nil, serr.New(serr.Invalid, "sql: select column %s must appear in GROUP BY", it.Col)
			}
		case it.Agg != nil:
			name := it.Agg.Alias
			if name == "" {
				name = fmt.Sprintf("%s_%d", it.Agg.Fn, aggIdx)
			}
			gb.Aggs = append(gb.Aggs, plan.AggDef{Fn: it.Agg.Fn, Arg: it.Agg.Arg, Name: name})
			aggIdx++
		}
	}
	if aggIdx == 0 {
		return nil, serr.New(serr.Unsupported, "sql: only aggregation queries are supported; add an aggregate to the select list")
	}
	if len(keys) == 0 {
		return nil, serr.New(serr.Unsupported, "sql: only grouped aggregation queries are supported; add GROUP BY")
	}
	n = gb

	if st.Having != nil {
		// HAVING references output columns (group keys and aggregate
		// aliases); it stays a filter above the aggregation unless the
		// pushdown rule proves it key-only.
		n = plan.Filter{Child: n, Pred: st.Having}
	}
	if len(st.OrderBy) > 0 {
		// ORDER BY references output columns (group keys and aggregate
		// aliases); qualifiers only disambiguate in this grammar and the
		// output schema has plain names, so validate the bare column.
		outSchema, err := plan.OutSchema(n)
		if err != nil {
			return nil, err
		}
		ob := plan.OrderBy{Child: n}
		for _, k := range st.OrderBy {
			if k.Col.Table != "" {
				return nil, serr.New(serr.Invalid, "sql: ORDER BY references output columns; use the unqualified name, not %s", k.Col)
			}
			if outSchema.Col(k.Col.Col) < 0 {
				return nil, serr.New(serr.Invalid, "sql: ORDER BY column %s is not an output column", k.Col)
			}
			ob.Keys = append(ob.Keys, plan.SortKey{Col: k.Col.Col, Desc: k.Desc})
		}
		n = ob
	}
	if st.Limit >= 0 {
		n = plan.Limit{Child: n, N: st.Limit}
	}
	return n, nil
}

// lowerSource lowers one FROM/JOIN item: a base-table scan, a recursively
// lowered aggregate subquery, or a lineage trace.
func lowerSource(db *core.DB, f FromItem) (source, error) {
	if f.Trace != nil {
		sub, err := Lower(db, f.Trace.Sub)
		if err != nil {
			return source{}, serr.New(serr.Invalid, "sql: traced query: %w", err)
		}
		rel, err := db.Table(f.Trace.Table)
		if err != nil {
			return source{}, err
		}
		if f.Trace.Backward {
			// The trace's output rows are base rows of the traced table.
			n := plan.Backward{Source: sub, Table: f.Trace.Table, Rel: rel, SeedPred: f.Trace.Seed}
			return source{name: f.Name(), node: n, schema: rel.Schema}, nil
		}
		schema, err := plan.OutSchema(sub)
		if err != nil {
			return source{}, serr.New(serr.Invalid, "sql: traced query: %w", err)
		}
		n := plan.Forward{Source: sub, Table: f.Trace.Table, Rel: rel, SeedPred: f.Trace.Seed}
		return source{name: f.Name(), node: n, schema: schema}, nil
	}
	if f.Sub != nil {
		sub, err := Lower(db, f.Sub)
		if err != nil {
			return source{}, serr.New(serr.Invalid, "sql: subquery %s: %w", f.Alias, err)
		}
		schema, err := plan.OutSchema(sub)
		if err != nil {
			return source{}, serr.New(serr.Invalid, "sql: subquery %s: %w", f.Alias, err)
		}
		return source{name: f.Alias, node: sub, schema: schema}, nil
	}
	rel, err := db.Table(f.Table)
	if err != nil {
		return source{}, err
	}
	return source{name: f.Name(), node: plan.Scan{Table: f.Table, Rel: rel}, schema: rel.Schema}, nil
}

// refResolves reports whether a (possibly qualified) column reference
// resolves unambiguously within the given sources.
func refResolves(c ColRef, srcs []source) bool {
	if c.Table != "" {
		for _, s := range srcs {
			if s.name == c.Table {
				return s.schema.Col(c.Col) >= 0
			}
		}
		return false
	}
	found := 0
	for _, s := range srcs {
		if s.schema.Col(c.Col) >= 0 {
			found++
		}
	}
	return found == 1
}

// sourceOf returns the name of the source a reference resolves to ("" when
// it cannot be pinned to one). The join lowering records it as the key's
// qualifier so ambiguous key names stay resolvable downstream.
func sourceOf(c ColRef, srcs []source) string {
	if c.Table != "" {
		for _, s := range srcs {
			if s.name == c.Table && s.schema.Col(c.Col) >= 0 {
				return s.name
			}
		}
		return ""
	}
	found := ""
	for _, s := range srcs {
		if s.schema.Col(c.Col) >= 0 {
			if found != "" {
				return ""
			}
			found = s.name
		}
	}
	return found
}

// conjuncts flattens a conjunction tree.
func conjuncts(e expr.Expr) []expr.Expr {
	if a, ok := e.(expr.And); ok {
		return append(conjuncts(a.L), conjuncts(a.R)...)
	}
	return []expr.Expr{e}
}
