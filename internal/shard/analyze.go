package shard

import (
	"strings"

	"smoke/internal/plan"
	"smoke/internal/serr"
	"smoke/internal/sql"
)

// analysis is the coordinator's decision to scatter a statement: run it on
// every shard over its rid-range slice and gather with the two-phase grouped
// merge. It keeps the optimized plan — lowered over the coordinator's
// catalog, so its scans read the global relations as of planning — and the
// merge recipe plan.Distribute read off it.
type analysis struct {
	plan    plan.Node
	scatter plan.Scatter
	tbl     *table // the sharded table's placement snapshot at planning time
}

// planQuery lowers the statement through the plan layer — sql.Parse,
// sql.Lower over the coordinator's catalog, plan.OptimizeNoTrace — and reads
// the route off the optimized plan (plan.Distribute): a nil analysis — proxy
// to one shard, which holds every input whole — when it reads no sharded
// table, a scatter with the merge recipe when the plan layer admits it, a
// counted 422 naming the fence otherwise. Single-shard deployments
// always proxy — one shard holds everything, so shards=1 has exact
// single-node behavior with none of the scatter fences — and so does
// EXPLAIN, which renders a plan instead of executing (over a sharded table,
// the shard-local slice's).
func (c *Coordinator) planQuery(sqlText string) (*analysis, error) {
	if strings.TrimSpace(sqlText) == "" {
		return nil, serr.New(serr.Invalid, "server: request has no sql")
	}
	if len(c.nodes) == 1 {
		return nil, nil
	}
	st, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	if st.IsExplain() {
		return nil, nil
	}
	// The read lock keeps the catalog and the dist book one snapshot: a
	// re-ingest cannot land between lowering and the placement lookup.
	c.mu.RLock()
	defer c.mu.RUnlock()
	n, err := sql.Lower(c.cat, st)
	if err != nil {
		return nil, err
	}
	n = plan.OptimizeNoTrace(n, plan.Opts{Catalog: c.cat.Catalog()})
	s, f := plan.Distribute(n, func(name string) bool {
		t := c.tables[name]
		return t != nil && t.dist == "shard"
	})
	switch {
	case f != plan.Admit:
		return nil, c.fence(f)
	case s.Table == "":
		return nil, nil
	}
	return &analysis{plan: n, scatter: s, tbl: c.tables[s.Table]}, nil
}

// fence counts a fence by its reason code (/healthz "fenced") and renders
// it as the structured 422 — a deliberate refusal, never a wrong answer.
func (c *Coordinator) fence(f plan.Fence) error {
	c.fenced[f].Add(1)
	return serr.New(serr.Unsupported, "shard: %s (fence %s)", f.Reason(), f)
}
