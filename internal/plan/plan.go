// Package plan is the engine's logical plan layer: a relational IR that both
// front ends (the core.Query builder and the SQL compiler) lower onto, an
// optimizer pass pipeline over it (optimize.go), and enough schema inference
// to drive the rules. The physical lowering lives in internal/exec
// (exec.RunPlan): fusible select-project-join-aggregate subtrees are rewritten
// by the optimizer into SPJA nodes that run on the fused block executor
// (exec.Run), and everything else — multi-block residue like HAVING filters,
// ORDER BY/LIMIT, set unions, non-pk-fk joins — runs on the generic
// operator-at-a-time runner with lineage composition.
//
// The IR is deliberately small and name-based: columns are referenced by
// output-relation column name, and every node can report its output schema
// (OutSchema), which is what the rules use to decide where predicates,
// projections, and fusion boundaries may move.
package plan

import (
	"fmt"
	"strconv"
	"strings"

	"smoke/internal/cube"
	"smoke/internal/expr"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/storage"
)

// Node is a logical plan node.
type Node interface {
	isNode()
}

// Scan reads a base relation, with an optional pipelined filter (installed by
// the predicate-pushdown rule, or directly by the query builder).
type Scan struct {
	Table  string // catalog name (capture indexes are keyed by it)
	Rel    *storage.Relation
	Filter expr.Expr // nil = no filter
}

// Filter applies a predicate to its child's output.
type Filter struct {
	Child Node
	Pred  expr.Expr
}

// Project keeps the named columns, in order (bag semantics: lineage is
// identity).
type Project struct {
	Child Node
	Cols  []string
}

// Join equi-joins its children on LeftKey = RightKey (integer keys). The
// build side is the left child; the probe side is the right child.
type Join struct {
	Left, Right       Node
	LeftKey, RightKey string
	// LeftQual optionally qualifies LeftKey with its source (table or alias)
	// name. When LeftKey is ambiguous among the prefix sources, the
	// materialized prefix renames the colliding columns to "source.col" and
	// the physical layer uses the qualifier to pick the right one; fusion
	// uses it to resolve the owning input.
	LeftQual string
	// PKFK marks the left key as unique (a primary key or a group-by key),
	// set by the pk-fk detection rule: the physical layer then runs the
	// single-rid-per-entry pk-fk join instead of the general M:N join, and
	// the fusion rule may absorb the join into an SPJA block.
	PKFK bool
	// Cols, when non-nil, lists the output columns the ancestors actually
	// read (projection pruning): the physical join materializes only these.
	Cols []string
}

// AggDef is one aggregate of a GroupBy node. Filter models the SQL
// CASE WHEN ... THEN 1 counting idiom: the aggregate folds only the rows
// passing it, on every lowering (fused block and hash aggregation alike).
type AggDef struct {
	Fn     ops.AggFn
	Arg    expr.Expr // nil for COUNT(*)
	Filter expr.Expr
	Name   string // output column; "" defaults to fn_<i>
}

// OutName is the aggregate's output column name (the default mirrors both
// physical aggregation operators).
func (a AggDef) OutName(i int) string {
	if a.Name != "" {
		return a.Name
	}
	return string(a.appendOutName(nil, i))
}

func (a AggDef) appendOutName(b []byte, i int) []byte {
	if a.Name != "" {
		return append(b, a.Name...)
	}
	return strconv.AppendInt(append(append(b, a.Fn.String()...), '_'), int64(i), 10)
}

// GroupBy hash-aggregates its child: output columns are Keys (in order)
// followed by the aggregates.
type GroupBy struct {
	Child Node
	Keys  []string
	Aggs  []AggDef
	// Pushdown, when set, shapes the group-by's lineage capture (§4.2).
	Pushdown *Pushdown
}

// Pushdown is the workload-aware capture annotation of a GroupBy: how it
// captures backward lineage, chosen because the future lineage queries are
// known up front (§4.2). It never changes the output. It applies only to a
// group-by directly over a base Scan or a Backward trace, whose input rids
// are base rids: the partition directory and the cube address them.
type Pushdown struct {
	CountsByKey []int32    // exact cardinality per integer group key (§6.1.1)
	Filter      expr.Expr  // capture only rows passing it (selection push-down)
	PartitionBy []string   // partition backward rids by these attributes (data skipping)
	Cube        *cube.Spec // drill-down aggregates built during capture (group-by push-down)
}

// String renders the annotation canonically for EXPLAIN and Fingerprint;
// the counts are content-hashed like trace seeds.
func (p *Pushdown) String() string { return string(p.append(nil)) }

func (p *Pushdown) append(b []byte) []byte {
	start := len(b)
	sep := func() {
		if len(b) > start {
			b = append(b, ' ')
		}
	}
	if p.CountsByKey != nil {
		b = strconv.AppendInt(append(b, "counts="...), int64(len(p.CountsByKey)), 10)
		b = strconv.AppendUint(append(b, ':'), hashRids(p.CountsByKey), 16)
	}
	if p.Filter != nil {
		sep()
		b = expr.Append(append(b, "filter="...), p.Filter)
	}
	if p.PartitionBy != nil {
		sep()
		b = append(appendJoined(append(b, "partition=["...), p.PartitionBy, ", "), ']')
	}
	if p.Cube != nil {
		aggs := make([]AggDef, len(p.Cube.Aggs))
		for i, a := range p.Cube.Aggs {
			aggs[i] = AggDef{Fn: a.Fn, Arg: a.Arg, Name: a.Name}
		}
		sep()
		b = appendJoined(append(b, "cube=["...), p.Cube.Dims, ", ")
		b = append(appendAggs(append(b, "; "...), aggs), ']')
	}
	return b
}

// Union computes the set union of its children over the given attributes.
type Union struct {
	Left, Right Node
	Attrs       []string
}

// SortKey is one ORDER BY key.
type SortKey struct {
	Col  string
	Desc bool
}

// OrderBy stably sorts its child's output by the keys.
type OrderBy struct {
	Child Node
	Keys  []SortKey
}

// Limit keeps the first N rows of its child.
type Limit struct {
	Child Node
	N     int
}

// BoundTrace binds a trace node to an already-executed instance of its
// Source: the source's output relation and its captured lineage indexes. A
// bound trace never re-runs the source — the physical layer traces the
// capture in place. This is the interactive consuming-query shape of the
// paper (§2.1): a base query runs once with capture, then every interaction
// is a trace-then-query plan over the bound capture.
type BoundTrace struct {
	Out     *storage.Relation
	Capture *lineage.Capture
}

// Backward is a backward lineage-consuming trace (Lb, §2.2) as a plan node:
// its output is the Table rows that contributed to the selected output rows
// of Source (duplicates preserved — transformational semantics — unless
// Distinct). Seeds are an explicit output-rid set or a predicate over the
// source's output; nil seeds trace every output row.
//
// When Bound is nil, the physical layer executes Source (capturing the one
// backward index the trace needs) and traces it; when Bound is set, the
// already-captured indexes are traced directly. The node's own lineage to
// Table is the traced rid list itself, so trace-then-query plans compose
// end-to-end and consuming results can act as base queries for further
// traces (Q1b → Q1c chains).
type Backward struct {
	Source Node              // the traced query (may be nil when Bound is set)
	Table  string            // base relation to trace into
	Rel    *storage.Relation // base relation (the node's output schema)
	// SeedRids selects the seed output rows explicitly; SeedPred selects them
	// by predicate over the source's output. Both nil traces all outputs.
	SeedRids []lineage.Rid
	SeedPred expr.Expr
	// Filter is a consuming predicate over the traced base rows, installed by
	// the optimizer's trace-pushdown rule (or directly by a front end): rows
	// failing it are dropped during rid-list expansion, before any
	// materialization.
	Filter expr.Expr
	// Distinct switches to set semantics (which-provenance).
	Distinct bool
	// ScanEquiv, set by the optimizer when the trace is provably equivalent
	// to a filtered base scan (key-predicate seeds over a single-scan
	// aggregation), lets the physical layer choose scan-and-filter over
	// index-trace by seed selectivity.
	ScanEquiv *Scan
	Bound     *BoundTrace
}

// Forward is the forward trace (Lf): its output is the Source output rows
// that depend on the selected Table rows. Seeds are an explicit base-rid set
// or a predicate over the base relation; Filter (optional) drops traced
// output rows during expansion.
type Forward struct {
	Source   Node
	Table    string
	Rel      *storage.Relation // base relation the seeds address
	SeedRids []lineage.Rid
	SeedPred expr.Expr
	Filter   expr.Expr
	Distinct bool
	Bound    *BoundTrace
}

// SPJA is a fused select-project-join-aggregate block produced by the fusion
// rule: the inputs (base scans or arbitrary subplans) join left-deep along
// Joins, pipeline per-input Filters, and aggregate by Keys/Aggs, all in one
// pass of the fused block executor with no intermediate lineage. Scan inputs
// keep their pipelined filter in Filters; subplan inputs execute first and
// their end-to-end lineage composes with the block's capture.
type SPJA struct {
	Inputs  []Node
	Filters []expr.Expr // per-input pipelined filter (nil entries allowed)
	Joins   []SPJAJoin
	Keys    []SPJAKey
	Aggs    []SPJAAgg
}

// SPJAJoin joins the prefix (inputs 0..j) with input j+1: the prefix-side key
// LeftInput.LeftCol equals input j+1's RightCol.
type SPJAJoin struct {
	LeftInput int
	LeftCol   string
	RightCol  string
}

// SPJAKey is a group-by key qualified by input index.
type SPJAKey struct {
	Input int
	Col   string
}

// SPJAAgg is one aggregate, evaluated against a single input's rows.
type SPJAAgg struct {
	Fn     ops.AggFn
	Input  int
	Arg    expr.Expr
	Filter expr.Expr
	Name   string
}

func (Scan) isNode()     {}
func (Filter) isNode()   {}
func (Project) isNode()  {}
func (Join) isNode()     {}
func (GroupBy) isNode()  {}
func (Union) isNode()    {}
func (OrderBy) isNode()  {}
func (Limit) isNode()    {}
func (SPJA) isNode()     {}
func (Backward) isNode() {}
func (Forward) isNode()  {}

// OutSchema infers the output schema of a node. Join inference fails on
// column-name collisions between the sides (the physical join would prefix
// them with relation names the optimizer cannot predict); rules that need the
// schema treat that as "do not rewrite here".
func OutSchema(n Node) (storage.Schema, error) {
	switch node := n.(type) {
	case Scan:
		return node.Rel.Schema, nil
	case Filter:
		return OutSchema(node.Child)
	case Project:
		cs, err := OutSchema(node.Child)
		if err != nil {
			return nil, err
		}
		out := make(storage.Schema, len(node.Cols))
		for i, c := range node.Cols {
			ci := cs.Col(c)
			if ci < 0 {
				return nil, fmt.Errorf("plan: project column %q not in child schema", c)
			}
			out[i] = cs[ci]
		}
		return out, nil
	case Join:
		ls, err := OutSchema(node.Left)
		if err != nil {
			return nil, err
		}
		rs, err := OutSchema(node.Right)
		if err != nil {
			return nil, err
		}
		out := make(storage.Schema, 0, len(ls)+len(rs))
		for _, f := range ls {
			if rs.Col(f.Name) >= 0 {
				return nil, fmt.Errorf("plan: join output column %q is ambiguous", f.Name)
			}
			out = append(out, f)
		}
		out = append(out, rs...)
		if node.Cols != nil {
			kept := out[:0:0]
			for _, f := range out {
				if containsStr(node.Cols, f.Name) {
					kept = append(kept, f)
				}
			}
			out = kept
		}
		return out, nil
	case GroupBy:
		cs, err := OutSchema(node.Child)
		if err != nil {
			return nil, err
		}
		out := make(storage.Schema, 0, len(node.Keys)+len(node.Aggs))
		for _, k := range node.Keys {
			ci := cs.Col(k)
			if ci < 0 {
				return nil, fmt.Errorf("plan: group key %q not in child schema", k)
			}
			out = append(out, cs[ci])
		}
		for i, a := range node.Aggs {
			ty := storage.TFloat
			if a.Fn == ops.Count || a.Fn == ops.CountDistinct {
				ty = storage.TInt
			}
			out = append(out, storage.Field{Name: a.OutName(i), Type: ty})
		}
		return out, nil
	case Union:
		ls, err := OutSchema(node.Left)
		if err != nil {
			return nil, err
		}
		out := make(storage.Schema, len(node.Attrs))
		for i, a := range node.Attrs {
			ci := ls.Col(a)
			if ci < 0 {
				return nil, fmt.Errorf("plan: union attribute %q not in left schema", a)
			}
			out[i] = ls[ci]
		}
		return out, nil
	case OrderBy:
		return OutSchema(node.Child)
	case Limit:
		return OutSchema(node.Child)
	case Backward:
		return node.Rel.Schema, nil
	case ForwardScatter:
		return OutSchema(GroupBy{Child: node.Trace, Keys: []string{node.Key}, Aggs: node.Aggs})
	case Forward:
		if node.Source != nil {
			return OutSchema(node.Source)
		}
		if node.Bound != nil {
			return node.Bound.Out.Schema, nil
		}
		return nil, fmt.Errorf("plan: forward trace has neither source nor bound result")
	case SPJA:
		out := make(storage.Schema, 0, len(node.Keys)+len(node.Aggs))
		for _, k := range node.Keys {
			is, err := OutSchema(node.Inputs[k.Input])
			if err != nil {
				return nil, err
			}
			ci := is.Col(k.Col)
			if ci < 0 {
				return nil, fmt.Errorf("plan: SPJA key %q not in input %d", k.Col, k.Input)
			}
			out = append(out, is[ci])
		}
		for i, a := range node.Aggs {
			ty := storage.TFloat
			if a.Fn == ops.Count {
				ty = storage.TInt
			}
			name := a.Name
			if name == "" {
				name = fmt.Sprintf("%s_%d", a.Fn, i)
			}
			out = append(out, storage.Field{Name: name, Type: ty})
		}
		return out, nil
	}
	return nil, fmt.Errorf("plan: unknown node %T", n)
}

// resolveCount reports how many times col resolves in n's output schema
// (0 = absent, 1 = unique, 2 = ambiguous). Nodes whose schema cannot be
// inferred count as ambiguous, which makes every rule treat them as opaque.
func resolveCount(n Node, col string) int {
	s, err := OutSchema(n)
	if err != nil {
		return 2
	}
	if s.Col(col) >= 0 {
		return 1
	}
	return 0
}

// Bases appends the base relations scanned anywhere under n, in plan order.
func Bases(n Node, dst []*storage.Relation) []*storage.Relation {
	switch node := n.(type) {
	case Scan:
		return append(dst, node.Rel)
	case Filter:
		return Bases(node.Child, dst)
	case Project:
		return Bases(node.Child, dst)
	case Join:
		return Bases(node.Right, Bases(node.Left, dst))
	case GroupBy:
		return Bases(node.Child, dst)
	case Union:
		return Bases(node.Right, Bases(node.Left, dst))
	case OrderBy:
		return Bases(node.Child, dst)
	case Limit:
		return Bases(node.Child, dst)
	case SPJA:
		for _, in := range node.Inputs {
			dst = Bases(in, dst)
		}
		return dst
	case Backward:
		// The trace's output rows ARE rows of the traced base relation:
		// consuming queries over it are single-base in Rel, regardless of what
		// else the source scanned.
		return append(dst, node.Rel)
	case ForwardScatter:
		return append(dst, node.Trace.Rel)
	case Forward:
		if node.Source != nil {
			return Bases(node.Source, dst)
		}
		return dst
	}
	return dst
}

// SingleBase returns the plan's base relation if the plan scans exactly one,
// or nil. Consuming queries (core.Result.ConsumeGroupBy) are defined over
// single-base results.
func SingleBase(n Node) *storage.Relation {
	bases := Bases(n, nil)
	if len(bases) == 1 {
		return bases[0]
	}
	return nil
}

// Format renders the plan as an indented tree (EXPLAIN output; also what the
// optimizer trace diffs to decide whether a rule fired).
func Format(n Node) string {
	var b strings.Builder
	format(&b, n, 0)
	return b.String()
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func format(b *strings.Builder, n Node, depth int) {
	indent(b, depth)
	switch node := n.(type) {
	case Scan:
		fmt.Fprintf(b, "Scan %s", node.Table)
		if node.Filter != nil {
			fmt.Fprintf(b, " filter=%s", node.Filter)
		}
		b.WriteByte('\n')
	case Filter:
		fmt.Fprintf(b, "Filter %s\n", node.Pred)
		format(b, node.Child, depth+1)
	case Project:
		fmt.Fprintf(b, "Project [%s]\n", strings.Join(node.Cols, ", "))
		format(b, node.Child, depth+1)
	case Join:
		fmt.Fprintf(b, "Join %s = %s", node.LeftKey, node.RightKey)
		if node.PKFK {
			b.WriteString(" pkfk")
		}
		if node.Cols != nil {
			fmt.Fprintf(b, " cols=[%s]", strings.Join(node.Cols, ", "))
		}
		b.WriteByte('\n')
		format(b, node.Left, depth+1)
		format(b, node.Right, depth+1)
	case GroupBy:
		fmt.Fprintf(b, "GroupBy keys=[%s] aggs=[%s]",
			strings.Join(node.Keys, ", "), formatAggs(node.Aggs))
		if node.Pushdown != nil {
			fmt.Fprintf(b, " pushdown=[%s]", node.Pushdown)
		}
		b.WriteByte('\n')
		format(b, node.Child, depth+1)
	case Union:
		fmt.Fprintf(b, "Union attrs=[%s]\n", strings.Join(node.Attrs, ", "))
		format(b, node.Left, depth+1)
		format(b, node.Right, depth+1)
	case OrderBy:
		parts := make([]string, len(node.Keys))
		for i, k := range node.Keys {
			parts[i] = k.Col
			if k.Desc {
				parts[i] += " desc"
			}
		}
		fmt.Fprintf(b, "OrderBy %s\n", strings.Join(parts, ", "))
		format(b, node.Child, depth+1)
	case Limit:
		fmt.Fprintf(b, "Limit %d\n", node.N)
		format(b, node.Child, depth+1)
	case SPJA:
		keys := make([]string, len(node.Keys))
		for i, k := range node.Keys {
			keys[i] = fmt.Sprintf("in%d.%s", k.Input, k.Col)
		}
		aggs := make([]string, len(node.Aggs))
		for i, a := range node.Aggs {
			arg := "*"
			if a.Arg != nil {
				arg = a.Arg.String()
			}
			s := fmt.Sprintf("%s(in%d.%s)", a.Fn, a.Input, arg)
			if a.Filter != nil {
				s += fmt.Sprintf(" filter=%s", a.Filter)
			}
			name := a.Name
			if name == "" {
				name = fmt.Sprintf("%s_%d", a.Fn, i)
			}
			aggs[i] = s + " AS " + name
		}
		fmt.Fprintf(b, "SPJA keys=[%s] aggs=[%s]\n", strings.Join(keys, ", "), strings.Join(aggs, ", "))
		for i, in := range node.Inputs {
			indent(b, depth+1)
			b.WriteString(fmt.Sprintf("input %d", i))
			if i > 0 {
				j := node.Joins[i-1]
				fmt.Fprintf(b, " [in%d.%s = %s]", j.LeftInput, j.LeftCol, j.RightCol)
			}
			if node.Filters[i] != nil {
				fmt.Fprintf(b, " filter=%s", node.Filters[i])
			}
			b.WriteString(":\n")
			format(b, in, depth+2)
		}
	case Backward:
		fmt.Fprintf(b, "Backward trace of %s%s", node.Table, traceAttrs(node.SeedRids, node.SeedPred, node.Filter, node.Distinct))
		if node.ScanEquiv != nil {
			b.WriteString(" scan-equiv")
		}
		if node.Bound != nil {
			b.WriteString(" bound")
		}
		b.WriteByte('\n')
		if node.Source != nil {
			format(b, node.Source, depth+1)
		}
	case ForwardScatter:
		fmt.Fprintf(b, "ForwardScatter key=%s aggs=[%s] sibling=%s (forward index of %s)\n",
			node.Key, formatAggs(node.Aggs), node.Sibling.Name, node.Trace.Table)
		format(b, node.Trace, depth+1)
	case Forward:
		fmt.Fprintf(b, "Forward trace of %s%s", node.Table, traceAttrs(node.SeedRids, node.SeedPred, node.Filter, node.Distinct))
		if node.Bound != nil {
			b.WriteString(" bound")
		}
		b.WriteByte('\n')
		if node.Source != nil {
			format(b, node.Source, depth+1)
		}
	default:
		fmt.Fprintf(b, "?%T\n", n)
	}
}

// traceAttrs renders the shared trace-node attributes for EXPLAIN output.
func traceAttrs(rids []lineage.Rid, seedPred, filter expr.Expr, distinct bool) string {
	var b strings.Builder
	switch {
	case rids != nil:
		fmt.Fprintf(&b, " seeds=%d rids", len(rids))
	case seedPred != nil:
		fmt.Fprintf(&b, " seeds=(%s)", seedPred)
	default:
		b.WriteString(" seeds=all")
	}
	if filter != nil {
		fmt.Fprintf(&b, " filter=%s", filter)
	}
	if distinct {
		b.WriteString(" distinct")
	}
	return b.String()
}

func formatAggs(aggs []AggDef) string { return string(appendAggs(nil, aggs)) }

// appendAggs renders an aggregate list: "fn(arg)[ filter=pred] AS name",
// comma-separated.
func appendAggs(b []byte, aggs []AggDef) []byte {
	for i, a := range aggs {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(appendArg(append(append(b, a.Fn.String()...), '('), a.Arg), ')')
		if a.Filter != nil {
			b = expr.Append(append(b, " filter="...), a.Filter)
		}
		b = a.appendOutName(append(b, " AS "...), i)
	}
	return b
}

func containsStr(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
