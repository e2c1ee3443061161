package sql

import (
	"fmt"
	"strconv"
	"strings"

	"smoke/internal/expr"
	"smoke/internal/ops"
	"smoke/internal/serr"
)

// Stmt is a parsed SELECT statement.
type Stmt struct {
	// Explain is set when the statement was prefixed with EXPLAIN: the
	// front end renders the logical plan and the optimizer trace instead of
	// executing the query.
	Explain bool
	Items   []SelectItem
	From    FromItem
	Joins   []Join
	Where   expr.Expr // nil if absent
	GroupBy []ColRef
	Having  expr.Expr  // nil if absent
	OrderBy []OrderKey // nil if absent
	Limit   int        // -1 if absent
}

// IsExplain reports whether the statement renders its plan instead of
// executing. A router that forwards EXPLAIN untouched asks here; everything
// else it needs to know about a statement it reads off the lowered plan.
func (st *Stmt) IsExplain() bool { return st.Explain }

// FromItem is a relation source: a base table, an aggregate subquery with an
// alias, or a lineage trace (LINEAGE BACKWARD/FORWARD).
type FromItem struct {
	Table string     // base table name ("" for subqueries and traces)
	Sub   *Stmt      // aggregate subquery ((SELECT ...) AS alias)
	Alias string     // subquery alias, or optional table alias
	Trace *TraceItem // LINEAGE BACKWARD/FORWARD source
}

// TraceItem is a lineage-consuming source:
//
//	LINEAGE BACKWARD (SELECT ... OF table [WHERE seedpred])
//	LINEAGE FORWARD  (SELECT ... OF table [WHERE seedpred])
//
// Backward produces the rows of table that contributed to the traced query's
// output (the seed predicate selects the traced output rows); Forward
// produces the traced query's output rows that depend on table's rows (the
// seed predicate selects the base rows). No seed predicate traces everything.
type TraceItem struct {
	Backward bool
	Sub      *Stmt     // the traced query
	Table    string    // the base relation traced into (backward) / from (forward)
	Seed     expr.Expr // nil = all seeds
}

// Name returns the source's reference name (alias, or the table name).
func (f FromItem) Name() string {
	if f.Alias != "" {
		return f.Alias
	}
	if f.Trace != nil {
		return f.Trace.Table
	}
	return f.Table
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Col  ColRef
	Desc bool
}

// SelectItem is one projection: either a group-by column or an aggregate.
type SelectItem struct {
	// Col is set for plain column references.
	Col *ColRef
	// Agg is set for aggregate calls.
	Agg *AggItem
}

// ColRef is a possibly table-qualified column.
type ColRef struct {
	Table string // "" if unqualified
	Col   string
}

func (c ColRef) String() string {
	if c.Table == "" {
		return c.Col
	}
	return c.Table + "." + c.Col
}

// AggItem is an aggregate call in the select list.
type AggItem struct {
	Fn       ops.AggFn
	Distinct bool
	Arg      expr.Expr // nil for COUNT(*)
	Alias    string
}

// Join is JOIN <table | (SELECT ...) AS alias> ON <left.col> = <right.col>.
type Join struct {
	Source   FromItem
	LeftRef  ColRef
	RightRef ColRef
}

type parser struct {
	toks  []token
	i     int
	depth int
}

// maxDepth bounds expression-tree recursion. Without it, adversarial input
// like a few thousand opening parens (found by FuzzParse) recurses once per
// paren and can exhaust the goroutine stack; deeper nesting than this has no
// legitimate use in the supported SQL subset.
const maxDepth = 200

func (p *parser) enter() error {
	p.depth++
	if p.depth > maxDepth {
		return p.errf("expression nesting deeper than %d", maxDepth)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

// errf builds a structured Invalid error (serr.E) anchored at the current
// token's byte offset in the statement source, so protocol layers can report
// where a statement went wrong without parsing message strings.
func (p *parser) errf(format string, args ...any) error {
	return serr.At(serr.Invalid, p.peek().pos, "sql: "+format, args...)
}

// ParseExpr parses a standalone predicate in the SQL expression grammar
// (comparisons, AND/OR/NOT, IN lists, arithmetic operands, YEAR/MONTH/SQRT,
// :name parameters). The server's trace endpoints use it for seed and
// consuming predicates sent as strings.
func ParseExpr(src string) (expr.Expr, error) {
	return parseStandalone(src, func(p *parser) (expr.Expr, error) { return p.orExpr() })
}

// ParseScalarExpr parses a standalone scalar expression (a column,
// arithmetic, YEAR/MONTH/SQRT, literals, :name parameters) — the aggregate
// argument grammar, where a bare column is valid and comparisons are not.
func ParseScalarExpr(src string) (expr.Expr, error) {
	return parseStandalone(src, func(p *parser) (expr.Expr, error) { return p.addExpr() })
}

func parseStandalone(src string, parse func(*parser) (expr.Expr, error)) (expr.Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := parse(p)
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected %q after expression", p.peek().text)
	}
	return e, nil
}

// Parse parses one statement: [EXPLAIN] SELECT ... .
func Parse(src string) (*Stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	explain := p.acceptKeyword("EXPLAIN")
	st, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected %q after statement", p.peek().text)
	}
	st.Explain = explain
	return st, nil
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

func (p *parser) acceptKeyword(kw string) bool {
	if p.peek().kind == tokKeyword && p.peek().text == kw {
		p.i++
		return true
	}
	return false
}

func (p *parser) acceptSymbol(s string) bool {
	if p.peek().kind == tokSymbol && p.peek().text == s {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, got %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return p.errf("expected %q, got %q", s, p.peek().text)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if p.peek().kind != tokIdent {
		return "", p.errf("expected identifier, got %q", p.peek().text)
	}
	return p.next().text, nil
}

// peekWord reports whether the token at offset off is an identifier
// matching the contextual word w (case-insensitive). LINEAGE / BACKWARD /
// FORWARD / OF are contextual, not reserved: they only act as keywords
// where the trace grammar expects them.
func (p *parser) peekWord(off int, w string) bool {
	if p.i+off >= len(p.toks) {
		return false
	}
	t := p.toks[p.i+off]
	return t.kind == tokIdent && strings.EqualFold(t.text, w)
}

func (p *parser) acceptWord(w string) bool {
	if p.peekWord(0, w) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectWord(w string) error {
	if !p.acceptWord(w) {
		return p.errf("expected %s, got %q", w, p.peek().text)
	}
	return nil
}

func (p *parser) selectStmt() (*Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	st := &Stmt{Limit: -1}
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.fromItem()
	if err != nil {
		return nil, err
	}
	st.From = from
	for p.acceptKeyword("JOIN") {
		j, err := p.join()
		if err != nil {
			return nil, err
		}
		st.Joins = append(st.Joins, j)
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.colRef()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, c)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		h, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		st.Having = h
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.colRef()
			if err != nil {
				return nil, err
			}
			k := OrderKey{Col: c}
			if p.acceptKeyword("DESC") {
				k.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			st.OrderBy = append(st.OrderBy, k)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.peek()
		if t.kind != tokInt {
			return nil, p.errf("LIMIT expects an integer, got %q", t.text)
		}
		p.next()
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		st.Limit = n
	}
	return st, nil
}

// fromItem parses a relation source: an identifier, an aggregate subquery
// "( SELECT ... ) [AS] alias", or a lineage trace
// "LINEAGE BACKWARD|FORWARD ( SELECT ... OF table [WHERE pred] ) [[AS] alias]".
func (p *parser) fromItem() (FromItem, error) {
	// "LINEAGE BACKWARD(" / "LINEAGE FORWARD(" introduces a trace source;
	// a lone identifier "lineage" stays a table name.
	if p.peekWord(0, "LINEAGE") && (p.peekWord(1, "BACKWARD") || p.peekWord(1, "FORWARD")) {
		p.i++
		return p.traceItem()
	}
	if p.acceptSymbol("(") {
		sub, err := p.selectStmt()
		if err != nil {
			return FromItem{}, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return FromItem{}, err
		}
		p.acceptKeyword("AS")
		alias, err := p.expectIdent()
		if err != nil {
			return FromItem{}, p.errf("subquery needs an alias: %w", err)
		}
		return FromItem{Sub: sub, Alias: alias}, nil
	}
	table, err := p.expectIdent()
	if err != nil {
		return FromItem{}, err
	}
	return FromItem{Table: table}, nil
}

// traceItem parses the body of a LINEAGE source (the LINEAGE keyword is
// already consumed). The traced subquery ends at the OF keyword, which no
// SELECT clause can begin with; the optional WHERE after the table is the
// seed predicate.
func (p *parser) traceItem() (FromItem, error) {
	backward := true
	switch {
	case p.acceptWord("BACKWARD"):
	case p.acceptWord("FORWARD"):
		backward = false
	default:
		return FromItem{}, p.errf("LINEAGE expects BACKWARD or FORWARD, got %q", p.peek().text)
	}
	if err := p.expectSymbol("("); err != nil {
		return FromItem{}, err
	}
	sub, err := p.selectStmt()
	if err != nil {
		return FromItem{}, err
	}
	if err := p.expectWord("OF"); err != nil {
		return FromItem{}, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return FromItem{}, err
	}
	tr := &TraceItem{Backward: backward, Sub: sub, Table: table}
	if p.acceptKeyword("WHERE") {
		seed, err := p.orExpr()
		if err != nil {
			return FromItem{}, err
		}
		tr.Seed = seed
	}
	if err := p.expectSymbol(")"); err != nil {
		return FromItem{}, err
	}
	item := FromItem{Trace: tr}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return FromItem{}, err
		}
		item.Alias = alias
	} else if p.peek().kind == tokIdent {
		item.Alias = p.next().text
	}
	return item, nil
}

func (p *parser) join() (Join, error) {
	src, err := p.fromItem()
	if err != nil {
		return Join{}, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return Join{}, err
	}
	l, err := p.colRef()
	if err != nil {
		return Join{}, err
	}
	if err := p.expectSymbol("="); err != nil {
		return Join{}, err
	}
	r, err := p.colRef()
	if err != nil {
		return Join{}, err
	}
	return Join{Source: src, LeftRef: l, RightRef: r}, nil
}

func (p *parser) colRef() (ColRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return ColRef{}, err
	}
	if p.acceptSymbol(".") {
		col, err := p.expectIdent()
		if err != nil {
			return ColRef{}, err
		}
		return ColRef{Table: name, Col: col}, nil
	}
	return ColRef{Col: name}, nil
}

var aggKeywords = map[string]ops.AggFn{
	"COUNT": ops.Count, "SUM": ops.Sum, "AVG": ops.Avg, "MIN": ops.Min, "MAX": ops.Max,
}

func (p *parser) selectItem() (SelectItem, error) {
	if p.peek().kind == tokKeyword {
		if fn, ok := aggKeywords[p.peek().text]; ok {
			p.next()
			if err := p.expectSymbol("("); err != nil {
				return SelectItem{}, err
			}
			agg := &AggItem{Fn: fn}
			switch {
			case fn == ops.Count && p.acceptSymbol("*"):
				// COUNT(*)
			case fn == ops.Count && p.acceptKeyword("DISTINCT"):
				arg, err := p.addExpr()
				if err != nil {
					return SelectItem{}, err
				}
				agg.Fn = ops.CountDistinct
				agg.Distinct = true
				agg.Arg = arg
			default:
				arg, err := p.addExpr()
				if err != nil {
					return SelectItem{}, err
				}
				agg.Arg = arg
			}
			if err := p.expectSymbol(")"); err != nil {
				return SelectItem{}, err
			}
			if p.acceptKeyword("AS") {
				alias, err := p.expectIdent()
				if err != nil {
					return SelectItem{}, err
				}
				agg.Alias = alias
			}
			return SelectItem{Agg: agg}, nil
		}
	}
	c, err := p.colRef()
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Col: &c}, nil
}

// Expression grammar: or → and → not → cmp → add → mul → unary.

func (p *parser) orExpr() (expr.Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = expr.Or{L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (expr.Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = expr.And{L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (expr.Expr, error) {
	if p.acceptKeyword("NOT") {
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		inner, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return expr.Not{E: inner}, nil
	}
	return p.cmpExpr()
}

var cmpOps = map[string]expr.CmpOp{
	"=": expr.Eq, "<>": expr.Ne, "!=": expr.Ne,
	"<": expr.Lt, "<=": expr.Le, ">": expr.Gt, ">=": expr.Ge,
}

func (p *parser) cmpExpr() (expr.Expr, error) {
	if p.acceptSymbol("(") {
		inner, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		// A parenthesized boolean may continue with AND/OR at the caller.
		return inner, nil
	}
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokSymbol {
		if op, ok := cmpOps[p.peek().text]; ok {
			p.next()
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return expr.Cmp{Op: op, L: l, R: r}, nil
		}
	}
	if p.acceptKeyword("IN") {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var set []string
		for {
			if p.peek().kind != tokString {
				return nil, p.errf("IN list supports string literals, got %q", p.peek().text)
			}
			set = append(set, p.next().text)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return expr.InStr{E: l, Set: set}, nil
	}
	return nil, p.errf("expected comparison near %q", p.peek().text)
}

func (p *parser) addExpr() (expr.Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("+"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = expr.Arith{Op: expr.Add, L: l, R: r}
		case p.acceptSymbol("-"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = expr.Arith{Op: expr.Sub, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) mulExpr() (expr.Expr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("*"):
			r, err := p.unary()
			if err != nil {
				return nil, err
			}
			l = expr.Arith{Op: expr.Mul, L: l, R: r}
		case p.acceptSymbol("/"):
			r, err := p.unary()
			if err != nil {
				return nil, err
			}
			l = expr.Arith{Op: expr.Div, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) unary() (expr.Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokInt:
		p.next()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", t.text)
		}
		return expr.IntLit{V: v}, nil
	case tokFloat:
		p.next()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad float %q", t.text)
		}
		return expr.FloatLit{V: v}, nil
	case tokString:
		p.next()
		return expr.StrLit{V: t.text}, nil
	case tokSymbol:
		switch t.text {
		case "(":
			p.next()
			inner, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return inner, nil
		case ":":
			p.next()
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return expr.Param{Name: name}, nil
		}
	case tokKeyword:
		switch t.text {
		case "YEAR", "MONTH", "SQRT":
			p.next()
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			inner, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			switch t.text {
			case "YEAR":
				return expr.Year{E: inner}, nil
			case "MONTH":
				return expr.Month{E: inner}, nil
			default:
				return expr.Sqrt{E: inner}, nil
			}
		}
	case tokIdent:
		c, err := p.colRef()
		if err != nil {
			return nil, err
		}
		// Qualified references compile against a single relation, so the
		// qualifier only disambiguates; the column name is what resolves.
		_ = c.Table
		return expr.Col{Name: c.Col}, nil
	}
	return nil, p.errf("unexpected token %q", t.text)
}

// String renders the statement (debugging).
func (st *Stmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, it := range st.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		if it.Col != nil {
			b.WriteString(it.Col.String())
		} else {
			fmt.Fprintf(&b, "%s(...)", it.Agg.Fn)
		}
	}
	if st.From.Sub != nil {
		fmt.Fprintf(&b, " FROM (%s) %s", st.From.Sub, st.From.Alias)
	} else {
		fmt.Fprintf(&b, " FROM %s", st.From.Name())
	}
	return b.String()
}
