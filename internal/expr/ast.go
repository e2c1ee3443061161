// Package expr provides the engine's expression language: a small AST
// (column references, constants, parameters, comparisons, boolean
// connectives, arithmetic, sqrt, date extraction) compiled into specialized
// closures over a relation's column slices. Compilation happens once per
// (expression, relation) pair; the per-tuple path is a direct closure call
// with no boxing, reflection, or type switching — the Go analogue of the
// paper's compiled produce/consume loops (principle P1).
package expr

import (
	"fmt"
	"strconv"
)

// CmpOp is a comparison operator.
type CmpOp uint8

const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

func (op CmpOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	}
	return "?"
}

// ArithOp is an arithmetic operator.
type ArithOp uint8

const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

func (op ArithOp) String() string {
	switch op {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	}
	return "?"
}

// Expr is an expression tree node.
type Expr interface {
	fmt.Stringer
	isExpr()
}

// Col references a column by name.
type Col struct{ Name string }

// IntLit is an integer literal.
type IntLit struct{ V int64 }

// FloatLit is a float literal.
type FloatLit struct{ V float64 }

// StrLit is a string literal.
type StrLit struct{ V string }

// Param is a named query parameter (the paper's :p1-style parameterized
// predicates). Parameters are bound at compile time via Params, so the
// per-tuple closure sees a constant.
type Param struct{ Name string }

// Cmp compares two expressions.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// And is logical conjunction.
type And struct{ L, R Expr }

// Or is logical disjunction.
type Or struct{ L, R Expr }

// Not is logical negation.
type Not struct{ E Expr }

// InStr tests membership of a string expression in a literal set
// (e.g. l_shipmode IN ('MAIL','SHIP')).
type InStr struct {
	E   Expr
	Set []string
}

// Arith applies an arithmetic operator to two numeric expressions.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Sqrt is the square root of a numeric expression (used by the paper's
// group-by microbenchmark aggregate SUM(sqrt(v))).
type Sqrt struct{ E Expr }

// Year extracts the civil year from a date (int days-since-epoch) expression.
type Year struct{ E Expr }

// Month extracts the civil month from a date expression.
type Month struct{ E Expr }

func (Col) isExpr()      {}
func (IntLit) isExpr()   {}
func (FloatLit) isExpr() {}
func (StrLit) isExpr()   {}
func (Param) isExpr()    {}
func (Cmp) isExpr()      {}
func (And) isExpr()      {}
func (Or) isExpr()       {}
func (Not) isExpr()      {}
func (InStr) isExpr()    {}
func (Arith) isExpr()    {}
func (Sqrt) isExpr()     {}
func (Year) isExpr()     {}
func (Month) isExpr()    {}

func (e Col) String() string      { return e.Name }
func (e IntLit) String() string   { return string(Append(nil, e)) }
func (e FloatLit) String() string { return string(Append(nil, e)) }
func (e StrLit) String() string   { return string(Append(nil, e)) }
func (e Param) String() string    { return ":" + e.Name }
func (e Cmp) String() string      { return string(Append(nil, e)) }
func (e And) String() string      { return string(Append(nil, e)) }
func (e Or) String() string       { return string(Append(nil, e)) }
func (e Not) String() string      { return string(Append(nil, e)) }
func (e Arith) String() string    { return string(Append(nil, e)) }
func (e Sqrt) String() string     { return string(Append(nil, e)) }
func (e Year) String() string     { return string(Append(nil, e)) }
func (e Month) String() string    { return string(Append(nil, e)) }
func (e InStr) String() string    { return string(Append(nil, e)) }

// Append appends e's canonical text — its String form — to dst. It is the
// one renderer behind every String method, and plan fingerprints call it
// directly so that keying a cache renders no intermediate strings.
func Append(dst []byte, e Expr) []byte {
	switch x := e.(type) {
	case Col:
		return append(dst, x.Name...)
	case IntLit:
		return strconv.AppendInt(dst, x.V, 10)
	case FloatLit:
		return strconv.AppendFloat(dst, x.V, 'g', -1, 64)
	case StrLit:
		return append(append(append(dst, '\''), x.V...), '\'')
	case Param:
		return append(append(dst, ':'), x.Name...)
	case Cmp:
		return appendBinary(dst, x.L, x.Op.String(), x.R)
	case And:
		return appendBinary(dst, x.L, "AND", x.R)
	case Or:
		return appendBinary(dst, x.L, "OR", x.R)
	case Arith:
		return appendBinary(dst, x.L, x.Op.String(), x.R)
	case Not:
		return append(Append(append(dst, "(NOT "...), x.E), ')')
	case Sqrt:
		return append(Append(append(dst, "sqrt("...), x.E), ')')
	case Year:
		return append(Append(append(dst, "year("...), x.E), ')')
	case Month:
		return append(Append(append(dst, "month("...), x.E), ')')
	case InStr:
		dst = append(Append(append(dst, '('), x.E), " IN ("...)
		for i, s := range x.Set {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = append(append(append(dst, '\''), s...), '\'')
		}
		return append(dst, "))"...)
	}
	return append(dst, e.String()...)
}

// appendBinary renders "(l op r)".
func appendBinary(dst []byte, l Expr, op string, r Expr) []byte {
	dst = Append(append(dst, '('), l)
	dst = append(append(append(dst, ' '), op...), ' ')
	return append(Append(dst, r), ')')
}

// Convenience constructors keep query definitions in benches and tests
// readable.

// C references a column.
func C(name string) Col { return Col{Name: name} }

// I is an integer literal.
func I(v int64) IntLit { return IntLit{V: v} }

// F is a float literal.
func F(v float64) FloatLit { return FloatLit{V: v} }

// S is a string literal.
func S(v string) StrLit { return StrLit{V: v} }

// P is a named parameter.
func P(name string) Param { return Param{Name: name} }

// EqE builds an equality comparison.
func EqE(l, r Expr) Cmp { return Cmp{Op: Eq, L: l, R: r} }

// LtE builds a less-than comparison.
func LtE(l, r Expr) Cmp { return Cmp{Op: Lt, L: l, R: r} }

// GtE builds a greater-than comparison.
func GtE(l, r Expr) Cmp { return Cmp{Op: Gt, L: l, R: r} }

// LeE builds a less-or-equal comparison.
func LeE(l, r Expr) Cmp { return Cmp{Op: Le, L: l, R: r} }

// GeE builds a greater-or-equal comparison.
func GeE(l, r Expr) Cmp { return Cmp{Op: Ge, L: l, R: r} }

// AndE builds a conjunction of one or more expressions.
func AndE(es ...Expr) Expr {
	if len(es) == 0 {
		panic("expr: AndE needs at least one operand")
	}
	out := es[0]
	for _, e := range es[1:] {
		out = And{L: out, R: e}
	}
	return out
}

// MulE builds a multiplication.
func MulE(l, r Expr) Arith { return Arith{Op: Mul, L: l, R: r} }

// SubE builds a subtraction.
func SubE(l, r Expr) Arith { return Arith{Op: Sub, L: l, R: r} }

// AddE builds an addition.
func AddE(l, r Expr) Arith { return Arith{Op: Add, L: l, R: r} }
