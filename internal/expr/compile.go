package expr

import (
	"fmt"
	"math"

	"smoke/internal/dates"
	"smoke/internal/storage"
)

// Params binds parameter names to values (int64, float64, or string) at
// compile time.
type Params map[string]any

// Pred is a compiled predicate over one relation.
type Pred func(rid int32) bool

// NumFn is a compiled numeric (float64) expression over one relation.
type NumFn func(rid int32) float64

// IntFn is a compiled integer expression over one relation.
type IntFn func(rid int32) int64

// StrFn is a compiled string expression over one relation.
type StrFn func(rid int32) string

// TypeOf infers the storage type an expression evaluates to against the given
// schema. Boolean-valued expressions report an error (they compile via
// CompilePred instead).
func TypeOf(e Expr, schema storage.Schema, params Params) (storage.Type, error) {
	switch n := e.(type) {
	case Col:
		c := schema.Col(n.Name)
		if c < 0 {
			return 0, fmt.Errorf("expr: unknown column %q", n.Name)
		}
		return schema[c].Type, nil
	case IntLit:
		return storage.TInt, nil
	case FloatLit:
		return storage.TFloat, nil
	case StrLit:
		return storage.TString, nil
	case Param:
		v, ok := params[n.Name]
		if !ok {
			return 0, fmt.Errorf("expr: unbound parameter :%s", n.Name)
		}
		switch v.(type) {
		case int64, int:
			return storage.TInt, nil
		case float64:
			return storage.TFloat, nil
		case string:
			return storage.TString, nil
		default:
			return 0, fmt.Errorf("expr: parameter :%s has unsupported type %T", n.Name, v)
		}
	case Arith:
		lt, err := TypeOf(n.L, schema, params)
		if err != nil {
			return 0, err
		}
		rt, err := TypeOf(n.R, schema, params)
		if err != nil {
			return 0, err
		}
		if lt == storage.TString || rt == storage.TString {
			return 0, fmt.Errorf("expr: arithmetic over strings in %s", e)
		}
		if lt == storage.TFloat || rt == storage.TFloat || n.Op == Div {
			return storage.TFloat, nil
		}
		return storage.TInt, nil
	case Sqrt:
		if _, err := TypeOf(n.E, schema, params); err != nil {
			return 0, err
		}
		return storage.TFloat, nil
	case Year, Month:
		var inner Expr
		if y, ok := n.(Year); ok {
			inner = y.E
		} else {
			inner = n.(Month).E
		}
		t, err := TypeOf(inner, schema, params)
		if err != nil {
			return 0, err
		}
		if t != storage.TInt {
			return 0, fmt.Errorf("expr: date extraction over non-date expression %s", e)
		}
		return storage.TInt, nil
	case Cmp, And, Or, Not, InStr:
		return 0, fmt.Errorf("expr: %s is boolean-valued; compile it as a predicate", e)
	}
	return 0, fmt.Errorf("expr: unsupported node %T", e)
}

// Columns returns the column names referenced by an expression.
func Columns(e Expr) []string {
	var out []string
	Walk(e, func(x Expr) {
		if c, ok := x.(Col); ok {
			out = append(out, c.Name)
		}
	})
	return out
}

// Walk calls fn on e and then on every expression under it, depth first.
func Walk(e Expr, fn func(Expr)) {
	fn(e)
	switch n := e.(type) {
	case Cmp:
		Walk(n.L, fn)
		Walk(n.R, fn)
	case And:
		Walk(n.L, fn)
		Walk(n.R, fn)
	case Or:
		Walk(n.L, fn)
		Walk(n.R, fn)
	case Arith:
		Walk(n.L, fn)
		Walk(n.R, fn)
	case Not:
		Walk(n.E, fn)
	case InStr:
		Walk(n.E, fn)
	case Sqrt:
		Walk(n.E, fn)
	case Year:
		Walk(n.E, fn)
	case Month:
		Walk(n.E, fn)
	}
}

func paramValue(p Param, params Params) (any, error) {
	v, ok := params[p.Name]
	if !ok {
		return nil, fmt.Errorf("expr: unbound parameter :%s", p.Name)
	}
	if i, ok := v.(int); ok {
		return int64(i), nil
	}
	return v, nil
}

// CompileInt compiles an integer-typed expression against a relation.
func CompileInt(e Expr, rel *storage.Relation, params Params) (IntFn, error) {
	t, err := TypeOf(e, rel.Schema, params)
	if err != nil {
		return nil, err
	}
	if t != storage.TInt {
		return nil, fmt.Errorf("expr: %s has type %s, want INT", e, t)
	}
	switch n := e.(type) {
	case Col:
		col := rel.Cols[rel.Schema.MustCol(n.Name)].Ints
		return func(rid int32) int64 { return col[rid] }, nil
	case IntLit:
		v := n.V
		return func(int32) int64 { return v }, nil
	case Param:
		pv, err := paramValue(n, params)
		if err != nil {
			return nil, err
		}
		v := pv.(int64)
		return func(int32) int64 { return v }, nil
	case Arith:
		l, err := CompileInt(n.L, rel, params)
		if err != nil {
			return nil, err
		}
		r, err := CompileInt(n.R, rel, params)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case Add:
			return func(rid int32) int64 { return l(rid) + r(rid) }, nil
		case Sub:
			return func(rid int32) int64 { return l(rid) - r(rid) }, nil
		case Mul:
			return func(rid int32) int64 { return l(rid) * r(rid) }, nil
		}
		return nil, fmt.Errorf("expr: integer division in %s should compile as NumFn", e)
	case Year:
		inner, err := CompileInt(n.E, rel, params)
		if err != nil {
			return nil, err
		}
		return func(rid int32) int64 { return dates.Year(inner(rid)) }, nil
	case Month:
		inner, err := CompileInt(n.E, rel, params)
		if err != nil {
			return nil, err
		}
		return func(rid int32) int64 { return dates.Month(inner(rid)) }, nil
	}
	return nil, fmt.Errorf("expr: cannot compile %s as INT", e)
}

// CompileNum compiles a numeric expression to float64, promoting integer
// sub-expressions.
func CompileNum(e Expr, rel *storage.Relation, params Params) (NumFn, error) {
	t, err := TypeOf(e, rel.Schema, params)
	if err != nil {
		return nil, err
	}
	switch t {
	case storage.TString:
		return nil, fmt.Errorf("expr: %s is a string expression", e)
	case storage.TInt:
		f, err := CompileInt(e, rel, params)
		if err != nil {
			return nil, err
		}
		return func(rid int32) float64 { return float64(f(rid)) }, nil
	}
	switch n := e.(type) {
	case Col:
		col := rel.Cols[rel.Schema.MustCol(n.Name)].Floats
		return func(rid int32) float64 { return col[rid] }, nil
	case FloatLit:
		v := n.V
		return func(int32) float64 { return v }, nil
	case Param:
		pv, err := paramValue(n, params)
		if err != nil {
			return nil, err
		}
		v := pv.(float64)
		return func(int32) float64 { return v }, nil
	case Arith:
		l, err := CompileNum(n.L, rel, params)
		if err != nil {
			return nil, err
		}
		r, err := CompileNum(n.R, rel, params)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case Add:
			return func(rid int32) float64 { return l(rid) + r(rid) }, nil
		case Sub:
			return func(rid int32) float64 { return l(rid) - r(rid) }, nil
		case Mul:
			return func(rid int32) float64 { return l(rid) * r(rid) }, nil
		case Div:
			return func(rid int32) float64 { return l(rid) / r(rid) }, nil
		}
	case Sqrt:
		inner, err := CompileNum(n.E, rel, params)
		if err != nil {
			return nil, err
		}
		return func(rid int32) float64 { return math.Sqrt(inner(rid)) }, nil
	}
	return nil, fmt.Errorf("expr: cannot compile %s as FLOAT", e)
}

// CompileStr compiles a string-typed expression against a relation.
func CompileStr(e Expr, rel *storage.Relation, params Params) (StrFn, error) {
	t, err := TypeOf(e, rel.Schema, params)
	if err != nil {
		return nil, err
	}
	if t != storage.TString {
		return nil, fmt.Errorf("expr: %s has type %s, want STRING", e, t)
	}
	switch n := e.(type) {
	case Col:
		col := rel.Cols[rel.Schema.MustCol(n.Name)].Strs
		return func(rid int32) string { return col[rid] }, nil
	case StrLit:
		v := n.V
		return func(int32) string { return v }, nil
	case Param:
		pv, err := paramValue(n, params)
		if err != nil {
			return nil, err
		}
		v, ok := pv.(string)
		if !ok {
			return nil, fmt.Errorf("expr: parameter :%s bound to %T, want string", n.Name, pv)
		}
		return func(int32) string { return v }, nil
	}
	return nil, fmt.Errorf("expr: cannot compile %s as STRING", e)
}

// CompilePred compiles a boolean expression against a relation. The returned
// closure is the operator inner-loop predicate.
func CompilePred(e Expr, rel *storage.Relation, params Params) (Pred, error) {
	switch n := e.(type) {
	case Cmp:
		return compileCmp(n, rel, params)
	case And:
		l, err := CompilePred(n.L, rel, params)
		if err != nil {
			return nil, err
		}
		r, err := CompilePred(n.R, rel, params)
		if err != nil {
			return nil, err
		}
		return func(rid int32) bool { return l(rid) && r(rid) }, nil
	case Or:
		l, err := CompilePred(n.L, rel, params)
		if err != nil {
			return nil, err
		}
		r, err := CompilePred(n.R, rel, params)
		if err != nil {
			return nil, err
		}
		return func(rid int32) bool { return l(rid) || r(rid) }, nil
	case Not:
		inner, err := CompilePred(n.E, rel, params)
		if err != nil {
			return nil, err
		}
		return func(rid int32) bool { return !inner(rid) }, nil
	case InStr:
		f, err := CompileStr(n.E, rel, params)
		if err != nil {
			return nil, err
		}
		set := make(map[string]struct{}, len(n.Set))
		for _, s := range n.Set {
			set[s] = struct{}{}
		}
		return func(rid int32) bool { _, ok := set[f(rid)]; return ok }, nil
	}
	return nil, fmt.Errorf("expr: %s is not a predicate", e)
}

// constOf resolves literals and bound parameters to a constant value.
func constOf(e Expr, params Params) (any, bool) {
	switch n := e.(type) {
	case IntLit:
		return n.V, true
	case FloatLit:
		return n.V, true
	case StrLit:
		return n.V, true
	case Param:
		v, err := paramValue(n, params)
		if err != nil {
			return nil, false
		}
		return v, true
	}
	return nil, false
}

// compileColConstCmp fuses the ubiquitous "column <op> constant" comparison
// into a single closure over the column slice — the compiled-predicate shape
// the paper's engine emits. Returns nil when the pattern doesn't apply.
func compileColConstCmp(n Cmp, rel *storage.Relation, params Params) Pred {
	col, ok := n.L.(Col)
	if !ok {
		return nil
	}
	cv, ok := constOf(n.R, params)
	if !ok {
		return nil
	}
	c := rel.Schema.Col(col.Name)
	if c < 0 {
		return nil
	}
	switch rel.Schema[c].Type {
	case storage.TInt:
		k, ok := cv.(int64)
		if !ok {
			return nil
		}
		data := rel.Cols[c].Ints
		switch n.Op {
		case Eq:
			return func(rid int32) bool { return data[rid] == k }
		case Ne:
			return func(rid int32) bool { return data[rid] != k }
		case Lt:
			return func(rid int32) bool { return data[rid] < k }
		case Le:
			return func(rid int32) bool { return data[rid] <= k }
		case Gt:
			return func(rid int32) bool { return data[rid] > k }
		case Ge:
			return func(rid int32) bool { return data[rid] >= k }
		}
	case storage.TFloat:
		var k float64
		switch v := cv.(type) {
		case float64:
			k = v
		case int64:
			k = float64(v)
		default:
			return nil
		}
		data := rel.Cols[c].Floats
		switch n.Op {
		case Eq:
			return func(rid int32) bool { return data[rid] == k }
		case Ne:
			return func(rid int32) bool { return data[rid] != k }
		case Lt:
			return func(rid int32) bool { return data[rid] < k }
		case Le:
			return func(rid int32) bool { return data[rid] <= k }
		case Gt:
			return func(rid int32) bool { return data[rid] > k }
		case Ge:
			return func(rid int32) bool { return data[rid] >= k }
		}
	case storage.TString:
		k, ok := cv.(string)
		if !ok {
			return nil
		}
		data := rel.Cols[c].Strs
		switch n.Op {
		case Eq:
			return func(rid int32) bool { return data[rid] == k }
		case Ne:
			return func(rid int32) bool { return data[rid] != k }
		case Lt:
			return func(rid int32) bool { return data[rid] < k }
		case Le:
			return func(rid int32) bool { return data[rid] <= k }
		case Gt:
			return func(rid int32) bool { return data[rid] > k }
		case Ge:
			return func(rid int32) bool { return data[rid] >= k }
		}
	}
	return nil
}

func compileCmp(n Cmp, rel *storage.Relation, params Params) (Pred, error) {
	if p := compileColConstCmp(n, rel, params); p != nil {
		return p, nil
	}
	lt, err := TypeOf(n.L, rel.Schema, params)
	if err != nil {
		return nil, err
	}
	rt, err := TypeOf(n.R, rel.Schema, params)
	if err != nil {
		return nil, err
	}
	switch {
	case lt == storage.TString && rt == storage.TString:
		l, err := CompileStr(n.L, rel, params)
		if err != nil {
			return nil, err
		}
		r, err := CompileStr(n.R, rel, params)
		if err != nil {
			return nil, err
		}
		return strCmp(n.Op, l, r), nil
	case lt == storage.TString || rt == storage.TString:
		return nil, fmt.Errorf("expr: comparing string with non-string in %s", n)
	case lt == storage.TInt && rt == storage.TInt:
		l, err := CompileInt(n.L, rel, params)
		if err != nil {
			return nil, err
		}
		r, err := CompileInt(n.R, rel, params)
		if err != nil {
			return nil, err
		}
		return intCmp(n.Op, l, r), nil
	default:
		l, err := CompileNum(n.L, rel, params)
		if err != nil {
			return nil, err
		}
		r, err := CompileNum(n.R, rel, params)
		if err != nil {
			return nil, err
		}
		return numCmp(n.Op, l, r), nil
	}
}

func intCmp(op CmpOp, l, r IntFn) Pred {
	switch op {
	case Eq:
		return func(rid int32) bool { return l(rid) == r(rid) }
	case Ne:
		return func(rid int32) bool { return l(rid) != r(rid) }
	case Lt:
		return func(rid int32) bool { return l(rid) < r(rid) }
	case Le:
		return func(rid int32) bool { return l(rid) <= r(rid) }
	case Gt:
		return func(rid int32) bool { return l(rid) > r(rid) }
	default:
		return func(rid int32) bool { return l(rid) >= r(rid) }
	}
}

func numCmp(op CmpOp, l, r NumFn) Pred {
	switch op {
	case Eq:
		return func(rid int32) bool { return l(rid) == r(rid) }
	case Ne:
		return func(rid int32) bool { return l(rid) != r(rid) }
	case Lt:
		return func(rid int32) bool { return l(rid) < r(rid) }
	case Le:
		return func(rid int32) bool { return l(rid) <= r(rid) }
	case Gt:
		return func(rid int32) bool { return l(rid) > r(rid) }
	default:
		return func(rid int32) bool { return l(rid) >= r(rid) }
	}
}

func strCmp(op CmpOp, l, r StrFn) Pred {
	switch op {
	case Eq:
		return func(rid int32) bool { return l(rid) == r(rid) }
	case Ne:
		return func(rid int32) bool { return l(rid) != r(rid) }
	case Lt:
		return func(rid int32) bool { return l(rid) < r(rid) }
	case Le:
		return func(rid int32) bool { return l(rid) <= r(rid) }
	case Gt:
		return func(rid int32) bool { return l(rid) > r(rid) }
	default:
		return func(rid int32) bool { return l(rid) >= r(rid) }
	}
}
