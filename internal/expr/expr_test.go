package expr

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"smoke/internal/dates"
	"smoke/internal/storage"
)

func fixture() *storage.Relation {
	r := storage.NewEmpty("t", storage.Schema{
		{Name: "id", Type: storage.TInt},
		{Name: "v", Type: storage.TFloat},
		{Name: "name", Type: storage.TString},
		{Name: "d", Type: storage.TInt},
	})
	r.AppendRow(1, 4.0, "alpha", int(dates.FromCivil(1996, 3, 15)))
	r.AppendRow(2, 9.0, "beta", int(dates.FromCivil(1997, 11, 2)))
	r.AppendRow(3, 16.0, "alpha", int(dates.FromCivil(1996, 3, 1)))
	return r
}

func TestTypeOf(t *testing.T) {
	r := fixture()
	cases := []struct {
		e    Expr
		want storage.Type
	}{
		{C("id"), storage.TInt},
		{C("v"), storage.TFloat},
		{C("name"), storage.TString},
		{I(1), storage.TInt},
		{F(1.5), storage.TFloat},
		{S("x"), storage.TString},
		{AddE(C("id"), I(1)), storage.TInt},
		{MulE(C("id"), C("v")), storage.TFloat},
		{Arith{Op: Div, L: C("id"), R: I(2)}, storage.TFloat},
		{Sqrt{E: C("v")}, storage.TFloat},
		{Year{E: C("d")}, storage.TInt},
		{Month{E: C("d")}, storage.TInt},
	}
	for _, c := range cases {
		got, err := TypeOf(c.e, r.Schema, nil)
		if err != nil {
			t.Errorf("TypeOf(%s): %v", c.e, err)
			continue
		}
		if got != c.want {
			t.Errorf("TypeOf(%s) = %s, want %s", c.e, got, c.want)
		}
	}
}

func TestTypeOfErrors(t *testing.T) {
	r := fixture()
	bad := []Expr{
		C("missing"),
		AddE(C("name"), I(1)),
		Year{E: C("v")},
		EqE(C("id"), I(1)), // boolean: must be compiled as predicate
		P("unbound"),
	}
	for _, e := range bad {
		if _, err := TypeOf(e, r.Schema, nil); err == nil {
			t.Errorf("TypeOf(%s) should error", e)
		}
	}
}

func TestCompileIntExpressions(t *testing.T) {
	r := fixture()
	f, err := CompileInt(AddE(MulE(C("id"), I(10)), I(5)), r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := f(1); got != 25 {
		t.Errorf("id*10+5 at rid 1 = %d, want 25", got)
	}
	y, err := CompileInt(Year{E: C("d")}, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if y(0) != 1996 || y(1) != 1997 {
		t.Errorf("year extraction = %d, %d", y(0), y(1))
	}
	m, err := CompileInt(Month{E: C("d")}, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m(1) != 11 {
		t.Errorf("month extraction = %d", m(1))
	}
}

func TestCompileNumExpressions(t *testing.T) {
	r := fixture()
	// sum-style aggregate argument: v * (1 - v/100)
	f, err := CompileNum(MulE(C("v"), SubE(F(1), Arith{Op: Div, L: C("v"), R: F(100)})), r, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 4.0 * (1 - 4.0/100)
	if got := f(0); math.Abs(got-want) > 1e-12 {
		t.Errorf("compiled num = %v, want %v", got, want)
	}
	sq, err := CompileNum(Sqrt{E: C("v")}, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sq(1) != 3.0 {
		t.Errorf("sqrt(9) = %v", sq(1))
	}
	// Integer expression promoted to float.
	p, err := CompileNum(C("id"), r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p(2) != 3.0 {
		t.Errorf("promoted int = %v", p(2))
	}
}

func TestCompileStr(t *testing.T) {
	r := fixture()
	f, err := CompileStr(C("name"), r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f(1) != "beta" {
		t.Errorf("str col = %q", f(1))
	}
	lit, err := CompileStr(S("x"), r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lit(0) != "x" {
		t.Errorf("str lit = %q", lit(0))
	}
	if _, err := CompileStr(C("id"), r, nil); err == nil {
		t.Error("CompileStr over int column should error")
	}
}

func collectMatches(t *testing.T, r *storage.Relation, p Pred) []int32 {
	t.Helper()
	var out []int32
	for rid := int32(0); rid < int32(r.N); rid++ {
		if p(rid) {
			out = append(out, rid)
		}
	}
	return out
}

func TestCompilePredComparisons(t *testing.T) {
	r := fixture()
	cases := []struct {
		e    Expr
		want []int32
	}{
		{EqE(C("id"), I(2)), []int32{1}},
		{Cmp{Op: Ne, L: C("id"), R: I(2)}, []int32{0, 2}},
		{LtE(C("v"), F(10)), []int32{0, 1}},
		{GeE(C("v"), F(9)), []int32{1, 2}},
		{EqE(C("name"), S("alpha")), []int32{0, 2}},
		{Cmp{Op: Le, L: C("name"), R: S("alpha")}, []int32{0, 2}},
		{GtE(C("id"), C("v")), nil}, // mixed int/float comparison
		{LtE(Year{E: C("d")}, I(1997)), []int32{0, 2}},
		{InStr{E: C("name"), Set: []string{"beta", "gamma"}}, []int32{1}},
	}
	for _, c := range cases {
		p, err := CompilePred(c.e, r, nil)
		if err != nil {
			t.Errorf("CompilePred(%s): %v", c.e, err)
			continue
		}
		if got := collectMatches(t, r, p); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s matched %v, want %v", c.e, got, c.want)
		}
	}
}

func TestCompilePredConnectives(t *testing.T) {
	r := fixture()
	e := AndE(EqE(C("name"), S("alpha")), GtE(C("v"), F(5)))
	p, err := CompilePred(e, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := collectMatches(t, r, p); !reflect.DeepEqual(got, []int32{2}) {
		t.Errorf("AND matched %v", got)
	}
	or := Or{L: EqE(C("id"), I(1)), R: EqE(C("id"), I(3))}
	p, err = CompilePred(or, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := collectMatches(t, r, p); !reflect.DeepEqual(got, []int32{0, 2}) {
		t.Errorf("OR matched %v", got)
	}
	not := Not{E: EqE(C("name"), S("alpha"))}
	p, err = CompilePred(not, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := collectMatches(t, r, p); !reflect.DeepEqual(got, []int32{1}) {
		t.Errorf("NOT matched %v", got)
	}
}

func TestCompilePredErrors(t *testing.T) {
	r := fixture()
	bad := []Expr{
		C("id"),                               // not boolean
		EqE(C("name"), I(1)),                  // string vs int
		EqE(C("missing"), I(1)),               // unknown column
		InStr{E: C("id"), Set: []string{"x"}}, // IN over non-string
	}
	for _, e := range bad {
		if _, err := CompilePred(e, r, nil); err == nil {
			t.Errorf("CompilePred(%s) should error", e)
		}
	}
}

func TestParams(t *testing.T) {
	r := fixture()
	p, err := CompilePred(EqE(C("name"), P("p1")), r, Params{"p1": "beta"})
	if err != nil {
		t.Fatal(err)
	}
	if got := collectMatches(t, r, p); !reflect.DeepEqual(got, []int32{1}) {
		t.Errorf("param pred matched %v", got)
	}
	ip, err := CompileInt(P("k"), r, Params{"k": 7})
	if err != nil {
		t.Fatal(err)
	}
	if ip(0) != 7 {
		t.Errorf("int param = %d", ip(0))
	}
	np, err := CompileNum(P("x"), r, Params{"x": 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if np(0) != 2.5 {
		t.Errorf("num param = %v", np(0))
	}
	if _, err := CompilePred(EqE(C("id"), P("missing")), r, nil); err == nil {
		t.Error("unbound parameter should error")
	}
}

func TestColumnsWalk(t *testing.T) {
	e := AndE(
		EqE(C("a"), I(1)),
		Or{L: LtE(Sqrt{E: C("b")}, F(2)), R: InStr{E: C("c"), Set: []string{"x"}}},
		GtE(Year{E: C("d")}, Month{E: C("e")}),
	)
	got := Columns(e)
	sort.Strings(got)
	want := []string{"a", "b", "c", "d", "e"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Columns = %v, want %v", got, want)
	}
}

func TestStringRendering(t *testing.T) {
	e := AndE(EqE(C("a"), I(1)), InStr{E: C("m"), Set: []string{"x", "y"}})
	want := "((a = 1) AND (m IN ('x', 'y')))"
	if got := e.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got := (Not{E: LtE(C("v"), F(1.5))}).String(); got != "(NOT (v < 1.5))" {
		t.Errorf("String = %q", got)
	}
	if got := (Param{Name: "p1"}).String(); got != ":p1" {
		t.Errorf("String = %q", got)
	}
}

// fmtString is the fmt-based rendering Append replaced, kept as the oracle:
// expression text is part of plan fingerprints and EXPLAIN, so it must not
// move by a byte.
func fmtString(e Expr) string {
	switch x := e.(type) {
	case Col:
		return x.Name
	case IntLit:
		return fmt.Sprintf("%d", x.V)
	case FloatLit:
		return fmt.Sprintf("%g", x.V)
	case StrLit:
		return fmt.Sprintf("'%s'", x.V)
	case Param:
		return ":" + x.Name
	case Cmp:
		return fmt.Sprintf("(%s %s %s)", fmtString(x.L), x.Op, fmtString(x.R))
	case And:
		return fmt.Sprintf("(%s AND %s)", fmtString(x.L), fmtString(x.R))
	case Or:
		return fmt.Sprintf("(%s OR %s)", fmtString(x.L), fmtString(x.R))
	case Not:
		return fmt.Sprintf("(NOT %s)", fmtString(x.E))
	case Arith:
		return fmt.Sprintf("(%s %s %s)", fmtString(x.L), x.Op, fmtString(x.R))
	case Sqrt:
		return fmt.Sprintf("sqrt(%s)", fmtString(x.E))
	case Year:
		return fmt.Sprintf("year(%s)", fmtString(x.E))
	case Month:
		return fmt.Sprintf("month(%s)", fmtString(x.E))
	case InStr:
		var b strings.Builder
		fmt.Fprintf(&b, "(%s IN (", fmtString(x.E))
		for i, s := range x.Set {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "'%s'", s)
		}
		b.WriteString("))")
		return b.String()
	}
	panic(fmt.Sprintf("fmtString: unhandled %T", e))
}

func TestStringMatchesFmtOracle(t *testing.T) {
	exprs := []Expr{
		C("a"), I(-42), I(0), F(1.5), F(-0.0), F(1e21), F(1e-7), F(math.Inf(1)), F(math.NaN()),
		S("it's"), P("p1"),
		Cmp{Op: Ne, L: C("a"), R: I(3)},
		AndE(GeE(C("date"), I(10)), LtE(C("date"), I(20)), LtE(C("delay"), P("k"))),
		Or{L: EqE(C("s"), S("x")), R: Not{E: GtE(C("v"), F(2.25))}},
		Arith{Op: Div, L: MulE(C("a"), SubE(C("b"), I(1))), R: AddE(F(0.5), C("c"))},
		Sqrt{E: C("v")}, Year{E: C("d")}, Month{E: C("d")},
		InStr{E: C("m"), Set: []string{"MAIL", "SHIP"}}, InStr{E: C("m")},
	}
	for _, e := range exprs {
		want := fmtString(e)
		if got := e.String(); got != want {
			t.Errorf("%T: String = %q, want %q", e, got, want)
		}
		if got := string(Append([]byte("x"), e)); got != "x"+want {
			t.Errorf("%T: Append = %q, want %q", e, got, "x"+want)
		}
	}
}
