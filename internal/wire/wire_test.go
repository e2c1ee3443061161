package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"smoke/internal/expr"
	"smoke/internal/serr"
	"smoke/internal/storage"
)

// goldenBodies is the encoded form of every body: these bytes are the
// contract clients and shards were built against.
var goldenBodies = []struct {
	name string
	v    any
	want string
}{
	{"result", Result{
		Columns: []string{"k", "v"}, Types: []string{"int", "float"},
		Rows: [][]any{{int64(1), 2.5}}, N: 1,
	}, `{"columns":["k","v"],"types":["int","float"],"rows":[[1,2.5]],"row_count":1}`},
	{"result, every annotation", Result{
		Columns: []string{"k"}, Types: []string{"string"}, Rows: [][]any{}, N: 0,
		GroupCounts: []int64{3}, Cached: true, Explain: "plan", Retained: "r", StrategyUsed: "lazy",
	}, `{"columns":["k"],"types":["string"],"rows":[],"row_count":0,"group_counts":[3],"cached":true,"explain":"plan","retained":"r","strategy_used":"lazy"}`},
	{"trace, nil rids = everything", TraceRequest{Direction: "backward", Table: "t"},
		`{"direction":"backward","table":"t","rids":null}`},
	{"trace, empty rids = nothing", TraceRequest{Direction: "backward", Table: "t", Rids: []int64{}},
		`{"direction":"backward","table":"t","rids":[]}`},
	{"trace, every field", TraceRequest{
		Direction: "forward", Table: "t", Rids: []int64{4, 2}, SeedWhere: "a = 1", Where: "b < 2",
		GroupBy: []string{"g"}, Aggs: []Agg{{Fn: "count"}, {Fn: "sum", Arg: "v", Name: "sv"}},
		Capture: "inject", Compress: true, Params: map[string]any{"p": 1}, Retain: "drill", Strategy: "eager",
	}, `{"direction":"forward","table":"t","rids":[4,2],"seed_where":"a = 1","where":"b \u003c 2","group_by":["g"],` +
		`"aggs":[{"fn":"count"},{"fn":"sum","arg":"v","name":"sv"}],"capture":"inject","compress":true,` +
		`"params":{"p":1},"retain":"drill","strategy":"eager"}`},
	{"query, sql only", QueryRequest{SQL: "SELECT 1"}, `{"sql":"SELECT 1"}`},
	{"query, every field", QueryRequest{
		SQL: "SELECT 1", Capture: "defer", Compress: true, Params: map[string]any{"x": "y"}, Strategy: "auto",
	}, `{"sql":"SELECT 1","capture":"defer","compress":true,"params":{"x":"y"},"strategy":"auto"}`},
	{"table", Table{Schema: []Field{{Name: "a", Type: "int"}}, Rows: [][]any{{1}}, PK: "a"},
		`{"schema":[{"name":"a","type":"int"}],"rows":[[1]],"pk":"a"}`},
}

// TestGoldenBytes pins goldenBodies.
func TestGoldenBytes(t *testing.T) {
	for _, c := range goldenBodies {
		got, err := json.Marshal(c.v)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if string(got) != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}

// TestErrorBodies pins the error reply (with and without a SQL position) and
// checks that every kind maps to its own status and survives the trip back
// through ParseError.
func TestErrorBodies(t *testing.T) {
	golden := []struct {
		err    error
		status int
		body   string
	}{
		{serr.New(serr.NotFound, "no table %q", "t"), 404,
			`{"error":{"kind":"not_found","message":"no table \"t\""}}` + "\n"},
		{serr.At(serr.Invalid, 7, "bad token"), 400,
			`{"error":{"kind":"invalid","message":"bad token (at offset 7)","pos":7}}` + "\n"},
		{errors.New("plain"), 500, `{"error":{"kind":"internal","message":"plain"}}` + "\n"},
	}
	for _, g := range golden {
		rec := httptest.NewRecorder()
		WriteError(rec, g.err)
		if rec.Code != g.status || rec.Body.String() != g.body {
			t.Errorf("WriteError(%v) = %d %q, want %d %q", g.err, rec.Code, rec.Body.String(), g.status, g.body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type = %q", ct)
		}
	}

	kinds := []serr.Kind{serr.Internal, serr.Invalid, serr.NotFound, serr.Unsupported, serr.Gone, serr.Busy, serr.Unavailable}
	seen := map[int]serr.Kind{}
	for _, k := range kinds {
		rec := httptest.NewRecorder()
		WriteError(rec, serr.New(k, "boom"))
		if prev, dup := seen[rec.Code]; dup {
			t.Errorf("kinds %v and %v share status %d", prev, k, rec.Code)
		}
		seen[rec.Code] = k
		back, ok := ParseError(rec.Body.Bytes())
		if !ok || back.Kind != k || back.Msg != "boom" || back.Pos != -1 || StatusOf(back) != rec.Code {
			t.Errorf("kind %v: status %d parsed back as %+v (ok=%v)", k, rec.Code, back, ok)
		}
	}
	if back, ok := ParseError([]byte(`{"error":{"kind":"invalid","message":"m","pos":3}}`)); !ok || back.Pos != 3 || back.Msg != "m" {
		t.Errorf("positioned body parsed as %+v (ok=%v)", back, ok)
	}
	for _, junk := range []string{"", "404 page not found", `{"rows":[]}`} {
		if _, ok := ParseError([]byte(junk)); ok {
			t.Errorf("ParseError(%q) accepted a non-error body", junk)
		}
	}
}

// TestWriteJSONNonFinite: a body JSON cannot carry — a result row holding
// NaN or ±Inf — is answered as a structured 422 naming the rule, never as
// the intended status with an empty body; a finite body is sent as before.
func TestWriteJSONNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rec := httptest.NewRecorder()
		rel := storage.NewRelation("r", storage.Schema{{Name: "x", Type: storage.TFloat}}, 0)
		rel.AppendRow(v)
		WriteJSON(rec, 200, Rows(rel))
		back, ok := ParseError(rec.Body.Bytes())
		if rec.Code != 422 || !ok || back.Kind != serr.Unsupported || !strings.Contains(back.Msg, "NaN") {
			t.Fatalf("%v: answered %d %q, want a structured 422", v, rec.Code, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%v: Content-Type = %q", v, ct)
		}
	}
	rec := httptest.NewRecorder()
	rel := storage.NewRelation("r", storage.Schema{{Name: "x", Type: storage.TFloat}}, 0)
	rel.AppendRow(1.5)
	WriteJSON(rec, 201, Rows(rel))
	if want := `{"columns":["x"],"types":["float"],"rows":[[1.5]],"row_count":1}` + "\n"; rec.Code != 201 || rec.Body.String() != want {
		t.Fatalf("finite body answered %d %q, want 201 %q", rec.Code, rec.Body.String(), want)
	}
}

// taker is a ResponseRecorder that also takes typed results.
type taker struct {
	*httptest.ResponseRecorder
	status int
	taken  *Result
}

func (t *taker) TakeResult(status int, r *Result) { t.status, t.taken = status, r }

// TestWriteJSONHandsBackTypedResults: a writer that takes results receives
// a typed result — by value or by pointer, its rows the very relation, NaN
// included, nothing encoded — while boxed rows, error bodies and every
// other value still encode, as they do to a plain writer.
func TestWriteJSONHandsBackTypedResults(t *testing.T) {
	rel := storage.NewRelation("r", storage.Schema{{Name: "x", Type: storage.TFloat}}, 0)
	rel.AppendRow(math.NaN())
	typed := Rows(rel)
	typed.GroupCounts = []int64{3}
	for _, v := range []any{typed, &typed} {
		w := &taker{ResponseRecorder: httptest.NewRecorder()}
		WriteJSON(w, 201, v)
		if w.taken == nil || w.status != 201 || w.taken.Rel() != rel || w.taken.GroupCounts[0] != 3 || w.Body.Len() != 0 {
			t.Fatalf("%T: took %+v with status %d, wrote %q", v, w.taken, w.status, w.Body.String())
		}
	}
	boxed := Result{Columns: []string{"x"}, Types: []string{"int"}, Rows: [][]any{{int64(1)}}, N: 1}
	var eb ErrorBody
	eb.Error.Kind, eb.Error.Message = "gone", "session expired"
	for _, v := range []any{boxed, &boxed, eb, map[string]any{"ok": true}, Result{Explain: "plan"}} {
		plain, w := httptest.NewRecorder(), &taker{ResponseRecorder: httptest.NewRecorder()}
		WriteJSON(plain, 200, v)
		WriteJSON(w, 200, v)
		if w.taken != nil || w.Code != plain.Code || w.Body.String() != plain.Body.String() {
			t.Fatalf("%T: took %v, answered %d %q; a plain writer got %d %q",
				v, w.taken, w.Code, w.Body.String(), plain.Code, plain.Body.String())
		}
	}
}

// TestDecodeNormalizeExact: an int64 beyond float64's 2^53 integer range
// survives decode and normalization bit-exact.
func TestDecodeNormalizeExact(t *testing.T) {
	const big = int64(1)<<53 + 1
	body := `{"columns":["i","f","s"],"types":["int","float","string"],"rows":[[9007199254740993,0.25,"x"]],"row_count":1}`
	var r Result
	if err := Decode(strings.NewReader(body), &r); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Rows[0][0].(json.Number); !ok {
		t.Fatalf("decoded int is %T, want json.Number", r.Rows[0][0])
	}
	r.Normalize()
	if want := []any{big, 0.25, "x"}; !reflect.DeepEqual(r.Rows[0], want) {
		t.Fatalf("normalized row = %#v, want %#v", r.Rows[0], want)
	}
	if err := DecodeRequest(strings.NewReader("{"), &r); serr.KindOf(err) != serr.Invalid {
		t.Fatalf("truncated request body = %v, want Invalid", err)
	}
}

func TestParams(t *testing.T) {
	var in map[string]any
	if err := Decode(strings.NewReader(`{"i":3,"f":3.5,"e":1e3,"s":"x","b":true}`), &in); err != nil {
		t.Fatal(err)
	}
	got, err := Params(in)
	if err != nil {
		t.Fatal(err)
	}
	want := expr.Params{"i": int64(3), "f": 3.5, "e": 1000.0, "s": "x", "b": true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Params = %#v, want %#v", got, want)
	}
	if p, err := Params(nil); p != nil || err != nil {
		t.Fatalf("Params(nil) = %v, %v", p, err)
	}
	if _, err := Params(map[string]any{"o": map[string]any{"nested": 1}}); serr.KindOf(err) != serr.Invalid {
		t.Fatalf("nested object parameter = %v, want Invalid", err)
	}
}

// TestRelationRoundTrip: relation → rows → relation is the identity, through
// JSON and through the row filter.
func TestRelationRoundTrip(t *testing.T) {
	rel := storage.NewRelation("t", storage.Schema{
		{Name: "i", Type: storage.TInt}, {Name: "f", Type: storage.TFloat}, {Name: "s", Type: storage.TString},
	}, 0)
	rel.AppendRow(int64(1)<<53+1, 0.5, "a")
	rel.AppendRow(int64(-2), 1.25, "b")
	rel.AppendRow(int64(3), -7.0, "")

	all := Rows(rel)
	if all.N != 3 || !reflect.DeepEqual(all.Columns, []string{"i", "f", "s"}) || !reflect.DeepEqual(all.Types, []string{"int", "float", "string"}) {
		t.Fatalf("Rows = %+v", all)
	}
	// Over the wire and back.
	data, err := AppendResult(nil, &all)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeTyped(data)
	if err != nil {
		t.Fatal(err)
	}
	back := decoded.Rel()
	if !reflect.DeepEqual(back.Schema, rel.Schema) || back.N != rel.N {
		t.Fatalf("round-trip schema/rows = %v/%d, want %v/%d", back.Schema, back.N, rel.Schema, rel.N)
	}
	for r := 0; r < rel.N; r++ {
		if !reflect.DeepEqual(back.Row(r), rel.Row(r)) {
			t.Fatalf("row %d = %v, want %v", r, back.Row(r), rel.Row(r))
		}
	}
	none := Rows(storage.NewRelation("t", rel.Schema, 0))
	if data, err := AppendResult(nil, &none); err != nil || !strings.Contains(string(data), `"rows":[],"row_count":0`) {
		t.Fatalf("zero rows encode as %s (%v), want rows []", data, err)
	}

	// The ingest direction rejects what it cannot place.
	for _, bad := range []Table{
		{},
		{Schema: []Field{{Name: "", Type: "int"}}},
		{Schema: []Field{{Name: "a", Type: "decimal"}}},
		{Schema: []Field{{Name: "a", Type: "int"}}, Rows: [][]any{{1, 2}}},
		{Schema: []Field{{Name: "a", Type: "int"}}, Rows: [][]any{{"x"}}},
		{Schema: []Field{{Name: "a", Type: "string"}}, Rows: [][]any{{json.Number("1")}}},
	} {
		if _, err := bad.Relation("t"); serr.KindOf(err) != serr.Invalid {
			t.Errorf("Table %+v = %v, want Invalid", bad, err)
		}
	}
	if _, err := DecodeTyped([]byte(`{"columns":["a"],"types":["int"],"rows":[["x"]]}`)); serr.KindOf(err) != serr.Internal {
		t.Errorf("malformed result = %v, want Internal", err)
	}
}

func TestTraceValidate(t *testing.T) {
	cases := []struct {
		req      TraceRequest
		backward bool
		bad      bool
	}{
		{TraceRequest{Direction: "backward", Table: "t"}, true, false},
		{TraceRequest{Direction: "FORWARD", Table: "t", Rids: []int64{}}, false, false},
		{TraceRequest{Direction: "backward", Table: "t", SeedWhere: "a = 1"}, true, false},
		{TraceRequest{Direction: "backward"}, false, true},
		{TraceRequest{Direction: "sideways", Table: "t"}, false, true},
		{TraceRequest{Direction: "backward", Table: "t", Rids: []int64{}, SeedWhere: "a = 1"}, false, true},
	}
	for _, c := range cases {
		backward, err := c.req.Validate()
		if (err != nil) != c.bad || backward != c.backward || (c.bad && serr.KindOf(err) != serr.Invalid) {
			t.Errorf("Validate(%+v) = %v, %v", c.req, backward, err)
		}
	}
}

// FuzzDecodeRequest: whatever bytes arrive as a query or trace body,
// DecodeRequest, TraceRequest.Validate and Params answer a value or a
// structured Invalid error (HTTP 400) — never a panic, never a plain error
// (500). Seeds: the golden request bodies, each truncated, plus deep nesting
// and numbers past int64 and float64.
func FuzzDecodeRequest(f *testing.F) {
	for _, g := range goldenBodies {
		switch g.v.(type) {
		case QueryRequest, TraceRequest:
			f.Add([]byte(g.want))
			f.Add([]byte(g.want[:len(g.want)/2]))
		}
	}
	deep := strings.Repeat("[", 20_000) + strings.Repeat("]", 20_000)
	for _, body := range []string{
		`{"direction":"backward","table":"t","rids":[9223372036854775808]}`,
		`{"direction":"backward","table":"t","rids":[1e999,-1,2.5]}`,
		`{"sql":"SELECT 1","params":{"x":1e999,"y":-1e999,"z":99999999999999999999}}`,
		`{"sql":"SELECT 1","params":{"x":` + deep + `}}`,
		`{"direction":"forward","table":"t","params":{"p":[[[{"q":[1]}]]]}}`,
		`{"direction":"backward","table":"t","rids":[1],"seed_where":"a = 1"}`,
		`{"direction":7,"compress":"yes"}`,
		`null`, `[]`, `"x"`, ``,
	} {
		f.Add([]byte(body))
	}
	structured := func(t *testing.T, what string, body []byte, err error) {
		var e *serr.E
		if err != nil && (!errors.As(err, &e) || e.Kind != serr.Invalid) {
			t.Fatalf("%s of %q: %v is not a structured Invalid error", what, body, err)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var q QueryRequest
		if err := DecodeRequest(bytes.NewReader(body), &q); err != nil {
			structured(t, "decoding a query", body, err)
		} else {
			_, err := Params(q.Params)
			structured(t, "query params", body, err)
		}
		var tr TraceRequest
		if err := DecodeRequest(bytes.NewReader(body), &tr); err != nil {
			structured(t, "decoding a trace", body, err)
			return
		}
		_, err := tr.Validate()
		structured(t, "validating a trace", body, err)
		_, err = Params(tr.Params)
		structured(t, "trace params", body, err)
	})
}

// TestNameTables: every wire name parses to its engine value and back.
func TestNameTables(t *testing.T) {
	for _, ty := range []storage.Type{storage.TInt, storage.TFloat, storage.TString} {
		if back, err := ParseType(TypeName(ty)); err != nil || back != ty {
			t.Errorf("type %v → %q → %v, %v", ty, TypeName(ty), back, err)
		}
	}
	for _, name := range []string{"count", "sum", "avg", "min", "max", "count_distinct"} {
		if _, err := ParseAggFn(strings.ToUpper(name)); err != nil {
			t.Errorf("aggregate %q: %v", name, err)
		}
	}
	for _, name := range []string{"", "none", "inject", "defer"} {
		if _, err := ParseCaptureMode(name, 0); err != nil {
			t.Errorf("capture mode %q: %v", name, err)
		}
	}
	_, e1 := ParseType("decimal")
	_, e2 := ParseAggFn("median")
	_, e3 := ParseCaptureMode("eager", 0)
	for _, err := range []error{e1, e2, e3} {
		if serr.KindOf(err) != serr.Invalid {
			t.Errorf("unknown name = %v, want Invalid", err)
		}
	}
}
