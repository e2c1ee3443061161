package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"smoke/internal/serr"
	"smoke/internal/storage"
)

// The result codec's oracles: encoding/json encoding the boxed rows, and
// Decode (UseNumber) followed by Normalize decoding them. Outside these
// tests nothing meets a result body through encoding/json.

// Normalize converts decoded row values to their column's Go type:
// json.Number → int64/float64 per the Types list. With Decode it is the
// reference DecodeResult must agree with.
func (r *Result) Normalize() {
	for _, row := range r.Rows {
		for c := range row {
			n, ok := row[c].(json.Number)
			if !ok || c >= len(r.Types) {
				continue
			}
			switch r.Types[c] {
			case "int":
				if v, err := n.Int64(); err == nil {
					row[c] = v
				}
			case "float":
				if v, err := n.Float64(); err == nil {
					row[c] = v
				}
			}
		}
	}
}

// oracleDecode is the reflective decode the codec replaced.
func oracleDecode(body []byte) (*Result, error) {
	var r Result
	if err := Decode(bytes.NewReader(body), &r); err != nil {
		return nil, err
	}
	r.Normalize()
	return &r, nil
}

// oracleEncode is the reflective encode the codec replaced.
func oracleEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// boxed is the form Rows had before the codec: every row boxed through
// Relation.Row.
func boxed(r Result) Result {
	rel := r.rel
	r.rel = nil
	r.Rows = make([][]any, 0, rel.N)
	for i := 0; i < rel.N; i++ {
		r.Rows = append(r.Rows, rel.Row(i))
	}
	return r
}

// oracleRelation types a decoded result's boxed rows: the relation their
// schema describes, or an error when a row does not fit it — the check the
// gather ran on boxed partials before DecodeTyped.
func oracleRelation(r *Result) (*storage.Relation, error) {
	if len(r.Types) != len(r.Columns) {
		return nil, serr.New(serr.Internal, "%d columns but %d types", len(r.Columns), len(r.Types))
	}
	schema := make(storage.Schema, len(r.Columns))
	for c, col := range r.Columns {
		ty, err := ParseType(r.Types[c])
		if err != nil {
			return nil, err
		}
		schema[c] = storage.Field{Name: col, Type: ty}
	}
	rel := storage.NewRelation("result", schema, len(r.Rows))
	for i, row := range r.Rows {
		if len(row) != len(schema) {
			return nil, serr.New(serr.Internal, "row %d has %d values for %d columns", i, len(row), len(schema))
		}
		for c, f := range schema {
			ok := false
			switch f.Type {
			case storage.TInt:
				rel.Cols[c].Ints[i], ok = row[c].(int64)
			case storage.TFloat:
				rel.Cols[c].Floats[i], ok = row[c].(float64)
			case storage.TString:
				rel.Cols[c].Strs[i], ok = row[c].(string)
			}
			if !ok {
				return nil, serr.New(serr.Internal, "row %d column %s holds %T", i, f.Name, row[c])
			}
		}
	}
	return rel, nil
}

// sameDecode fails t unless DecodeResult and the oracle agree on body: both
// fail, or both succeed with deep-equal results. DecodeTyped must then
// succeed exactly when the boxed rows also type (oracleRelation), with the
// same cells and the same other fields.
func sameDecode(t *testing.T, body []byte) {
	t.Helper()
	got, err := DecodeResult(body)
	want, werr := oracleDecode(body)
	if (err != nil) != (werr != nil) {
		t.Fatalf("body %q: DecodeResult error %v, oracle error %v", body, err, werr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q:\n got %#v\nwant %#v", body, got, want)
	}
	typed, terr := DecodeTyped(body)
	var wantRel *storage.Relation
	if werr == nil {
		wantRel, werr = oracleRelation(want)
	}
	if (terr != nil) != (werr != nil) {
		t.Fatalf("body %q: DecodeTyped error %v, DecodeResult + Relation error %v", body, terr, werr)
	}
	if terr != nil {
		if err == nil && serr.KindOf(terr) != serr.Internal {
			t.Fatalf("body %q: DecodeTyped refused a decodable body with %v, want Internal", body, terr)
		}
		return
	}
	rel := typed.Rel()
	if !reflect.DeepEqual(rel.Schema, wantRel.Schema) || rel.N != wantRel.N {
		t.Fatalf("body %q: typed schema %v rows %d, want %v rows %d", body, rel.Schema, rel.N, wantRel.Schema, wantRel.N)
	}
	for i := 0; i < rel.N; i++ {
		for c := range rel.Schema {
			g, w := rel.Value(c, i), wantRel.Value(c, i)
			if gf, ok := g.(float64); ok {
				g, w = math.Float64bits(gf), math.Float64bits(w.(float64))
			}
			if g != w {
				t.Fatalf("body %q: typed cell (%d, %d) = %#v, want %#v", body, i, c, rel.Value(c, i), wantRel.Value(c, i))
			}
		}
	}
	typed.rel, want.Rows = nil, nil
	if !reflect.DeepEqual(typed, want) {
		t.Fatalf("body %q: typed fields\n got %#v\nwant %#v", body, typed, want)
	}
}

// decodeSeeds are bodies on the decoder's edges: the equivalence it keeps
// with encoding/json is in the details of each.
var decodeSeeds = []string{
	`{"columns":["a","b","c"],"types":["int","float","string"],"rows":[[9223372036854775807,5e-324,"x"],[-9223372036854775808,-0,""]],"row_count":2}`,
	// Cells a column type cannot hold stay what Normalize leaves.
	`{"types":["int","float","int","float"],"rows":[[1.5,1e400,9223372036854775808,"s"],[1e2,-1e400,-9223372036854775809,true],[null,{"a":[1,{"b":null}]},[2.5],-0]]}`,
	// Types after rows, types repeated, rows repeated, no types at all.
	`{"rows":[[1,2]],"types":["int","float"]}`,
	`{"types":["float"],"rows":[[1]],"types":["int"]}`,
	`{"types":["int"],"rows":[[1,2,3]],"rows":[[4]]}`,
	`{"rows":[[1,"x",true,null]]}`,
	// Repeated keys with null elements keep earlier values, as Decode does.
	`{"columns":["a","b","c"],"columns":["x"],"columns":[null,null,null,null,null]}`,
	`{"group_counts":[1,2,3],"group_counts":[null,null,9]}`,
	`{"explain":"a","explain":null,"cached":true,"cached":null,"row_count":3,"row_count":null}`,
	// Case-folded and escaped keys; unknown keys of every kind.
	`{"COLUMNS":["a"],"Row_Count":1,"ſtrategy_used":"lazy","\u0072ows":[],"extra":{"k":[1,2,{"x":null}]},"more":-1.5e-3}`,
	// Strings: escapes, surrogates, invalid UTF-8, U+2028.
	"{\"columns\":[\"\\u003c\\u003e\\u0026\",\"\\ud83d\\ude00\",\"\\ud800\",\"\\udc00x\",\"\\ud800\\u0041\",\"\xff\xed\xa0\x80\",\"\u2028\",\"\\/\\b\\f\\n\\r\\t\\\"\\\\\"]}",
	// Null, empty and non-object bodies; trailing bytes after the value.
	`null`, `nullx`, `{}`, `{} trailing`, `[]`, `"x"`, `1`, `true`, ``, `  `, `nul`,
	`{"rows":null,"columns":null,"types":[],"group_counts":[]}`,
	`{"rows":[[],null,[1]],"types":["int"]}`,
	// Type errors and syntax errors.
	`{"row_count":1.0}`, `{"row_count":"1"}`, `{"row_count":99999999999999999999}`, `{"cached":1}`,
	`{"columns":[1]}`, `{"rows":[1]}`, `{"rows":{}}`, `{"group_counts":[1e0]}`, `{"explain":false}`,
	`{"rows":[[01]]}`, `{"rows":[[1.]]}`, `{"rows":[[1e]]}`, `{"rows":[[-]]}`, `{"rows":[[1,]]}`,
	`{"a":1,}`, `{"a" 1}`, `{"a":"\x01"}`, `{"a":"\'"}`, `{"a":"\u12"}`, `{"a":tru}`, `{"columns":["a"]`,
	// Rows that do or do not fit their schema: the typed decode's edges.
	`{"columns":["a","b"],"types":["int","string"],"rows":[[1,"x"],[2,"y\u00e9"]]}`,
	`{"columns":["a"],"types":["int"],"rows":[["1"]]}`,
	`{"columns":["a"],"types":["int"],"rows":[[1.5]]}`,
	`{"columns":["a","b"],"types":["int","int"],"rows":[[1]]}`,
	`{"columns":["a"],"types":["int"],"rows":[[1,2]]}`,
	`{"columns":["a"],"types":["INT"],"rows":[[1]]}`,
	`{"columns":["a"],"types":["STRING"],"rows":[["s"]]}`,
	`{"columns":["a"],"types":["INT"],"rows":[]}`,
	`{"columns":["a"],"types":["int"],"rows":[[1]],"types":["string"]}`,
	`{"columns":["a"],"types":["string"],"rows":[[1]],"rows":null}`,
	`{"columns":["a"],"types":["int"],"rows":[["x"],5]}`,
	`{"columns":[],"types":[],"rows":[[],null]}`,
	`{"columns":["a"],"types":["float"],"rows":[[1e400]]}`,
	`{"columns":["a"],"types":["bogus"],"rows":null}`,
	`{"columns":["a"],"types":["int"],"rows":[[1]],"group_counts":[1,2]}`,
	`{"columns":["a"],"rows":[[1]]}`,
}

// FuzzDecodeResult: for any bytes, DecodeResult and Decode + Normalize give
// deep-equal results or both fail, and DecodeTyped succeeds exactly when
// the boxed rows type, with equal cells (sameDecode). Seeds: the golden
// result bodies, encoder output, and decodeSeeds.
func FuzzDecodeResult(f *testing.F) {
	for _, g := range goldenBodies {
		if _, ok := g.v.(Result); ok {
			f.Add([]byte(g.want))
		}
	}
	for _, seed := range decodeSeeds {
		f.Add([]byte(seed))
	}
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 4; i++ {
		r := randomResult(rng)
		if body, err := AppendResult(nil, &r); err == nil {
			f.Add(body)
		}
	}
	f.Fuzz(sameDecode)
}

// TestDecodeResultDepth: the decoder's nesting limit is encoding/json's, to
// the level.
func TestDecodeResultDepth(t *testing.T) {
	for _, depth := range []int{maxDepth - 1, maxDepth} {
		sameDecode(t, []byte(`{"x":`+strings.Repeat("[", depth-1)+strings.Repeat("]", depth-1)+`}`))
		sameDecode(t, []byte(`{"rows":[[`+strings.Repeat("[", depth-2)+strings.Repeat("]", depth-2)+`]]}`))
		sameDecode(t, []byte(`{"rows":[[`+strings.Repeat("[", depth-3)+strings.Repeat("]", depth-3)+`]]}`))
	}
	if _, err := DecodeResult([]byte(`{"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`)); err == nil {
		t.Fatal("a body nested past the limit decoded")
	}
}

var (
	edgeInts = []int64{0, 1, -1, 255, 256, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
		1 << 53, 1<<53 + 1, -(1 << 53) - 1}
	edgeFloats = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e21, -1e21, 1e20, 999999999999999900000,
		1e-7, 1e-6, 9.999999e-7, -1e-7, 1e-320, math.MaxFloat64, -math.MaxFloat64, 0.1, 1.0 / 3, 2.5,
		123456789.125, float64(1<<53 + 1), 1e100, 1.5e-300}
	edgeStrings = []string{"", "a", "<>&", "</script>", "\u2028\u2029", "\x00\x01\x1f\x7f", "\b\f\n\r\t\"\\/",
		"\xff", "\xed\xa0\x80", "a\xffb\xc3", "é中😀", "\u00e9\u0301", "x y"}
)

// randomResult is a Result over a random relation built by Rows, with
// random annotations, drawing cells from the edge pools and from noise.
func randomResult(rng *rand.Rand) Result {
	types := []storage.Type{storage.TInt, storage.TFloat, storage.TString}
	schema := make(storage.Schema, rng.IntN(5))
	for c := range schema {
		schema[c] = storage.Field{Name: randomString(rng), Type: types[rng.IntN(3)]}
	}
	rel := storage.NewRelation("r", schema, 0)
	n := rng.IntN(12)
	for i := 0; i < n; i++ {
		row := make([]any, len(schema))
		for c, f := range schema {
			switch f.Type {
			case storage.TInt:
				if rng.IntN(2) == 0 {
					row[c] = edgeInts[rng.IntN(len(edgeInts))]
				} else {
					row[c] = int64(rng.Uint64())
				}
			case storage.TFloat:
				if rng.IntN(2) == 0 {
					row[c] = edgeFloats[rng.IntN(len(edgeFloats))]
				} else {
					row[c] = math.Float64frombits(rng.Uint64())
				}
			case storage.TString:
				row[c] = randomString(rng)
			}
		}
		rel.AppendRow(row...)
	}
	r := Rows(rel)
	switch rng.IntN(3) {
	case 1:
		r.GroupCounts = []int64{}
	case 2:
		for i := rng.IntN(4); i >= 0; i-- {
			r.GroupCounts = append(r.GroupCounts, edgeInts[rng.IntN(len(edgeInts))])
		}
	}
	r.Cached = rng.IntN(2) == 0
	for _, s := range []*string{&r.Explain, &r.Retained, &r.StrategyUsed} {
		if rng.IntN(2) == 0 {
			*s = randomString(rng)
		}
	}
	return r
}

func randomString(rng *rand.Rand) string {
	if rng.IntN(2) == 0 {
		return edgeStrings[rng.IntN(len(edgeStrings))]
	}
	b := make([]byte, rng.IntN(8))
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return string(b)
}

// TestResultCodecMatchesEncodingJSON: over random relations, AppendResult
// writes the bytes encoding/json writes for the boxed rows — or, for a NaN
// or ±Inf cell, both refuse — and DecodeResult reads them back as the
// oracle does. Boxed rows are decode-only: encoding them is Internal.
func TestResultCodecMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 3000; i++ {
		r := randomResult(rng)
		old := boxed(r)
		want, werr := oracleEncode(old)
		got, err := AppendResult(nil, &r)
		if werr != nil { // a NaN or ±Inf cell: both refuse
			if serr.KindOf(err) != serr.Unsupported {
				t.Fatalf("result %d: oracle refused (%v), AppendResult answered %v", i, werr, err)
			}
			continue
		}
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("result %d:\n got %s (%v)\nwant %s", i, got, err, want)
		}
		if _, err := AppendResult(nil, &old); old.N > 0 && serr.KindOf(err) != serr.Internal {
			t.Fatalf("boxed result %d encoded with error %v, want Internal", i, err)
		}
		sameDecode(t, got)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rel := storage.NewRelation("r", storage.Schema{{Name: "f", Type: storage.TFloat}}, 0)
		rel.AppendRow(v)
		r := Rows(rel)
		_, werr := oracleEncode(boxed(r))
		_, err := AppendResult(nil, &r)
		if werr == nil || serr.KindOf(err) != serr.Unsupported {
			t.Fatalf("%v: AppendResult error %v, oracle error %v", v, err, werr)
		}
	}
	for _, g := range goldenBodies {
		r, ok := g.v.(Result)
		if !ok {
			continue
		}
		rel, err := oracleRelation(&r)
		if err != nil {
			t.Fatal(err)
		}
		r.rel, r.Rows = rel, nil
		if got, err := AppendResult(nil, &r); err != nil || string(got) != g.want+"\n" {
			t.Errorf("%s: AppendResult = %s (%v), want %s", g.name, got, err, g.want)
		}
	}
}

// BenchmarkResultCodec encodes and decodes a crossfilter-sized trace reply
// (354 rows of a string key, an int count and a float sum), beside the
// encoding/json oracles it replaced.
func BenchmarkResultCodec(b *testing.B) {
	rel := storage.NewRelation("r", storage.Schema{
		{Name: "carrier", Type: storage.TString}, {Name: "cnt", Type: storage.TInt}, {Name: "delay", Type: storage.TFloat},
	}, 0)
	for i := 0; i < 354; i++ {
		rel.AppendRow(strings.Repeat("x", i%7+1), int64(i*37), float64(i)*1.25+0.1)
	}
	r := Rows(rel)
	body, err := AppendResult(nil, &r)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, len(body))
		for i := 0; i < b.N; i++ {
			buf, _ = AppendResult(buf[:0], &r)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeResult(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-typed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeTyped(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = oracleEncode(boxed(r))
		}
	})
	b.Run("decode-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := oracleDecode(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}
