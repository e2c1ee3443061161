package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"

	"smoke/internal/expr"
	"smoke/internal/serr"
	"smoke/internal/storage"
)

// Decode decodes one JSON value with UseNumber, so int64 values survive
// beyond float64 precision. Unknown fields are tolerated.
func Decode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	return dec.Decode(v)
}

// DecodeRequest is Decode for a request body: a malformed body is the
// client's mistake (400). The caller bounds r (http.MaxBytesReader).
func DecodeRequest(r io.Reader, v any) error {
	if err := Decode(r, v); err != nil {
		return serr.New(serr.Invalid, "server: bad request body: %v", err)
	}
	return nil
}

// Normalize converts decoded row values to their column's Go type:
// json.Number → int64/float64 per the Types list, so callers compare values
// and merge partials without float64 precision loss on large ints.
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

// WriteJSON answers status with v as the JSON body. v is encoded before
// anything is sent: a value JSON cannot carry — a NaN or ±Inf in a result
// row — is answered as a structured 422 (Unsupported) instead of the status
// with an empty body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		WriteError(w, serr.New(serr.Unsupported,
			"server: the answer holds a value JSON cannot carry (NaN and ±Inf floats have no JSON form): %v", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) // the status is sent; a dead connection has no one to tell
}

// WriteError answers err as the uniform error body under its kind's status.
func WriteError(w http.ResponseWriter, err error) {
	var body ErrorBody
	body.Error.Kind = serr.KindOf(err).String()
	body.Error.Message = err.Error()
	if pos := serr.PosOf(err); pos >= 0 {
		body.Error.Pos = &pos
	}
	WriteJSON(w, StatusOf(err), body)
}

// ParseError rebuilds the structured error a server answered with — same
// kind, message, and SQL position — so a proxy tier never flattens a 404 or
// a positioned 400 into an opaque 500. ok is false when body is not an error
// body.
func ParseError(body []byte) (e *serr.E, ok bool) {
	var eb ErrorBody
	if json.Unmarshal(body, &eb) != nil || eb.Error.Kind == "" {
		return nil, false
	}
	kind := serr.ParseKind(eb.Error.Kind)
	if eb.Error.Pos != nil {
		return serr.At(kind, *eb.Error.Pos, "%s", eb.Error.Message), true
	}
	return serr.New(kind, "%s", eb.Error.Message), true
}

// Validate checks the shape both front doors require of a trace request —
// a table, a direction, and at most one kind of seed — and reports whether
// the trace runs backward.
func (t *TraceRequest) Validate() (backward bool, err error) {
	if t.Table == "" {
		return false, serr.New(serr.Invalid, "server: trace needs a table")
	}
	switch strings.ToLower(t.Direction) {
	case "backward":
		backward = true
	case "forward":
	default:
		return false, serr.New(serr.Invalid, "server: direction must be backward or forward, got %q", t.Direction)
	}
	if t.Rids != nil && t.SeedWhere != "" {
		return false, serr.New(serr.Invalid, "server: rids and seed_where are mutually exclusive")
	}
	return backward, nil
}

// Params converts wire parameters to expression parameters. Numbers arrive
// as json.Number; integral values bind as int64 (so :cutoff compares against
// int columns), everything else as float64.
func Params(in map[string]any) (expr.Params, error) {
	if len(in) == 0 {
		return nil, nil
	}
	out := expr.Params{}
	for k, v := range in {
		switch n := v.(type) {
		case string, bool:
			out[k] = n
		default:
			if i, err := jsonInt(v); err == nil {
				if f, ferr := jsonFloat(v); ferr == nil && float64(i) != f {
					out[k] = f // non-integral number
				} else {
					out[k] = i
				}
				continue
			}
			f, err := jsonFloat(v)
			if err != nil {
				return nil, serr.New(serr.Invalid, "server: parameter %q: %v", k, err)
			}
			out[k] = f
		}
	}
	return out, nil
}

// jsonInt and jsonFloat read a decoded number: json.Number off the wire,
// int64/float64 once a Result has been normalized.
func jsonInt(v any) (int64, error) {
	switch n := v.(type) {
	case json.Number:
		return strconv.ParseInt(n.String(), 10, 64)
	case int64:
		return n, nil
	case float64:
		return int64(n), nil
	}
	return 0, serr.New(serr.Invalid, "want integer, got %T", v)
}

func jsonFloat(v any) (float64, error) {
	switch n := v.(type) {
	case json.Number:
		return n.Float64()
	case float64:
		return n, nil
	}
	return 0, serr.New(serr.Invalid, "want number, got %T", v)
}

// Rows renders the rows of rel satisfying keep (nil = all), in rid order, as
// the result shape shared by every query/trace/result endpoint.
func Rows(rel *storage.Relation, keep func(rid int) bool) Result {
	out := Result{Rows: [][]any{}}
	if keep == nil {
		out.Rows = make([][]any, 0, rel.N)
	}
	for _, f := range rel.Schema {
		out.Columns = append(out.Columns, f.Name)
		out.Types = append(out.Types, TypeName(f.Type))
	}
	for i := 0; i < rel.N; i++ {
		if keep != nil && !keep(i) {
			continue
		}
		out.Rows = append(out.Rows, rel.Row(i))
	}
	out.N = len(out.Rows)
	return out
}

// Relation builds a relation from schema + rows: an ingest body, whose
// numbers are json.Number, or a normalized Result.
func (t Table) Relation(name string) (*storage.Relation, error) {
	if len(t.Schema) == 0 {
		return nil, serr.New(serr.Invalid, "server: table body needs a non-empty schema")
	}
	schema := make(storage.Schema, len(t.Schema))
	for i, f := range t.Schema {
		if f.Name == "" {
			return nil, serr.New(serr.Invalid, "server: schema field %d has no name", i)
		}
		ty, err := ParseType(f.Type)
		if err != nil {
			return nil, err
		}
		schema[i] = storage.Field{Name: f.Name, Type: ty}
	}
	rel := storage.NewRelation(name, schema, len(t.Rows))
	for i, row := range t.Rows {
		if len(row) != len(schema) {
			return nil, serr.New(serr.Invalid, "server: row %d has %d values for %d columns", i, len(row), len(schema))
		}
		for c, f := range schema {
			switch f.Type {
			case storage.TInt:
				v, err := jsonInt(row[c])
				if err != nil {
					return nil, serr.New(serr.Invalid, "server: row %d column %s: %v", i, f.Name, err)
				}
				rel.Cols[c].Ints[i] = v
			case storage.TFloat:
				v, err := jsonFloat(row[c])
				if err != nil {
					return nil, serr.New(serr.Invalid, "server: row %d column %s: %v", i, f.Name, err)
				}
				rel.Cols[c].Floats[i] = v
			case storage.TString:
				s, ok := row[c].(string)
				if !ok {
					return nil, serr.New(serr.Invalid, "server: row %d column %s: want string, got %T", i, f.Name, row[c])
				}
				rel.Cols[c].Strs[i] = s
			}
		}
	}
	return rel, nil
}

// Relation rebuilds the relation a normalized result's rows describe — the
// inverse of Rows — so a gathered output can be filtered by compiled
// predicates exactly the way a single node filters its own output relation.
// A result that does not match its own schema is the sender's bug, not the
// client's.
func (r *Result) Relation(name string) (*storage.Relation, error) {
	t := Table{Schema: make([]Field, len(r.Columns)), Rows: r.Rows}
	for c, col := range r.Columns {
		t.Schema[c].Name = col
		if c < len(r.Types) {
			t.Schema[c].Type = r.Types[c]
		}
	}
	rel, err := t.Relation(name)
	if err != nil {
		return nil, serr.New(serr.Internal, "server: malformed result: %v", err)
	}
	return rel, nil
}
