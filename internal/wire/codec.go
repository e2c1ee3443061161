package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

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

// ResultTaker is an optional interface an http.ResponseWriter implements,
// in the style of http.Flusher, to take a typed result in place of its JSON
// body: the in-process shard seam, where a body would be encoded only for
// the caller to parse it again. The taker owns the status and the result
// from then on, but not the result's rows, which may be a retained or
// cached relation of the handler's: it must never write into them. A taker
// that answers a client of its own with the rows encodes them there
// (WriteJSON), where a value JSON cannot carry is refused as it would have
// been here.
type ResultTaker interface {
	TakeResult(status int, r *Result)
}

// WriteJSON answers status with v as the JSON body. A typed result (one
// Rows or DecodeTyped built) is handed to a writer that is a ResultTaker
// instead; error bodies, boxed rows and every other value encode. v is
// encoded before anything is sent: a value JSON cannot carry — a NaN or ±Inf
// in a result row — is answered as a structured 422 (Unsupported) instead of
// the status with an empty body. A Result is appended by the result codec
// (AppendResult); only the small bodies — errors, /healthz, table lists,
// session handles — go through encoding/json.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	if handBack(w, status, v) {
		return
	}
	bp := bodyPool.Get().(*[]byte)
	body := (*bp)[:0]
	var err error
	switch r := v.(type) {
	case Result:
		body, err = AppendResult(body, &r)
	case *Result:
		body, err = AppendResult(body, r)
	default:
		buf := bytes.NewBuffer(body)
		if err = json.NewEncoder(buf).Encode(v); err != nil {
			err = serr.New(serr.Unsupported,
				"server: the answer holds a value JSON cannot carry (NaN and ±Inf floats have no JSON form): %v", err)
		}
		body = buf.Bytes()
	}
	if err != nil {
		WriteError(w, err)
	} else {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_, _ = w.Write(body) // the status is sent; a dead connection has no one to tell
	}
	if cap(body) <= maxPooledBody {
		*bp = body[:0]
		bodyPool.Put(bp)
	}
}

// handBack gives v to w when w is a ResultTaker and v a typed result, and
// reports whether it did.
func handBack(w http.ResponseWriter, status int, v any) bool {
	t, ok := w.(ResultTaker)
	if !ok {
		return false
	}
	switch r := v.(type) {
	case Result:
		if r.rel != nil {
			t.TakeResult(status, &r)
			return true
		}
	case *Result:
		if r.rel != nil {
			t.TakeResult(status, r)
			return true
		}
	}
	return false
}

// bodyPool recycles WriteJSON's encode buffers. A buffer that grew past
// maxPooledBody is left to the collector, so the pool never pins the
// memory of one large answer.
var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

const maxPooledBody = 64 << 10

// WriteError answers err as the uniform error body under its kind's status.
func WriteError(w http.ResponseWriter, err error) {
	writeError(w, StatusOf(err), err)
}

func writeError(w http.ResponseWriter, status int, err error) {
	var body ErrorBody
	body.Error.Kind = serr.KindOf(err).String()
	body.Error.Message = err.Error()
	if pos := serr.PosOf(err); pos >= 0 {
		body.Error.Pos = &pos
	}
	WriteJSON(w, status, body)
}

// NewMux returns a ServeMux serving each "METHOD /path" pattern of routes
// with its handler, in which a request no route takes still answers the
// uniform error body: an unknown path is NotFound (404), and a known path
// under another method is a 405 whose Allow header lists the path's
// methods — the statuses and header ServeMux's own text/plain pages carry.
func NewMux(routes map[string]http.HandlerFunc) *http.ServeMux {
	mux := http.NewServeMux()
	allowed := map[string][]string{}
	for pattern, h := range routes {
		mux.HandleFunc(pattern, h)
		method, path, _ := strings.Cut(pattern, " ")
		allowed[path] = append(allowed[path], method)
		if method == http.MethodGet { // a GET route serves HEAD too
			allowed[path] = append(allowed[path], http.MethodHead)
		}
	}
	for path, methods := range allowed {
		slices.Sort(methods)
		allow := strings.Join(methods, ", ")
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Allow", allow)
			writeError(w, http.StatusMethodNotAllowed, serr.New(serr.Invalid,
				"server: method %s not allowed on %s (allowed: %s)", r.Method, r.URL.Path, allow))
		})
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, serr.New(serr.NotFound, "server: no endpoint %s %s", r.Method, r.URL.Path))
	})
	return mux
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
// int64/float64 from a Go caller.
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

// Relation builds a relation from an ingest body's schema + rows.
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
