package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"smoke/internal/serr"
	"smoke/internal/storage"
)

// The result codec. Result bodies — the reply of every query, trace and
// retained-result endpoint — are the interactive loop's hot path, so they
// bypass encoding/json in both directions:
//
//   - AppendResult appends a body straight from a relation's typed columns.
//     Its bytes are the bytes json.Encoder writes for the same body with
//     every row boxed: field order, omitempty, encoding/json's float
//     formatting and HTML-safe string escaping, and the trailing newline.
//   - DecodeResult reads a body in one pass, filling int64, float64 and
//     string cells by the body's column types. It returns what the
//     reflective path it replaced returned — Decode (UseNumber), then
//     Normalize converting each json.Number cell by its column type:
//     unknown fields tolerated, int64 values beyond 2^53 exact, a cell its
//     column type cannot hold left a json.Number — and fails on exactly the
//     bodies Decode fails on.
//   - DecodeTyped is the same parser landing the rows in typed columns, as
//     Rows holds them, for a reader that computes on the cells (the shard
//     coordinator's gather). It accepts exactly the bodies DecodeResult
//     accepts whose every row fits the body's own schema, with the same
//     cells.
//
// The claims are checked against encoding/json in wire's tests, which keep
// Normalize as the oracle and are the only place encoding/json still meets
// a result body.

// Rows renders the rows of rel, in rid order, as the result shape shared by
// every query/trace/result endpoint. The rows stay in rel's typed columns:
// AppendResult (and so WriteJSON) encodes them from there, and the Rows
// field stays nil.
func Rows(rel *storage.Relation) Result {
	out := Result{N: rel.N, rel: rel}
	for _, f := range rel.Schema {
		out.Columns = append(out.Columns, f.Name)
		out.Types = append(out.Types, TypeName(f.Type))
	}
	return out
}

// AppendResult appends r's JSON body, newline-terminated, to dst. The rows
// come from the typed columns Rows or DecodeTyped gave r; boxed rows are
// DecodeResult's read-only form and encode as an Internal error. A NaN or
// ±Inf cell is an Unsupported error — JSON has no form for it.
func AppendResult(dst []byte, r *Result) ([]byte, error) {
	if r.rel == nil && len(r.Rows) > 0 {
		return dst, serr.New(serr.Internal, "server: a result body encodes from typed columns, not boxed rows")
	}
	dst = append(dst, `{"columns":`...)
	dst = appendStrings(dst, r.Columns)
	dst = append(dst, `,"types":`...)
	dst = appendStrings(dst, r.Types)
	dst = append(dst, `,"rows":`...)
	switch {
	case r.rel != nil:
		var err error
		if dst, err = appendRows(dst, r.rel); err != nil {
			return dst, err
		}
	case r.Rows == nil:
		dst = append(dst, "null"...)
	default:
		dst = append(dst, "[]"...)
	}
	dst = append(dst, `,"row_count":`...)
	dst = strconv.AppendInt(dst, int64(r.N), 10)
	if len(r.GroupCounts) > 0 {
		dst = append(dst, `,"group_counts":[`...)
		for i, v := range r.GroupCounts {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, v, 10)
		}
		dst = append(dst, ']')
	}
	if r.Cached {
		dst = append(dst, `,"cached":true`...)
	}
	for _, f := range [...]struct{ key, v string }{
		{`,"explain":`, r.Explain}, {`,"retained":`, r.Retained}, {`,"strategy_used":`, r.StrategyUsed},
	} {
		if f.v != "" {
			dst = append(dst, f.key...)
			dst = appendString(dst, f.v)
		}
	}
	return append(dst, '}', '\n'), nil
}

// appendRows writes rel's rows as a JSON array of arrays, cell by typed cell.
func appendRows(dst []byte, rel *storage.Relation) ([]byte, error) {
	dst = append(dst, '[')
	for i := 0; i < rel.N; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for c, f := range rel.Schema {
			if c > 0 {
				dst = append(dst, ',')
			}
			switch f.Type {
			case storage.TInt:
				dst = strconv.AppendInt(dst, rel.Cols[c].Ints[i], 10)
			case storage.TFloat:
				v := rel.Cols[c].Floats[i]
				if math.IsNaN(v) || math.IsInf(v, 0) {
					// Worded as encoding/json words it, so the 422 body is the
					// one clients have always seen.
					return dst, serr.New(serr.Unsupported,
						"server: the answer holds a value JSON cannot carry (NaN and ±Inf floats have no JSON form): json: unsupported value: %s",
						strconv.FormatFloat(v, 'g', -1, 64))
				}
				dst = appendFloat(dst, v)
			case storage.TString:
				dst = appendString(dst, rel.Cols[c].Strs[i])
			default:
				dst = append(dst, "null"...)
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, ']'), nil
}

func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// appendFloat formats a finite float the way encoding/json does: the
// shortest representation, in exponent form below 1e-6 and from 1e21 on,
// with a one-digit negative exponent unpadded (1e-7, not 1e-07).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes a JSON string carries unescaped under
// encoding/json's HTML-safe rule: every printable byte but ", \, <, > and &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

// appendString quotes s the way encoding/json does with HTML escaping on:
// short escapes for \b \f \n \r \t " and \, \u00XX for the other control
// bytes and for < > &, \u2028 and \u2029 for U+2028 and U+2029, and \ufffd
// for each byte of invalid UTF-8.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// maxDepth is encoding/json's nesting limit: a body nesting arrays and
// objects deeper than this fails to decode.
const maxDepth = 10000

// resultKeys are Result's JSON keys; foldedKeys are the same keys
// case-folded, the second chance encoding/json gives a key that matches no
// field exactly.
var (
	resultKeys = [...]string{"columns", "types", "rows", "row_count", "group_counts", "cached", "explain", "retained", "strategy_used"}
	foldedKeys = func() (out [len(resultKeys)]string) {
		for i, k := range resultKeys {
			out[i] = string(foldName([]byte(k)))
		}
		return out
	}()
)

// DecodeResult decodes one result body from the start of data; like
// json.Decoder, it reads one JSON value and ignores what follows it. See the
// codec comment above for the equivalence it keeps with Decode + Normalize.
func DecodeResult(data []byte) (*Result, error) {
	d := decoder{data: data}
	return d.body()
}

// DecodeTyped decodes one result body as DecodeResult does, with its rows in
// typed columns: Rel holds them, Rows stays nil, and the result encodes
// through AppendResult as one Rows built does. It fails where DecodeResult
// fails, and with an Internal error where a body does not fit its own
// schema — columns and types of different lengths, an unknown type, a row
// of the wrong width, or a cell that is not its column type's value (the
// int64, float64 or string DecodeResult would have put there).
func DecodeTyped(data []byte) (*Result, error) {
	d := decoder{data: data, typed: true}
	r, err := d.body()
	if err != nil {
		return nil, err
	}
	if len(r.Types) != len(r.Columns) {
		return nil, serr.New(serr.Internal, "server: malformed result: %d columns but %d types", len(r.Columns), len(r.Types))
	}
	schema := make(storage.Schema, len(r.Columns))
	for c, col := range r.Columns {
		ty, err := ParseType(r.Types[c])
		if err != nil {
			return nil, serr.New(serr.Internal, "server: malformed result: %v", err)
		}
		schema[c] = storage.Field{Name: col, Type: ty}
	}
	switch {
	case d.unfit:
		return nil, serr.New(serr.Internal, "server: malformed result: a row does not fit the schema %v", r.Types)
	case d.rel == nil || d.rel.N == 0:
		r.rel = storage.NewRelation("result", schema, 0)
	default:
		d.rel.Schema = schema
		r.rel = d.rel
	}
	return r, nil
}

// Rel is the result's rows as typed columns: set by Rows and DecodeTyped,
// nil on a DecodeResult result.
func (r *Result) Rel() *storage.Relation { return r.rel }

// body decodes the result body at the start of d.data.
func (d *decoder) body() (*Result, error) {
	r := &Result{}
	d.space()
	if d.pos == len(d.data) {
		return nil, d.errorf("empty body")
	}
	switch d.data[d.pos] {
	case 'n':
		// A null body decodes to the zero Result, as it does for Decode.
		if err := d.literal("null"); err != nil {
			return nil, err
		}
		return r, nil
	case '{':
		if err := d.result(r); err != nil {
			return nil, err
		}
		return r, nil
	}
	return nil, d.errorf("a result body is a JSON object")
}

// decoder is a strict JSON reader over one body: it accepts exactly the
// grammar encoding/json's scanner accepts, nesting limit included.
type decoder struct {
	data  []byte
	pos   int
	depth int
	plain bool   // the last string read had no escapes and valid UTF-8
	text  string // a copy of data, made for the first plain string cell

	// A typed decoder (DecodeTyped) reads rows into rel; unfit records
	// that the last rows value did not fit the types it was read under.
	typed bool
	rel   *storage.Relation
	unfit bool
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("wire: malformed result body at byte %d: %s", d.pos, fmt.Sprintf(format, args...))
}

func (d *decoder) space() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek skips white space and returns the next byte (0 at the end).
func (d *decoder) peek() byte {
	d.space()
	if d.pos == len(d.data) {
		return 0
	}
	return d.data[d.pos]
}

// open consumes the [ or { at the cursor and counts one nesting level.
func (d *decoder) open() error {
	d.pos++
	if d.depth++; d.depth > maxDepth {
		return d.errorf("exceeded max depth")
	}
	return nil
}

// next consumes the separator after an element of an array (end ']') or
// object (end '}'); done reports the end of the container.
func (d *decoder) next(end byte) (done bool, err error) {
	switch d.peek() {
	case ',':
		d.pos++
		return false, nil
	case end:
		d.pos++
		d.depth--
		return true, nil
	}
	return false, d.errorf("want , or %c", end)
}

// empty consumes the end of a container that has no elements.
func (d *decoder) empty(end byte) bool {
	if d.peek() == end {
		d.pos++
		d.depth--
		return true
	}
	return false
}

func (d *decoder) literal(lit string) error {
	if len(d.data)-d.pos < len(lit) || string(d.data[d.pos:d.pos+len(lit)]) != lit {
		return d.errorf("invalid literal")
	}
	d.pos += len(lit)
	return nil
}

// result decodes the body object into r. Keys match Result's fields as
// encoding/json matches them — exactly, else case-folded — and a repeated
// key decodes again over the earlier value.
func (d *decoder) result(r *Result) error {
	if err := d.open(); err != nil {
		return err
	}
	if d.empty('}') {
		return nil
	}
	// Rows are typed by the types known when they are read; types that
	// arrive after them send the rows through once more, typed by the final
	// types as Normalize would have typed them.
	typesSeen, rowsTyped, rowsAt := 0, 0, -1
	for {
		if d.peek() != '"' {
			return d.errorf("want an object key")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		if d.peek() != ':' {
			return d.errorf("want :")
		}
		d.pos++
		d.space()
		if d.pos == len(d.data) {
			return d.errorf("unexpected end")
		}
		switch fieldKey(key) {
		case "columns":
			r.Columns, err = d.strList(r.Columns)
		case "types":
			r.Types, err = d.strList(r.Types)
			typesSeen++
		case "rows":
			rowsAt, rowsTyped = d.pos, typesSeen
			err = d.rowsInto(r)
		case "row_count":
			err = d.intField(&r.N)
		case "group_counts":
			r.GroupCounts, err = d.intList(r.GroupCounts)
		case "cached":
			err = d.boolField(&r.Cached)
		case "explain":
			err = d.strField(&r.Explain)
		case "retained":
			err = d.strField(&r.Retained)
		case "strategy_used":
			err = d.strField(&r.StrategyUsed)
		default:
			_, err = d.value(false)
		}
		if err != nil {
			return err
		}
		if done, err := d.next('}'); err != nil || done {
			if err == nil && rowsAt >= 0 && rowsTyped != typesSeen {
				again := decoder{data: d.data, pos: rowsAt, depth: 1, typed: d.typed}
				err = again.rowsInto(r)
				d.rel, d.unfit = again.rel, again.unfit
			}
			return err
		}
	}
}

// fieldKey is the Result key an object key names, or "".
func fieldKey(key []byte) string {
	for _, k := range resultKeys {
		if string(key) == k {
			return k
		}
	}
	folded := foldName(key)
	for i, k := range foldedKeys {
		if string(folded) == k {
			return resultKeys[i]
		}
	}
	return ""
}

// foldName is encoding/json's key folding: ASCII letters upper-cased, every
// other rune mapped to the smallest rune of its case-fold orbit.
func foldName(in []byte) []byte {
	out := make([]byte, 0, len(in))
	for i := 0; i < len(in); {
		if c := in[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(in[i:])
		for {
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		out = utf8.AppendRune(out, r)
		i += n
	}
	return out
}

// grow extends s by one element the way encoding/json extends a slice it
// decodes into: within capacity the slot keeps what the backing array held,
// past it the slice grows as append grows it. A null element leaves the
// slot as it was, so a repeated key exposes earlier values exactly as Decode
// does.
func grow[T any](s []T) []T {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	var zero T
	return append(s, zero)
}

// strList decodes a []string field over its earlier value old.
func (d *decoder) strList(old []string) ([]string, error) {
	return list(d, old, func(dst *string) error {
		if d.data[d.pos] != '"' {
			return d.errorf("want a string")
		}
		s, err := d.str()
		*dst = string(s)
		return err
	})
}

// intList decodes a []int64 field over its earlier value old.
func (d *decoder) intList(old []int64) ([]int64, error) {
	return list(d, old, func(dst *int64) error {
		lit, isInt, err := d.number()
		if err != nil {
			return err
		}
		v, ok := parseInt(lit, isInt)
		if !ok {
			return d.errorf("want an int64, got %s", lit)
		}
		*dst = v
		return nil
	})
}

// list decodes a JSON array of one element type into a slice, null
// elements skipped in place (see grow); a null array is a nil slice and an
// empty one an empty, non-nil slice.
func list[T any](d *decoder, old []T, elem func(*T) error) ([]T, error) {
	switch d.data[d.pos] {
	case 'n':
		return nil, d.literal("null")
	case '[':
	default:
		return nil, d.errorf("want an array")
	}
	if err := d.open(); err != nil {
		return nil, err
	}
	if d.empty(']') {
		return []T{}, nil
	}
	s := old[:0]
	for {
		s = grow(s)
		if d.peek() == 'n' {
			if err := d.literal("null"); err != nil {
				return nil, err
			}
		} else if d.pos == len(d.data) {
			return nil, d.errorf("unexpected end")
		} else if err := elem(&s[len(s)-1]); err != nil {
			return nil, err
		}
		if done, err := d.next(']'); err != nil || done {
			return s, err
		}
	}
}

// Cell kinds: the column types Normalize converts numbers for, and — for
// a typed decoder — the string columns a string cell fits.
const (
	kindOther byte = iota
	kindInt
	kindFloat
	kindString
)

// rowsInto decodes the rows value at the cursor into r: boxed into Rows, or
// on a typed decoder into d.rel.
func (d *decoder) rowsInto(r *Result) (err error) {
	if !d.typed {
		r.Rows, err = d.rows(r.Types)
		return err
	}
	start, depth := d.pos, d.depth
	d.rel, err = d.typedRows(r.Types)
	if d.unfit = err == errUnfit; d.unfit {
		// The typed reader stopped at the first cell that does not fit;
		// the boxed reader checks the rest of the value's grammar.
		d.pos, d.depth, d.rel = start, depth, nil
		_, err = d.rows(r.Types)
	}
	return err
}

// errUnfit stops the typed reader at a row or cell its types cannot hold.
var errUnfit = errors.New("wire: row does not fit its types")

// typedRows decodes the rows array into a relation typed by types, with the
// grammar the boxed reader (rows) checks. A cell fits its column when
// DecodeResult would box it as the Go value of the column's type: a number
// that parses as int64 under the type "int" or float64 under "float", a
// string under a type that names the string type.
func (d *decoder) typedRows(types []string) (*storage.Relation, error) {
	switch d.data[d.pos] {
	case 'n':
		return nil, d.literal("null")
	case '[':
	default:
		return nil, d.errorf("want an array of rows")
	}
	schema := make(storage.Schema, len(types))
	kinds := make([]byte, len(types))
	for c, t := range types {
		switch ty, err := ParseType(t); {
		case t == "int":
			kinds[c] = kindInt
		case t == "float":
			schema[c].Type, kinds[c] = storage.TFloat, kindFloat
		case err == nil && ty == storage.TString:
			schema[c].Type, kinds[c] = storage.TString, kindString
		}
	}
	if err := d.open(); err != nil {
		return nil, err
	}
	rel := storage.NewRelation("result", schema, 0)
	if d.empty(']') {
		return rel, nil
	}
	for {
		if err := d.typedRow(rel, kinds); err != nil {
			return nil, err
		}
		rel.N++
		if done, err := d.next(']'); err != nil || done {
			return rel, err
		}
	}
}

// typedRow appends one row's cells to rel's columns.
func (d *decoder) typedRow(rel *storage.Relation, kinds []byte) error {
	switch d.peek() {
	case 'n':
		if len(kinds) > 0 {
			return errUnfit
		}
		return d.literal("null")
	case '[':
	default:
		return d.errorf("want a row array")
	}
	if err := d.open(); err != nil {
		return err
	}
	if d.empty(']') {
		if len(kinds) > 0 {
			return errUnfit
		}
		return nil
	}
	for c := 0; ; c++ {
		if c == len(kinds) {
			return errUnfit
		}
		d.space()
		col := &rel.Cols[c]
		switch b := d.byteAt(); {
		case b == '"' && kinds[c] == kindString:
			s, err := d.strValue()
			if err != nil {
				return err
			}
			col.Strs = append(col.Strs, s)
		case (b == '-' || '0' <= b && b <= '9') && (kinds[c] == kindInt || kinds[c] == kindFloat):
			lit, isInt, err := d.number()
			if err != nil {
				return err
			}
			if kinds[c] == kindInt {
				v, ok := parseInt(lit, isInt)
				if !ok {
					return errUnfit
				}
				col.Ints = append(col.Ints, v)
			} else {
				v, err := strconv.ParseFloat(string(lit), 64)
				if err != nil {
					return errUnfit
				}
				col.Floats = append(col.Floats, v)
			}
		default:
			return errUnfit
		}
		if done, err := d.next(']'); err != nil || done {
			if err == nil && c+1 != len(kinds) {
				return errUnfit
			}
			return err
		}
	}
}

// rows decodes the rows array, typing number cells by types.
func (d *decoder) rows(types []string) ([][]any, error) {
	switch d.data[d.pos] {
	case 'n':
		return nil, d.literal("null")
	case '[':
	default:
		return nil, d.errorf("want an array of rows")
	}
	kinds := make([]byte, len(types))
	for c, t := range types {
		switch t {
		case "int":
			kinds[c] = kindInt
		case "float":
			kinds[c] = kindFloat
		}
	}
	if err := d.open(); err != nil {
		return nil, err
	}
	rows := [][]any{}
	if d.empty(']') {
		return rows, nil
	}
	// Rows are cut from cell slabs, not allocated one by one: a slab too
	// short for one more row of the last row's width is left to the rows
	// already cut from it, and the next one is twice its size.
	var cells []any
	width := len(types)
	for {
		if cells == nil || cap(cells)-len(cells) < width {
			cells = make([]any, 0, max(2*cap(cells), 16*width, 16))
		}
		start := len(cells)
		row, err := d.row(cells, kinds)
		if err != nil {
			return nil, err
		}
		if row == nil { // a null row
			rows = append(rows, nil)
		} else {
			cells = row
			width = len(cells) - start
			rows = append(rows, cells[start:len(cells):len(cells)])
		}
		if done, err := d.next(']'); err != nil || done {
			return rows, err
		}
	}
}

// row appends one row's cells to cells; a null row returns nil.
func (d *decoder) row(cells []any, kinds []byte) ([]any, error) {
	switch d.peek() {
	case 'n':
		return nil, d.literal("null")
	case '[':
	default:
		return nil, d.errorf("want a row array")
	}
	if err := d.open(); err != nil {
		return nil, err
	}
	if d.empty(']') {
		return cells, nil
	}
	for c := 0; ; c++ {
		kind := kindOther
		if c < len(kinds) {
			kind = kinds[c]
		}
		d.space()
		var (
			v   any
			err error
		)
		switch b := d.byteAt(); {
		case b == '-' || '0' <= b && b <= '9':
			v, err = d.numberCell(kind)
		case b == '"':
			v, err = d.stringCell()
		default:
			v, err = d.value(true)
		}
		if err != nil {
			return nil, err
		}
		cells = append(cells, v)
		if done, err := d.next(']'); err != nil || done {
			return cells, err
		}
	}
}

func (d *decoder) byteAt() byte {
	if d.pos == len(d.data) {
		return 0
	}
	return d.data[d.pos]
}

// stringCell reads a string cell boxed.
func (d *decoder) stringCell() (any, error) {
	s, err := d.strValue()
	if err != nil {
		return nil, err
	}
	return s, nil
}

// strValue reads a string cell. Cells without escapes are cut from one copy
// of the body, so the strings of a body cost one allocation between them
// (and keep that copy alive while any of them is).
func (d *decoder) strValue() (string, error) {
	start := d.pos + 1
	b, err := d.str()
	if err != nil {
		return "", err
	}
	if !d.plain {
		return string(b), nil
	}
	if d.text == "" {
		d.text = string(d.data)
	}
	return d.text[start : start+len(b)], nil
}

// numberCell reads a number cell as its column kind holds it — int64 or
// float64 — or, when the literal does not parse as that, a json.Number.
func (d *decoder) numberCell(kind byte) (any, error) {
	lit, isInt, err := d.number()
	if err != nil {
		return nil, err
	}
	switch kind {
	case kindInt:
		if v, ok := parseInt(lit, isInt); ok {
			return v, nil
		}
	case kindFloat:
		if v, err := strconv.ParseFloat(string(lit), 64); err == nil {
			return v, nil
		}
	}
	return json.Number(lit), nil
}

// parseInt is strconv.ParseInt(lit, 10, 64) for a JSON number literal:
// isInt says the literal has no fraction or exponent.
func parseInt(lit []byte, isInt bool) (int64, bool) {
	if !isInt {
		return 0, false
	}
	neg := lit[0] == '-'
	digits := lit
	if neg {
		digits = lit[1:]
	}
	if len(digits) > 19 { // 19 digits never wrap a uint64
		return 0, false
	}
	var u uint64
	for _, c := range digits {
		u = u*10 + uint64(c-'0')
	}
	switch {
	case !neg && u <= math.MaxInt64:
		return int64(u), true
	case neg && u <= 1<<63:
		return int64(-u), true
	}
	return 0, false
}

// number consumes a number literal; isInt reports it has neither a
// fraction nor an exponent.
func (d *decoder) number() (lit []byte, isInt bool, err error) {
	start := d.pos
	digits := func() int {
		n := 0
		for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
			d.pos++
			n++
		}
		return n
	}
	if d.byteAt() == '-' {
		d.pos++
	}
	switch c := d.byteAt(); {
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		digits()
	default:
		return nil, false, d.errorf("invalid number")
	}
	isInt = true
	if d.byteAt() == '.' {
		d.pos++
		if digits() == 0 {
			return nil, false, d.errorf("invalid number")
		}
		isInt = false
	}
	if c := d.byteAt(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.byteAt(); c == '+' || c == '-' {
			d.pos++
		}
		if digits() == 0 {
			return nil, false, d.errorf("invalid number")
		}
		isInt = false
	}
	return d.data[start:d.pos], isInt, nil
}

// intField, boolField and strField decode a scalar field; null leaves it
// as it was, as Decode leaves it.
func (d *decoder) intField(dst *int) error {
	switch c := d.data[d.pos]; {
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		lit, isInt, err := d.number()
		if err != nil {
			return err
		}
		v, ok := parseInt(lit, isInt)
		if !ok || int64(int(v)) != v {
			return d.errorf("want an int, got %s", lit)
		}
		*dst = int(v)
		return nil
	}
	return d.errorf("want a number")
}

func (d *decoder) boolField(dst *bool) error {
	switch d.data[d.pos] {
	case 'n':
		return d.literal("null")
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	}
	return d.errorf("want a bool")
}

func (d *decoder) strField(dst *string) error {
	switch d.data[d.pos] {
	case 'n':
		return d.literal("null")
	case '"':
		s, err := d.str()
		*dst = string(s)
		return err
	}
	return d.errorf("want a string")
}

// value reads any JSON value at the cursor; with build it returns the value
// as Decode (UseNumber) would box it into an interface, else only checks it.
func (d *decoder) value(build bool) (any, error) {
	if d.pos == len(d.data) {
		return nil, d.errorf("unexpected end")
	}
	switch c := d.data[d.pos]; {
	case c == '"':
		s, err := d.str()
		if err != nil || !build {
			return nil, err
		}
		return string(s), nil
	case c == '-' || '0' <= c && c <= '9':
		lit, _, err := d.number()
		if err != nil || !build {
			return nil, err
		}
		return json.Number(lit), nil
	case c == 't':
		return true, d.literal("true")
	case c == 'f':
		return false, d.literal("false")
	case c == 'n':
		return nil, d.literal("null")
	case c == '[':
		if err := d.open(); err != nil {
			return nil, err
		}
		var arr []any
		if build {
			arr = []any{}
		}
		if d.empty(']') {
			return arr, nil
		}
		for {
			d.space()
			v, err := d.value(build)
			if err != nil {
				return nil, err
			}
			if build {
				arr = append(arr, v)
			}
			if done, err := d.next(']'); err != nil || done {
				return arr, err
			}
		}
	case c == '{':
		if err := d.open(); err != nil {
			return nil, err
		}
		var obj map[string]any
		if build {
			obj = map[string]any{}
		}
		if d.empty('}') {
			return obj, nil
		}
		for {
			if d.peek() != '"' {
				return nil, d.errorf("want an object key")
			}
			key, err := d.str()
			if err != nil {
				return nil, err
			}
			if d.peek() != ':' {
				return nil, d.errorf("want :")
			}
			d.pos++
			d.space()
			v, err := d.value(build)
			if err != nil {
				return nil, err
			}
			if build {
				obj[string(key)] = v
			}
			if done, err := d.next('}'); err != nil || done {
				return obj, err
			}
		}
	}
	return nil, d.errorf("invalid character %q", d.data[d.pos])
}

// str consumes a string literal and returns its value. A literal with no
// escapes and only valid UTF-8 is returned in place; any other is unquoted
// into a new slice as encoding/json unquotes it.
func (d *decoder) str() ([]byte, error) {
	d.pos++
	start, plain := d.pos, true
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			lit := d.data[start:d.pos]
			d.pos++
			if d.plain = plain; plain {
				return lit, nil
			}
			return unquote(lit), nil
		case c == '\\':
			plain = false
			d.pos++
			switch d.byteAt() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.pos++
			case 'u':
				d.pos++
				for k := 0; k < 4; k++ {
					if !isHex(d.byteAt()) {
						return nil, d.errorf("invalid \\u escape")
					}
					d.pos++
				}
			default:
				return nil, d.errorf("invalid escape")
			}
		case c < ' ':
			return nil, d.errorf("control character in string")
		case c < utf8.RuneSelf:
			d.pos++
		default:
			r, size := utf8.DecodeRune(d.data[d.pos:])
			if r == utf8.RuneError && size == 1 {
				plain = false
			}
			d.pos += size
		}
	}
	return nil, d.errorf("unterminated string")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote decodes the escapes of a string literal the scanner already
// accepted, replacing invalid UTF-8 and unpaired surrogates with U+FFFD.
func unquote(s []byte) []byte {
	b := make([]byte, 0, len(s)+2*utf8.UTFMax)
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			switch e := s[r+1]; e {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := getu4(s[r:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, getu4(s[r:])); dec != unicode.ReplacementChar {
						r += 6
						b = utf8.AppendRune(b, dec)
						continue
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default: // " \ /
				b = append(b, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			b = utf8.AppendRune(b, rr)
			r += size
		}
	}
	return b
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}
