package wire

import (
	"net/http"
	"strings"

	"smoke/internal/ops"
	"smoke/internal/serr"
	"smoke/internal/storage"
)

// StatusOf maps a structured error kind to its HTTP status. The mapping is
// injective, so a client can tell the kinds apart by status alone.
func StatusOf(err error) int {
	switch serr.KindOf(err) {
	case serr.Invalid:
		return http.StatusBadRequest
	case serr.NotFound:
		return http.StatusNotFound
	case serr.Gone:
		return http.StatusGone
	case serr.Unsupported:
		return http.StatusUnprocessableEntity
	case serr.Busy:
		return http.StatusTooManyRequests
	case serr.Unavailable:
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// ParseType maps a wire column type name to the storage type.
func ParseType(s string) (storage.Type, error) {
	switch strings.ToLower(s) {
	case "int":
		return storage.TInt, nil
	case "float":
		return storage.TFloat, nil
	case "string":
		return storage.TString, nil
	}
	return 0, serr.New(serr.Invalid, "server: unknown column type %q (want int, float, or string)", s)
}

// TypeName is the wire name of a storage type.
func TypeName(t storage.Type) string {
	switch t {
	case storage.TInt:
		return "int"
	case storage.TFloat:
		return "float"
	case storage.TString:
		return "string"
	}
	return "?"
}

// Fields renders a relation schema.
func Fields(schema storage.Schema) []Field {
	var out []Field
	for _, f := range schema {
		out = append(out, Field{Name: f.Name, Type: TypeName(f.Type)})
	}
	return out
}

// ParseAggFn maps a wire aggregate name to the kernel aggregate.
func ParseAggFn(s string) (ops.AggFn, error) {
	switch strings.ToLower(s) {
	case "count":
		return ops.Count, nil
	case "sum":
		return ops.Sum, nil
	case "avg":
		return ops.Avg, nil
	case "min":
		return ops.Min, nil
	case "max":
		return ops.Max, nil
	case "count_distinct":
		return ops.CountDistinct, nil
	}
	return 0, serr.New(serr.Invalid, "server: unknown aggregate %q", s)
}

// ParseCaptureMode maps a wire capture-mode name to the kernel mode; empty
// takes def.
func ParseCaptureMode(s string, def ops.CaptureMode) (ops.CaptureMode, error) {
	switch strings.ToLower(s) {
	case "":
		return def, nil
	case "none":
		return ops.None, nil
	case "inject":
		return ops.Inject, nil
	case "defer":
		return ops.Defer, nil
	}
	return 0, serr.New(serr.Invalid, "server: unknown capture mode %q (want none, inject, or defer)", s)
}
