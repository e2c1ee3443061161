package server

import (
	"encoding/csv"
	"io"
	"strconv"
	"strings"

	"smoke/internal/serr"
	"smoke/internal/storage"
	"smoke/internal/wire"
)

// ParseTableCSV builds a relation from a CSV ingest body: the first record
// is the header. Column types come from the types parameter
// ("int,float,string", one per column) or, when empty, are sniffed per column
// from the data (a column where every value parses as int is int; else
// float; else string). Exported for the shard coordinator (internal/shard),
// which parses an ingest body once and splits the rows by rid range before
// handing each shard its slice.
func ParseTableCSV(name string, r io.Reader, types string) (*storage.Relation, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	records, err := cr.ReadAll()
	if err != nil {
		return nil, serr.New(serr.Invalid, "server: bad csv: %v", err)
	}
	if len(records) == 0 {
		return nil, serr.New(serr.Invalid, "server: csv body needs a header record")
	}
	header, rows := records[0], records[1:]
	cols := len(header)

	schema := make(storage.Schema, cols)
	for c, h := range header {
		schema[c] = storage.Field{Name: strings.TrimSpace(h)}
		if schema[c].Name == "" {
			return nil, serr.New(serr.Invalid, "server: csv header column %d is empty", c)
		}
	}
	if types != "" {
		parts := strings.Split(types, ",")
		if len(parts) != cols {
			return nil, serr.New(serr.Invalid, "server: types lists %d types for %d columns", len(parts), cols)
		}
		for c, p := range parts {
			ty, err := wire.ParseType(strings.TrimSpace(p))
			if err != nil {
				return nil, err
			}
			schema[c].Type = ty
		}
	} else {
		for c := range schema {
			schema[c].Type = sniffCSVType(rows, c)
		}
	}

	rel := storage.NewRelation(name, schema, len(rows))
	for i, row := range rows {
		if len(row) != cols {
			return nil, serr.New(serr.Invalid, "server: csv row %d has %d fields for %d columns", i, len(row), cols)
		}
		for c, f := range schema {
			cell := strings.TrimSpace(row[c])
			switch f.Type {
			case storage.TInt:
				v, err := strconv.ParseInt(cell, 10, 64)
				if err != nil {
					return nil, serr.New(serr.Invalid, "server: csv row %d column %s: %q is not an int", i, f.Name, cell)
				}
				rel.Cols[c].Ints[i] = v
			case storage.TFloat:
				v, err := strconv.ParseFloat(cell, 64)
				if err != nil {
					return nil, serr.New(serr.Invalid, "server: csv row %d column %s: %q is not a number", i, f.Name, cell)
				}
				rel.Cols[c].Floats[i] = v
			case storage.TString:
				rel.Cols[c].Strs[i] = cell
			}
		}
	}
	return rel, nil
}

// sniffCSVType infers a column type from its values: int if every value
// parses as int, else float if every value parses as a number, else string.
// A column with no rows defaults to string.
func sniffCSVType(rows [][]string, c int) storage.Type {
	if len(rows) == 0 {
		return storage.TString
	}
	isInt, isFloat := true, true
	for _, row := range rows {
		if c >= len(row) {
			return storage.TString
		}
		cell := strings.TrimSpace(row[c])
		if isInt {
			if _, err := strconv.ParseInt(cell, 10, 64); err != nil {
				isInt = false
			}
		}
		if !isInt && isFloat {
			if _, err := strconv.ParseFloat(cell, 64); err != nil {
				isFloat = false
				break
			}
		}
	}
	switch {
	case isInt:
		return storage.TInt
	case isFloat:
		return storage.TFloat
	}
	return storage.TString
}

// VerifyPK checks a client-declared primary key against the data before it
// is believed: the column must exist, be int-typed, and hold unique values.
// A declared pk short-circuits the optimizer's uniqueness check and sends
// joins down the one-match pk-fk specialization — a duplicate-keyed "pk"
// would silently drop join matches.
func VerifyPK(rel *storage.Relation, pk string) error {
	ci := rel.Schema.Col(pk)
	switch {
	case ci < 0:
		return serr.New(serr.Invalid, "server: pk column %q is not in the schema", pk)
	case rel.Schema[ci].Type != storage.TInt:
		return serr.New(serr.Invalid, "server: pk column %q must be an int column", pk)
	case !storage.IntColumnUnique(rel, pk):
		return serr.New(serr.Invalid, "server: pk column %q holds duplicate values", pk)
	}
	return nil
}
