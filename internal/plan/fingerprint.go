package plan

import (
	"hash/fnv"
	"reflect"
	"strconv"
	"unsafe"

	"smoke/internal/expr"
	"smoke/internal/lineage"
	"smoke/internal/storage"
)

// Fingerprint renders a plan as a canonical one-line string that identifies
// both the plan shape and the data it runs over: two plans with equal
// fingerprints execute identically within one process. It is what the
// server's result cache keys on (crossfilter re-brushing repeats the exact
// same trace plan), so it must distinguish everything execution observes:
//
//   - node structure and every predicate/key/aggregate (expression String
//     forms are canonical);
//   - the identity of each base relation — name, row count, and the
//     *Relation pointer, so re-registering a table under the same name
//     changes every fingerprint that scans it (stale cache entries then
//     simply never match again and age out of the LRU);
//   - trace seeds (long rid lists are FNV-hashed, not inlined) and, for
//     bound traces, the bound capture's pointer identity.
//
// Pointer components make fingerprints process-local: they are stable for
// the lifetime of the process (what a cache needs), not across restarts.
func Fingerprint(n Node) string {
	return string(appendFingerprint(make([]byte, 0, 256), n))
}

// appendFingerprint appends n's fingerprint to b. It renders with strconv
// appends, not fmt: every served request keys the result cache on it.
func appendFingerprint(b []byte, n Node) []byte {
	switch node := n.(type) {
	case Scan:
		b = append(append(b, "scan("...), node.Table...)
		b = strconv.AppendInt(append(b, ",n="...), int64(node.Rel.N), 10)
		b = appendPtr(append(b, ",rel="...), unsafe.Pointer(node.Rel))
		if node.Filter != nil {
			b = expr.Append(append(b, ",filter="...), node.Filter)
		}
		return append(b, ')')
	case Filter:
		b = expr.Append(append(b, "filter("...), node.Pred)
		return append(appendFingerprint(append(b, ','), node.Child), ')')
	case Project:
		b = appendJoined(append(b, "project("...), node.Cols, "|")
		return append(appendFingerprint(append(b, ','), node.Child), ')')
	case Join:
		b = append(append(append(append(b, "join("...), node.LeftKey...), '='), node.RightKey...)
		b = append(append(b, ",qual="...), node.LeftQual...)
		b = strconv.AppendBool(append(b, ",pkfk="...), node.PKFK)
		b = appendJoined(append(b, ",cols="...), node.Cols, "|")
		b = appendFingerprint(append(b, ','), node.Left)
		return append(appendFingerprint(append(b, ','), node.Right), ')')
	case GroupBy:
		b = appendJoined(append(b, "groupby(keys="...), node.Keys, "|")
		b = append(appendAggs(append(b, ",aggs="...), node.Aggs), ',')
		if node.Pushdown != nil {
			b = append(node.Pushdown.append(append(b, "pushdown="...)), ',')
		}
		return append(appendFingerprint(b, node.Child), ')')
	case Union:
		b = appendJoined(append(b, "union(attrs="...), node.Attrs, "|")
		b = appendFingerprint(append(b, ','), node.Left)
		return append(appendFingerprint(append(b, ','), node.Right), ')')
	case OrderBy:
		b = append(b, "orderby("...)
		for i, k := range node.Keys {
			if i > 0 {
				b = append(b, '|')
			}
			b = append(b, k.Col...)
			if k.Desc {
				b = append(b, " desc"...)
			}
		}
		return append(appendFingerprint(append(b, ','), node.Child), ')')
	case Limit:
		b = strconv.AppendInt(append(b, "limit("...), int64(node.N), 10)
		return append(appendFingerprint(append(b, ','), node.Child), ')')
	case SPJA:
		b = append(b, "spja(keys="...)
		for i, k := range node.Keys {
			if i > 0 {
				b = append(b, '|')
			}
			b = append(appendInput(b, k.Input), k.Col...)
		}
		b = append(b, ",aggs="...)
		for i, a := range node.Aggs {
			if i > 0 {
				b = append(b, '|')
			}
			b = appendInput(append(append(b, a.Fn.String()...), '('), a.Input)
			b = append(appendArg(b, a.Arg), ')')
			if a.Filter != nil {
				b = expr.Append(append(b, " if "...), a.Filter)
			}
			b = append(append(b, " as "...), a.Name...)
		}
		b = append(b, ",joins="...)
		for i, j := range node.Joins {
			if i > 0 {
				b = append(b, '|')
			}
			b = append(append(append(appendInput(b, j.LeftInput), j.LeftCol...), '='), j.RightCol...)
		}
		for i, in := range node.Inputs {
			b = append(b, ',')
			if node.Filters[i] != nil {
				b = append(expr.Append(append(b, '['), node.Filters[i]), ']')
			}
			b = appendFingerprint(b, in)
		}
		return append(b, ')')
	case Backward:
		b = appendTrace(append(b, "backward("...), node.Table, node.Rel,
			node.SeedRids, node.SeedPred, node.Filter, node.Distinct, node.Bound)
		if node.Source != nil {
			b = appendFingerprint(append(b, ','), node.Source)
		}
		return append(b, ')')
	case Forward:
		b = appendTrace(append(b, "forward("...), node.Table, node.Rel,
			node.SeedRids, node.SeedPred, node.Filter, node.Distinct, node.Bound)
		if node.Source != nil {
			b = appendFingerprint(append(b, ','), node.Source)
		}
		return append(b, ')')
	case ForwardScatter:
		// The sibling's capture identity: the rewrite reads its forward
		// index, so another sibling is another plan.
		b = append(append(b, "fwscatter(key="...), node.Key...)
		b = appendAggs(append(b, ",aggs="...), node.Aggs)
		b = append(appendPtr(append(b, ",sibling="...), unsafe.Pointer(node.Sibling.Capture)), ',')
		return append(appendFingerprint(b, node.Trace), ')')
	}
	if n == nil {
		return append(b, "?<nil>"...)
	}
	return append(append(b, '?'), reflect.TypeOf(n).String()...)
}

// appendTrace canonicalizes the attributes shared by the two trace nodes.
// Seed rid lists are content-hashed: two traces with the same seeds
// fingerprint equal, and a million-rid seed set does not inline a
// million-entry string.
func appendTrace(b []byte, table string, rel *storage.Relation, rids []lineage.Rid, seedPred, filter expr.Expr,
	distinct bool, bound *BoundTrace) []byte {
	b = append(append(b, table...), ",rel="...)
	b = appendPtr(b, unsafe.Pointer(rel))
	switch {
	case rids != nil:
		b = strconv.AppendInt(append(b, ",seeds=rids:"...), int64(len(rids)), 10)
		b = strconv.AppendUint(append(b, ':'), hashRids(rids), 16)
	case seedPred != nil:
		b = expr.Append(append(b, ",seeds=pred:"...), seedPred)
	default:
		b = append(b, ",seeds=all"...)
	}
	if filter != nil {
		b = expr.Append(append(b, ",filter="...), filter)
	}
	if distinct {
		b = append(b, ",distinct"...)
	}
	if bound != nil {
		b = appendPtr(append(b, ",bound="...), unsafe.Pointer(bound.Capture))
	}
	return b
}

// appendPtr renders a pointer the way fmt's %p does.
func appendPtr(b []byte, p unsafe.Pointer) []byte {
	return strconv.AppendUint(append(b, "0x"...), uint64(uintptr(p)), 16)
}

func appendJoined(b []byte, s []string, sep string) []byte {
	for i, x := range s {
		if i > 0 {
			b = append(b, sep...)
		}
		b = append(b, x...)
	}
	return b
}

// appendInput renders an SPJA input qualifier "in<i>.".
func appendInput(b []byte, i int) []byte {
	return append(strconv.AppendInt(append(b, "in"...), int64(i), 10), '.')
}

func appendArg(b []byte, arg expr.Expr) []byte {
	if arg == nil {
		return append(b, '*')
	}
	return expr.Append(b, arg)
}

// hashRids is the FNV-1a hash of a rid list's little-endian bytes.
func hashRids(rids []lineage.Rid) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, r := range rids {
		buf[0], buf[1], buf[2], buf[3] = byte(r), byte(r>>8), byte(r>>16), byte(r>>24)
		h.Write(buf[:])
	}
	return h.Sum64()
}
