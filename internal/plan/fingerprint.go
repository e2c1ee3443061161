package plan

import (
	"fmt"
	"hash/fnv"
	"strings"

	"smoke/internal/expr"
	"smoke/internal/lineage"
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
	var b strings.Builder
	fingerprint(&b, n)
	return b.String()
}

func fingerprint(b *strings.Builder, n Node) {
	switch node := n.(type) {
	case Scan:
		fmt.Fprintf(b, "scan(%s,n=%d,rel=%p", node.Table, node.Rel.N, node.Rel)
		if node.Filter != nil {
			fmt.Fprintf(b, ",filter=%s", node.Filter)
		}
		b.WriteByte(')')
	case Filter:
		fmt.Fprintf(b, "filter(%s,", node.Pred)
		fingerprint(b, node.Child)
		b.WriteByte(')')
	case Project:
		fmt.Fprintf(b, "project(%s,", strings.Join(node.Cols, "|"))
		fingerprint(b, node.Child)
		b.WriteByte(')')
	case Join:
		fmt.Fprintf(b, "join(%s=%s,qual=%s,pkfk=%t,cols=%s,",
			node.LeftKey, node.RightKey, node.LeftQual, node.PKFK, strings.Join(node.Cols, "|"))
		fingerprint(b, node.Left)
		b.WriteByte(',')
		fingerprint(b, node.Right)
		b.WriteByte(')')
	case GroupBy:
		fmt.Fprintf(b, "groupby(keys=%s,aggs=%s,", strings.Join(node.Keys, "|"), formatAggs(node.Aggs))
		if node.Pushdown != nil {
			fmt.Fprintf(b, "pushdown=%s,", node.Pushdown)
		}
		fingerprint(b, node.Child)
		b.WriteByte(')')
	case Union:
		fmt.Fprintf(b, "union(attrs=%s,", strings.Join(node.Attrs, "|"))
		fingerprint(b, node.Left)
		b.WriteByte(',')
		fingerprint(b, node.Right)
		b.WriteByte(')')
	case OrderBy:
		b.WriteString("orderby(")
		for i, k := range node.Keys {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(k.Col)
			if k.Desc {
				b.WriteString(" desc")
			}
		}
		b.WriteByte(',')
		fingerprint(b, node.Child)
		b.WriteByte(')')
	case Limit:
		fmt.Fprintf(b, "limit(%d,", node.N)
		fingerprint(b, node.Child)
		b.WriteByte(')')
	case SPJA:
		b.WriteString("spja(keys=")
		for i, k := range node.Keys {
			if i > 0 {
				b.WriteByte('|')
			}
			fmt.Fprintf(b, "in%d.%s", k.Input, k.Col)
		}
		b.WriteString(",aggs=")
		for i, a := range node.Aggs {
			if i > 0 {
				b.WriteByte('|')
			}
			arg := "*"
			if a.Arg != nil {
				arg = a.Arg.String()
			}
			fmt.Fprintf(b, "%s(in%d.%s)", a.Fn, a.Input, arg)
			if a.Filter != nil {
				fmt.Fprintf(b, " if %s", a.Filter)
			}
			fmt.Fprintf(b, " as %s", a.Name)
		}
		b.WriteString(",joins=")
		for i, j := range node.Joins {
			if i > 0 {
				b.WriteByte('|')
			}
			fmt.Fprintf(b, "in%d.%s=%s", j.LeftInput, j.LeftCol, j.RightCol)
		}
		for i, in := range node.Inputs {
			b.WriteByte(',')
			if node.Filters[i] != nil {
				fmt.Fprintf(b, "[%s]", node.Filters[i])
			}
			fingerprint(b, in)
		}
		b.WriteByte(')')
	case Backward:
		fmt.Fprintf(b, "backward(%s,rel=%p,%s", node.Table, node.Rel,
			traceFingerprint(node.SeedRids, node.SeedPred, node.Filter, node.Distinct, node.Bound))
		if node.Source != nil {
			b.WriteByte(',')
			fingerprint(b, node.Source)
		}
		b.WriteByte(')')
	case Forward:
		fmt.Fprintf(b, "forward(%s,rel=%p,%s", node.Table, node.Rel,
			traceFingerprint(node.SeedRids, node.SeedPred, node.Filter, node.Distinct, node.Bound))
		if node.Source != nil {
			b.WriteByte(',')
			fingerprint(b, node.Source)
		}
		b.WriteByte(')')
	default:
		fmt.Fprintf(b, "?%T", n)
	}
}

// traceFingerprint canonicalizes the attributes shared by the two trace
// nodes. Seed rid lists are content-hashed: two traces with the same seeds
// fingerprint equal, and a million-rid seed set does not inline a
// million-entry string.
func traceFingerprint(rids []lineage.Rid, seedPred, filter expr.Expr,
	distinct bool, bound *BoundTrace) string {
	var b strings.Builder
	switch {
	case rids != nil:
		fmt.Fprintf(&b, "seeds=rids:%d:%x", len(rids), hashRids(rids))
	case seedPred != nil:
		fmt.Fprintf(&b, "seeds=pred:%s", seedPred)
	default:
		b.WriteString("seeds=all")
	}
	if filter != nil {
		fmt.Fprintf(&b, ",filter=%s", filter)
	}
	if distinct {
		b.WriteString(",distinct")
	}
	if bound != nil {
		fmt.Fprintf(&b, ",bound=%p", bound.Capture)
	}
	return b.String()
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
