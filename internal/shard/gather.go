package shard

import (
	"math"
	"slices"
	"strconv"

	"smoke/internal/ops"
	"smoke/internal/serr"
	"smoke/internal/storage"
	"smoke/internal/wire"
)

// reply is one shard's answer in a gather, handed back or decoded: its rows
// in typed columns (Rel), which may be the shard's own retained or cached
// relation and so are only ever read, and the shard that sent it, which
// every error about the reply names.
type reply struct {
	shard int
	*wire.Result
}

// mergeGrouped folds per-shard grouped partials into the global grouped
// result, in typed columns. Output slots are the engine's own: keySlots
// resolves the partials' keys through ops.GroupState, scanning parts in
// reply order (shard-major) and rows in each part's own order. Shard slices
// are rid-contiguous, so that discovery order is exactly the order a single
// node's grouped scan assigns groups in (the partition-major merge argument
// of internal/lineage/merge.go), which is what makes the merged result
// element-identical, not merely set-equal — for float, string and composite
// keys too, since identity is the key core's.
//
// Aggregates fold two-phase: COUNT adds in int64; SUM adds, MIN/MAX take
// the fold and AVG reweights each partial mean by its group's partial input
// cardinality (the group_counts the replies carry), all in float64. The
// merged group counts are the sums, so a retained merged result supports
// consuming traces the same way a single node's does. Beside the merged
// result it returns the global slot of every partial row (the partials'
// rows concatenated in reply order).
func mergeGrouped(parts []reply, nKeys int, aggs []ops.AggFn) (*wire.Result, []ops.Rid, error) {
	if len(parts) == 0 {
		return nil, nil, serr.New(serr.Internal, "shard: merge of zero partials")
	}
	if err := checkReplies(parts, nil, true); err != nil {
		return nil, nil, err
	}
	first := parts[0].Rel()
	if len(first.Schema) != nKeys+len(aggs) {
		return nil, nil, serr.New(serr.Internal,
			"shard: shard %d partial has %d columns, analysis expects %d keys + %d aggregates",
			parts[0].shard, len(first.Schema), nKeys, len(aggs))
	}
	for j, fn := range aggs {
		want := storage.TFloat
		switch fn {
		case ops.Count:
			want = storage.TInt
		case ops.Sum, ops.Min, ops.Max, ops.Avg:
		default:
			return nil, nil, serr.New(serr.Unsupported, "shard: aggregate %v does not merge across shards", fn)
		}
		if f := first.Schema[nKeys+j]; f.Type != want {
			return nil, nil, serr.New(serr.Internal, "shard: shard %d partial's %v column %s is %s, want %s",
				parts[0].shard, fn, f.Name, f.Type, want)
		}
	}
	rels := relations(parts)
	keys, slots := keySlots(rels, nKeys)

	// rep[g] is the first row (across the concatenated partials) of group g:
	// slots number groups in first-appearance order, so a row opens a new
	// group exactly when its slot is the next one.
	var rep []ops.Rid
	for row, g := range slots {
		if int(g) == len(rep) {
			rep = append(rep, ops.Rid(row))
		}
	}
	n := len(rep)
	out := storage.NewRelation("merged", first.Schema, n)
	copy(out.Cols, keys.Gather("merged", rep).Cols)

	// at[i] holds the slots of part i's rows.
	at := make([][]ops.Rid, len(parts))
	for i, start := 0, 0; i < len(parts); i++ {
		at[i], start = slots[start:start+rels[i].N], start+rels[i].N
	}
	counts := make([]int64, n)
	for i, p := range parts {
		for r, v := range p.GroupCounts {
			counts[at[i][r]] += v
		}
	}
	for j, fn := range aggs {
		dst := &out.Cols[nKeys+j]
		if fn == ops.Min || fn == ops.Max {
			// The identities of the folds, as aggAcc starts them.
			seed := math.Inf(1)
			if fn == ops.Max {
				seed = math.Inf(-1)
			}
			for g := range dst.Floats {
				dst.Floats[g] = seed
			}
		}
		for i, rel := range rels {
			src, at := &rel.Cols[nKeys+j], at[i]
			switch fn {
			case ops.Count:
				for r, v := range src.Ints {
					dst.Ints[at[r]] += v
				}
			case ops.Sum:
				for r, v := range src.Floats {
					dst.Floats[at[r]] += v
				}
			case ops.Min:
				for r, v := range src.Floats {
					if v < dst.Floats[at[r]] {
						dst.Floats[at[r]] = v
					}
				}
			case ops.Max:
				for r, v := range src.Floats {
					if v > dst.Floats[at[r]] {
						dst.Floats[at[r]] = v
					}
				}
			case ops.Avg:
				gc := parts[i].GroupCounts
				for r, v := range src.Floats {
					dst.Floats[at[r]] += v * float64(gc[r])
				}
			}
		}
		if fn == ops.Avg {
			// The weights are the summed group counts; a group with none
			// keeps its zero sum.
			for g, w := range counts {
				if w != 0 {
					dst.Floats[g] /= float64(w)
				}
			}
		}
	}
	merged := wire.Rows(out)
	merged.GroupCounts, merged.StrategyUsed, merged.Cached = counts, uniformStrategy(parts), allCached(parts)
	return &merged, slots, nil
}

// localRows builds a placement's flat slot map from the slots mergeGrouped
// gave the rows of one reply per shard, in shard order, over n groups.
func localRows(parts []reply, slots []ops.Rid, n int) []int32 {
	local := make([]int32, n*len(parts))
	for i := range local {
		local[i] = -1
	}
	row := 0
	for s, p := range parts {
		for r := 0; r < p.Rel().N; r++ {
			local[int(slots[row])*len(parts)+s] = int32(r)
			row++
		}
	}
	return local
}

// keySlots resolves the group keys — the first nKeys columns — of rels, in
// relation order and then row order, to group slots through the engine's
// group-key core, ops.GroupState: a hashtab for one INT key, its byte key
// format otherwise. A slot numbers its group by first appearance, as a
// single node's grouped scan numbers groups; with no key every row is in
// group 0. It returns the key columns of rels concatenated, and each of
// their rows' slot; rels share one schema.
func keySlots(rels []*storage.Relation, nKeys int) (*storage.Relation, []ops.Rid) {
	schema := make(storage.Schema, nKeys)
	refs := make([]ops.KeyRef, nKeys)
	for c := range schema {
		// Renamed: output column names need not be distinct.
		schema[c] = storage.Field{Name: "k" + strconv.Itoa(c), Type: rels[0].Schema[c].Type}
		refs[c] = ops.KeyRef{Col: schema[c].Name}
	}
	keys := concat(schema, rels)
	slots := make([]ops.Rid, keys.N)
	if nKeys == 0 {
		return keys, slots
	}
	rids := make([]ops.Rid, keys.N)
	for i := range rids {
		rids[i] = ops.Rid(i)
	}
	g, err := ops.NewGroupState([]*storage.Relation{keys}, refs, nil, nil)
	if err != nil {
		panic(err) // the key columns were just built under these names
	}
	g.Fold([][]ops.Rid{rids}, slots)
	return keys, slots
}

// checkReplies is the one check every gathered reply passes before a merge
// reads it, whether the shard handed it back in typed columns or its body
// was decoded: its schema must be want — the other partials' (the first
// reply's) when want is nil — and its group counts must number its rows,
// which grouped partials always carry and other replies may omit.
func checkReplies(parts []reply, want storage.Schema, grouped bool) error {
	if want == nil {
		want = parts[0].Rel().Schema
	}
	for _, p := range parts {
		rel := p.Rel()
		if gc := len(p.GroupCounts); gc != rel.N && (grouped || gc > 0) {
			return serr.New(serr.Internal, "shard: shard %d replied %d rows but %d group counts", p.shard, rel.N, gc)
		}
		if !slices.Equal(rel.Schema, want) {
			return serr.New(serr.Internal, "shard: shard %d answered schema %v, the gather expects %v", p.shard, rel.Schema, want)
		}
	}
	return nil
}

// concatReplies concatenates non-consuming trace replies in order: the
// rows, and the strategy when every reply names the same one.
func concatReplies(parts []reply) (*wire.Result, error) {
	if err := checkReplies(parts, nil, false); err != nil {
		return nil, err
	}
	out := wire.Rows(concat(parts[0].Rel().Schema, relations(parts)))
	out.StrategyUsed, out.Cached = uniformStrategy(parts), allCached(parts)
	return &out, nil
}

// relations returns the replies' typed rows.
func relations(parts []reply) []*storage.Relation {
	rels := make([]*storage.Relation, len(parts))
	for i, p := range parts {
		rels[i] = p.Rel()
	}
	return rels
}

// uniformStrategy is the strategy_used every reply names, or "": it is a
// per-node observability field, surfaced only when every shard agrees.
func uniformStrategy(parts []reply) string {
	s := parts[0].StrategyUsed
	for _, p := range parts[1:] {
		if p.StrategyUsed != s {
			return ""
		}
	}
	return s
}

// allCached reports whether every reply came from its shard's result
// cache: a gathered reply is "cached" only when no shard ran anything.
func allCached(parts []reply) bool {
	for _, p := range parts {
		if !p.Cached {
			return false
		}
	}
	return true
}

// concat returns the rows of rels, one after the other, in a relation of
// the given schema: its columns are the first len(schema) columns of every
// relation, which hold the schema's types.
func concat(schema storage.Schema, rels []*storage.Relation) *storage.Relation {
	out := storage.NewEmpty("concat", schema)
	for _, rel := range rels {
		for c, f := range schema {
			src, dst := &rel.Cols[c], &out.Cols[c]
			switch f.Type {
			case storage.TInt:
				dst.Ints = append(dst.Ints, src.Ints[:rel.N]...)
			case storage.TFloat:
				dst.Floats = append(dst.Floats, src.Floats[:rel.N]...)
			case storage.TString:
				dst.Strs = append(dst.Strs, src.Strs[:rel.N]...)
			}
		}
		out.N += rel.N
	}
	return out
}
