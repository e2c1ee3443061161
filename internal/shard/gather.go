package shard

import (
	"math"
	"strconv"
	"strings"

	"smoke/internal/ops"
	"smoke/internal/serr"
	"smoke/internal/wire"
)

// gatherMap remembers how a merged grouped result relates to its per-shard
// partials, so later interactions against the merged result (bound traces,
// per-shard retained captures) can translate both ways:
//
//   - a global output slot → each shard's local row holding that group's
//     partial (or -1 where the shard saw no input for the group);
//   - a shard's local row → the global slot it folded into;
//   - a group-key identity string → the global slot (forward traces map
//     shard-reported output rows back to merged rows by key).
type gatherMap struct {
	localToGlobal [][]int // [shard][localRow] -> global slot
	globalToLocal [][]int // [globalSlot][shard] -> local row, -1 if absent
	keyToGlobal   map[string]int
}

// aggState accumulates one output aggregate across shards. Counts stay in
// int64 (no float round-trip); AVG folds as a group-count-weighted sum so the
// merged mean equals the global mean regardless of how rows split.
type aggState struct {
	i   int64   // Count
	f   float64 // Sum fold; Min/Max fold; Avg weighted numerator
	w   int64   // Avg denominator (summed partial group counts)
	set bool    // Min/Max seeded
}

// mergeGrouped folds per-shard grouped partials into the global grouped
// result. Output slots are assigned on FIRST APPEARANCE scanning parts in
// shard order and rows in each part's own order — shard slices are
// rid-contiguous, so this discovery order is exactly the order a single
// node's grouped scan assigns groups in (the partition-major merge argument
// of internal/lineage/merge.go), which is what makes the merged result
// element-identical, not merely set-equal.
//
// Aggregates fold two-phase: COUNT and SUM add, MIN/MAX take the fold,
// AVG reweights each partial mean by its group's partial input cardinality
// (the group_counts the shard replies carry). The merged reply carries the
// summed group_counts, so a retained merged result supports consuming traces
// the same way a single node's does.
func mergeGrouped(parts []*wire.Result, nKeys int, aggs []ops.AggFn) (*wire.Result, *gatherMap, error) {
	if len(parts) == 0 {
		return nil, nil, serr.New(serr.Internal, "shard: merge of zero partials")
	}
	first := parts[0]
	if len(first.Types) != nKeys+len(aggs) {
		return nil, nil, serr.New(serr.Internal,
			"shard: partial has %d columns, analysis expects %d keys + %d aggregates",
			len(first.Types), nKeys, len(aggs))
	}
	for s, p := range parts[1:] {
		if len(p.Columns) != len(first.Columns) {
			return nil, nil, serr.New(serr.Internal, "shard: shard %d partial schema differs", s+1)
		}
	}

	gm := &gatherMap{
		localToGlobal: make([][]int, len(parts)),
		keyToGlobal:   map[string]int{},
	}
	var (
		keys        [][]any
		accs        [][]aggState
		groupCounts []int64
	)
	for s, p := range parts {
		if len(p.Rows) > 0 && len(p.GroupCounts) != len(p.Rows) {
			return nil, nil, serr.New(serr.Internal,
				"shard: shard %d partial has %d rows but %d group counts", s, len(p.Rows), len(p.GroupCounts))
		}
		gm.localToGlobal[s] = make([]int, len(p.Rows))
		for r, row := range p.Rows {
			k := encodeKey(row[:nKeys])
			slot, ok := gm.keyToGlobal[k]
			if !ok {
				slot = len(keys)
				gm.keyToGlobal[k] = slot
				keys = append(keys, row[:nKeys])
				accs = append(accs, make([]aggState, len(aggs)))
				groupCounts = append(groupCounts, 0)
				gl := make([]int, len(parts))
				for i := range gl {
					gl[i] = -1
				}
				gm.globalToLocal = append(gm.globalToLocal, gl)
			}
			gm.localToGlobal[s][r] = slot
			gm.globalToLocal[slot][s] = r
			gc := p.GroupCounts[r]
			groupCounts[slot] += gc
			for j, fn := range aggs {
				v := row[nKeys+j]
				acc := &accs[slot][j]
				switch fn {
				case ops.Count:
					iv, ok := v.(int64)
					if !ok {
						return nil, nil, serr.New(serr.Internal, "shard: COUNT partial is %T, want int64", v)
					}
					acc.i += iv
				case ops.Sum:
					fv, ok := v.(float64)
					if !ok {
						return nil, nil, serr.New(serr.Internal, "shard: SUM partial is %T, want float64", v)
					}
					acc.f += fv
				case ops.Min:
					fv, ok := v.(float64)
					if !ok {
						return nil, nil, serr.New(serr.Internal, "shard: MIN partial is %T, want float64", v)
					}
					if !acc.set || fv < acc.f {
						acc.f, acc.set = fv, true
					}
				case ops.Max:
					fv, ok := v.(float64)
					if !ok {
						return nil, nil, serr.New(serr.Internal, "shard: MAX partial is %T, want float64", v)
					}
					if !acc.set || fv > acc.f {
						acc.f, acc.set = fv, true
					}
				case ops.Avg:
					fv, ok := v.(float64)
					if !ok {
						return nil, nil, serr.New(serr.Internal, "shard: AVG partial is %T, want float64", v)
					}
					acc.f += fv * float64(gc)
					acc.w += gc
				default:
					return nil, nil, serr.New(serr.Unsupported, "shard: aggregate %v does not merge across shards", fn)
				}
			}
		}
	}

	out := &wire.Result{
		Columns:     first.Columns,
		Types:       first.Types,
		Rows:        make([][]any, len(keys)),
		N:           len(keys),
		GroupCounts: groupCounts,
	}
	for slot, ks := range keys {
		row := make([]any, 0, nKeys+len(aggs))
		row = append(row, ks...)
		for j, fn := range aggs {
			acc := accs[slot][j]
			switch fn {
			case ops.Count:
				row = append(row, acc.i)
			case ops.Avg:
				if acc.w == 0 {
					row = append(row, 0.0)
				} else {
					row = append(row, acc.f/float64(acc.w))
				}
			default:
				row = append(row, acc.f)
			}
		}
		out.Rows[slot] = row
	}
	// StrategyUsed is a per-node observability field; surface it only when
	// every shard answered the same thing.
	strategy := first.StrategyUsed
	for _, p := range parts[1:] {
		if p.StrategyUsed != strategy {
			strategy = ""
			break
		}
	}
	out.StrategyUsed = strategy
	return out, gm, nil
}

// emptyLike builds a zero-row result with a partial's schema (empty trace
// waves gather into this instead of a nil reply).
func emptyLike(p *wire.Result) *wire.Result {
	return &wire.Result{Columns: p.Columns, Types: p.Types, Rows: [][]any{}, N: 0}
}

// encodeKey builds the group-identity string of a key tuple. Float keys
// encode by exact bit pattern and strings are length-prefixed, so distinct
// tuples can never collide through formatting.
func encodeKey(keys []any) string {
	var b strings.Builder
	for _, k := range keys {
		switch v := k.(type) {
		case int64:
			b.WriteByte('i')
			b.WriteString(strconv.FormatInt(v, 10))
		case float64:
			b.WriteByte('f')
			b.WriteString(strconv.FormatUint(math.Float64bits(v), 16))
		case string:
			b.WriteByte('s')
			b.WriteString(strconv.Itoa(len(v)))
			b.WriteByte(':')
			b.WriteString(v)
		default:
			b.WriteByte('?')
		}
		b.WriteByte('|')
	}
	return b.String()
}
