package shard

import (
	"fmt"
	"testing"

	"smoke/internal/ops"
	"smoke/internal/storage"
	"smoke/internal/wire"
)

// partialBody encodes one shard's grouped partial of a consuming COUNT
// trace: n groups of an INT key starting at group first, with counts.
func partialBody(tb testing.TB, first, n int) []byte {
	rel := storage.NewRelation("p", storage.Schema{{Name: "k", Type: storage.TInt}, {Name: "cnt", Type: storage.TInt}}, n)
	r := wire.Rows(rel)
	for i := 0; i < n; i++ {
		rel.Cols[0].Ints[i] = int64(7 * (first + i))
		rel.Cols[1].Ints[i] = int64(1 + (first+i)%13)
		r.GroupCounts = append(r.GroupCounts, rel.Cols[1].Ints[i])
	}
	body, err := wire.AppendResult(nil, &r)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkGather decodes, merges and re-encodes the two shard partials of
// a consuming COUNT trace at the crossfilter script's median, p75 and p95
// merged trace sizes (the second shard's groups overlap the first's by
// 90%), as the coordinator's gather does for every scattered brush.
func BenchmarkGather(b *testing.B) {
	for _, groups := range []int{170, 500, 1700} {
		bodies := [][]byte{partialBody(b, 0, groups), partialBody(b, groups/10, groups)}
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				parts := make([]reply, len(bodies))
				for s, body := range bodies {
					res, err := wire.DecodeTyped(body)
					if err != nil {
						b.Fatal(err)
					}
					parts[s] = reply{shard: s, Result: res}
				}
				merged, _, err := mergeGrouped(parts, 1, []ops.AggFn{ops.Count})
				if err != nil {
					b.Fatal(err)
				}
				if buf, err = wire.AppendResult(buf[:0], merged); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
