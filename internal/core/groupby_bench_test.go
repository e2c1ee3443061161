package core_test

import (
	"fmt"
	"testing"

	"smoke/internal/core"
	"smoke/internal/datagen"
	"smoke/internal/ops"
	"smoke/internal/sql"
)

// BenchmarkSingleTableGroupBy drives the single-table group-by end to end,
// from SQL text through sql.Compile and Query.Run, over 300k rows in 1,000
// Zipf groups: capture off and Inject, at one and two partitions.
func BenchmarkSingleTableGroupBy(b *testing.B) {
	rel := datagen.Zipf("zipf", 1.0, 300_000, 1_000, 1)
	for _, workers := range []int{1, 2} {
		db := core.Open(core.WithWorkers(workers))
		db.Register(rel)
		for _, mode := range []ops.CaptureMode{ops.None, ops.Inject} {
			b.Run(fmt.Sprintf("mode=%v/workers=%d", mode, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					q, err := sql.Compile(db, "SELECT z, COUNT(*), SUM(v) FROM zipf GROUP BY z")
					if err != nil {
						b.Fatal(err)
					}
					res, err := q.Run(core.CaptureOptions{Mode: mode})
					if err != nil {
						b.Fatal(err)
					}
					if res.Out.N != 1_000 {
						b.Fatalf("%d groups, want 1000", res.Out.N)
					}
				}
			})
		}
		db.Close()
	}
}
