// Benchmarks regenerating every table and figure of the paper's evaluation,
// one per experiment (see DESIGN.md's per-experiment index). Each benchmark
// delegates to the same runner cmd/smokebench uses, at small scale with
// output discarded; run cmd/smokebench to see the actual rows.
//
//	go test -bench=. -benchmem
package smoke_test

import (
	"io"
	"testing"

	"smoke/internal/bench"
)

func runExp(b *testing.B, id string) {
	b.Helper()
	cfg := bench.Config{Scale: "small", Reps: 1, W: io.Discard}
	runner, ok := bench.Experiments()[id]
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runner(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure 5: group-by aggregation capture across techniques.
func BenchmarkFig5_GroupByCapture(b *testing.B) { runExp(b, "fig5") }

// §6.1.1 cardinality statistics: Smoke-I vs Smoke-I+TC.
func BenchmarkFig5_CardinalityStats(b *testing.B) { runExp(b, "fig5tc") }

// Figure 6: pk-fk join capture.
func BenchmarkFig6_PKFKJoinCapture(b *testing.B) { runExp(b, "fig6") }

// Figure 7: M:N join capture variants.
func BenchmarkFig7_MNJoinCapture(b *testing.B) { runExp(b, "fig7") }

// Figure 8: TPC-H Q1/Q3/Q10/Q12 capture overhead.
func BenchmarkFig8_TPCHCapture(b *testing.B) { runExp(b, "fig8") }

// Figure 9: backward lineage query latency vs skew.
func BenchmarkFig9_LineageQuery(b *testing.B) { runExp(b, "fig9") }

// Figure 10: data skipping for Q1b consuming queries.
func BenchmarkFig10_DataSkipping(b *testing.B) { runExp(b, "fig10") }

// Figure 11: group-by push-down for Q1c consuming queries.
func BenchmarkFig11_AggPushdownQuery(b *testing.B) { runExp(b, "fig11") }

// Figure 12: capture cost of aggregation push-down.
func BenchmarkFig12_AggPushdownCapture(b *testing.B) { runExp(b, "fig12") }

// Figure 13: crossfilter cumulative latency.
func BenchmarkFig13_CrossfilterCumulative(b *testing.B) { runExp(b, "fig13") }

// Figure 14: crossfilter per-interaction latency by view.
func BenchmarkFig14_CrossfilterPerInteraction(b *testing.B) { runExp(b, "fig14") }

// Figure 15: FD-violation profiling.
func BenchmarkFig15_DataProfiling(b *testing.B) { runExp(b, "fig15") }

// Figure 21 (Appendix G.1): selection capture with selectivity estimates.
func BenchmarkFig21_SelectionCapture(b *testing.B) { runExp(b, "fig21") }

// Figure 22 (Appendix G.2): input-relation pruning.
func BenchmarkFig22_PruningRelations(b *testing.B) { runExp(b, "fig22") }

// Figure 23 (Appendix G.2): selection push-down crossover.
func BenchmarkFig23_SelectionPushdown(b *testing.B) { runExp(b, "fig23") }

// Beyond-paper: morsel-parallel worker scaling (workers = 1/2/4/8) for the
// select and group-by microbenches, with a serial-vs-parallel lineage
// equality gate. cmd/smokebench -exp parscale prints the same table.
func BenchmarkParScale_WorkerScaling(b *testing.B) { runExp(b, "parscale") }
