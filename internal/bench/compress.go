package bench

import (
	"fmt"
	"runtime"

	"smoke/internal/datagen"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/pool"
	"smoke/internal/storage"
)

// Compress is the compressed-lineage experiment (beyond-paper; the
// representation study behind CaptureOptions.Compress). Two group-by
// workloads bracket the capture shapes:
//
//   - zipf:  skewed group sizes (Zipf θ=1), rids of a group scattered across
//     the whole scan — the delta/RLE regime.
//   - dense: a range-scan layout (group key = rid / band), every group's rid
//     list one contiguous run — the best case for run encodings.
//
// For each workload it captures raw and compressed (Inject, both
// directions), gates on element-identical lineage — including a
// morsel-parallel compressed run, which exercises the encoded-concat merge —
// and then reports bytes-per-rid for three representations: raw, compressed,
// and compressed-merged (the morsel-parallel capture, whose lists are one
// chunk per contributing partition — the shape a served capture has). It
// also times the compressed capture itself at workers ∈ {1, 2, 4, 8} (the
// encoded-concat merge scaling). Encoded-vs-raw trace cost is the claims
// benchmark's (encoded_vs_raw_ratio, lineage.backward_insitu_ms).
func Compress(cfg Config) error {
	n := 400_000
	groups := 1_000
	switch {
	case cfg.paper():
		n = 10_000_000
		groups = 10_000
	case cfg.tiny():
		n = 50_000
		groups = 200
	}
	workerCounts := []int{1, 2, 4, 8}
	workers := 4
	p := pool.New(workerCounts[len(workerCounts)-1])
	defer p.Close()

	cfg.printf("Figure Z (beyond-paper): compressed lineage indexes, %d tuples, %d groups, %d cores\n", n, groups, runtime.NumCPU())
	cfg.printf("%-10s %-18s %14s %14s\n", "workload", "repr", "bytes/rid", "index bytes")

	aggSpec := microAggSpec()
	for _, wl := range []struct {
		name string
		rel  *storage.Relation
	}{
		{"zipf", datagen.Zipf("zipf", 1.0, n, groups, 42)},
		{"dense", denseRel(n, groups)},
	} {
		raw, err := ops.HashAgg(wl.rel, nil, aggSpec, ops.AggOpts{Mode: ops.Inject, Dirs: ops.CaptureBoth})
		if err != nil {
			return err
		}
		comp, err := ops.HashAgg(wl.rel, nil, aggSpec, ops.AggOpts{Mode: ops.Inject, Dirs: ops.CaptureBoth, Compress: true})
		if err != nil {
			return err
		}
		parComp, err := ops.HashAgg(wl.rel, nil, aggSpec, ops.AggOpts{
			Mode: ops.Inject, Dirs: ops.CaptureBoth, Compress: true, Workers: workers, Pool: p,
		})
		if err != nil {
			return err
		}

		// Lineage-equality gate: serial-compressed and parallel-compressed
		// (the encoded-concat merge path) must decode element-identically to
		// the raw capture. Measuring a lossy representation would be meaningless.
		for what, c := range map[string]*ops.AggResult{"serial": &comp, "parallel": &parComp} {
			if err := compressGate(wl.name+"/"+what, &raw, c); err != nil {
				return err
			}
		}

		card := raw.BW.Cardinality()
		for _, m := range []struct {
			repr string
			res  *ops.AggResult
		}{{"raw", &raw}, {"compressed", &comp}, {"compressed-merged", &parComp}} {
			bytes := m.res.BackwardIndex().SizeBytes() + m.res.ForwardIndex().SizeBytes()
			perRid := float64(bytes) / float64(card+n) // bw rids + fw entries
			cfg.printf("%-10s %-18s %14.2f %14d\n", wl.name, m.repr, perRid, bytes)
		}

		// Compressed-capture scaling: the whole capture (execute + encode +
		// encoded-concat merge) at each worker count.
		cfg.printf("%-10s %-18s", wl.name, "capture(ms)")
		for _, w := range workerCounts {
			w := w
			d := cfg.Median(func() {
				_, err := ops.HashAgg(wl.rel, nil, aggSpec, ops.AggOpts{
					Mode: ops.Inject, Dirs: ops.CaptureBoth, Compress: true, Workers: w, Pool: p,
				})
				must(err)
			})
			cfg.printf(" w%d=%-11.1f", w, ms(d))
		}
		cfg.printf("\n")
	}
	return nil
}

// denseRel builds the range-scan workload: key g = rid / band, so each
// group's backward rid list is one contiguous ascending run.
func denseRel(n, groups int) *storage.Relation {
	rel := storage.NewRelation("dense", datagen.ZipfSchema(), n)
	band := n / groups
	if band == 0 {
		band = 1
	}
	ids := rel.Cols[rel.Schema.MustCol("id")].Ints
	zs := rel.Cols[rel.Schema.MustCol("z")].Ints
	vs := rel.Cols[rel.Schema.MustCol("v")].Floats
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		zs[i] = int64(i / band)
		vs[i] = float64(i%97) + 0.5
	}
	return rel
}

// compressGate asserts a compressed capture decodes element-identically to
// the raw one, in both directions.
func compressGate(what string, raw, comp *ops.AggResult) error {
	if comp.BWEnc == nil {
		return fmt.Errorf("compress: %s: backward index was not encoded", what)
	}
	if comp.BWEnc.Cardinality() != raw.BW.Cardinality() {
		return fmt.Errorf("compress: %s: cardinality %d, want %d", what, comp.BWEnc.Cardinality(), raw.BW.Cardinality())
	}
	if comp.BWEnc.Len() != raw.BW.Len() {
		return fmt.Errorf("compress: %s: %d groups, want %d", what, comp.BWEnc.Len(), raw.BW.Len())
	}
	var buf []lineage.Rid
	for g := 0; g < raw.BW.Len(); g++ {
		buf = comp.BWEnc.AppendList(g, buf[:0])
		want := raw.BW.List(g)
		if len(buf) != len(want) {
			return fmt.Errorf("compress: %s: backward lineage of group %d differs from raw", what, g)
		}
		for i := range want {
			if buf[i] != want[i] {
				return fmt.Errorf("compress: %s: backward lineage of group %d differs from raw", what, g)
			}
		}
	}
	fwIx := comp.ForwardIndex()
	for rid := range raw.FW {
		var want []lineage.Rid
		if raw.FW[rid] >= 0 {
			want = []lineage.Rid{raw.FW[rid]}
		}
		got := fwIx.TraceOne(lineage.Rid(rid), buf[:0])
		buf = got
		if len(got) != len(want) || (len(want) == 1 && got[0] != want[0]) {
			return fmt.Errorf("compress: %s: forward lineage of rid %d differs from raw", what, rid)
		}
	}
	return nil
}
