package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"smoke/internal/core"
	"smoke/internal/diskstore"
	"smoke/internal/expr"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/storage"
)

// Spill is the out-of-core experiment (beyond-paper): the same captured
// group-by result traced from the memory tier and from the disk tier. The
// capture is compressed (the encoded chunk store is the persistence format),
// demoted into an mmap-friendly segment, and promoted back; backward and
// forward traces over the mapped chunk bytes are gated element-identical to
// the in-memory path before anything is timed — spilling must change where
// the index lives, never what a trace answers. Rows report the trace sweep
// latency per tier plus the demote (segment write + publish) and promote
// (map + restore) costs. Results land in BENCH_spill.json.
func Spill(cfg Config) error {
	n, bars := 1_000_000, 200
	switch {
	case cfg.paper():
		n, bars = 10_000_000, 200
	case cfg.tiny():
		n, bars = 60_000, 50
	}

	db := core.Open(core.WithWorkers(1))
	defer db.Close()
	rel := consumeData(n, bars, 50)
	db.Register(rel)

	mem, err := db.Query().From("interact", nil).GroupBy("d1").
		Agg(ops.Count, nil, "cnt").Agg(ops.Sum, expr.C("v"), "sv").
		Run(core.CaptureOptions{Mode: ops.Inject, Compress: true})
	if err != nil {
		return err
	}

	// Seeds: every output bar backward; a base-rid stripe forward.
	bwSeeds := make([]lineage.Rid, mem.Out.N)
	for i := range bwSeeds {
		bwSeeds[i] = lineage.Rid(i)
	}
	fwSeeds := make([]lineage.Rid, 0, 256)
	for r := 0; r < n; r += (n / 256) + 1 {
		fwSeeds = append(fwSeeds, lineage.Rid(r))
	}

	dir, err := os.MkdirTemp("", "smoke-spill-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := diskstore.Open(dir)
	if err != nil {
		return err
	}
	defer store.Close()

	// Demote: persist the captured result (its base relation rides along so
	// forward seeds still resolve after promotion).
	toDisk := &diskstore.Result{
		Out: mem.Out, GroupCounts: mem.GroupCounts, Capture: mem.Capture(),
		Bases: map[string]*storage.Relation{"interact": rel},
	}
	demote := cfg.Median(func() {
		if _, perr := store.PutResult("sSpill", "view", toDisk); perr != nil {
			err = perr
		}
	})
	if err != nil {
		return err
	}

	// Promote: map the segment back, validate its chunk bytes (the full
	// restore's check, as the server's promotion runs it) and restore a
	// servable result.
	var disk *core.Result
	promote := cfg.Median(func() {
		ld, perr := store.LoadResult("sSpill", "view")
		if perr == nil {
			perr = ld.Capture.Validate()
		}
		if perr != nil {
			err = perr
			return
		}
		disk = core.RestoreResult(db, ld.Out, ld.GroupCounts, ld.Capture, ld.Bases)
	})
	if err != nil {
		return err
	}

	// ---- Element-identity gate (untimed) ----------------------------------
	// Every backward and forward trace over the mmap-backed capture must be
	// element-identical (order and duplicates included) to the memory tier.
	for _, g := range bwSeeds {
		want, err := mem.Backward("interact", []lineage.Rid{g})
		if err != nil {
			return err
		}
		got, err := disk.Backward("interact", []lineage.Rid{g})
		if err != nil {
			return err
		}
		if err := sameRids(want, got); err != nil {
			return fmt.Errorf("spill: backward trace of bar %d diverges on the mmap path: %w", g, err)
		}
	}
	wantFW, err := mem.Forward("interact", fwSeeds)
	if err != nil {
		return err
	}
	gotFW, err := disk.Forward("interact", fwSeeds)
	if err != nil {
		return err
	}
	if err := sameRids(wantFW, gotFW); err != nil {
		return fmt.Errorf("spill: forward trace diverges on the mmap path: %w", err)
	}

	// ---- Timed trace sweeps ----------------------------------------------
	sweep := func(res *core.Result) (bw, fw time.Duration) {
		bw = cfg.Median(func() {
			for _, g := range bwSeeds {
				if _, terr := res.Backward("interact", []lineage.Rid{g}); terr != nil {
					err = terr
				}
			}
		})
		fw = cfg.Median(func() {
			if _, terr := res.Forward("interact", fwSeeds); terr != nil {
				err = terr
			}
		})
		return bw, fw
	}
	memBW, memFW := sweep(mem)
	if err != nil {
		return err
	}
	diskBW, diskFW := sweep(disk)
	if err != nil {
		return err
	}

	// ---- In-situ small traces (promotion-free serving path) ---------------
	// The server answers small bound traces against a demoted result straight
	// off a segment-backed view (core.RestoreView) without re-retaining it.
	// Gate the view's single-seed traces element-identical, then time the
	// same per-bar sweep the memory row runs — the difference the row carries
	// is the cost basis: seed_trace_bytes (encoded list bytes the sweep
	// touches) against restore_bytes (what a promotion would re-retain).
	ldv, err := store.LoadResult("sSpill", "view")
	if err != nil {
		return err
	}
	view := core.RestoreView(db, ldv.Out, ldv.GroupCounts, ldv.Capture, ldv.Bases)
	var traceBytes, restoreBytes int64
	for _, g := range bwSeeds {
		want, err := mem.Backward("interact", []lineage.Rid{g})
		if err != nil {
			return err
		}
		got, err := view.Backward("interact", []lineage.Rid{g})
		if err != nil {
			return err
		}
		if err := sameRids(want, got); err != nil {
			return fmt.Errorf("spill: in-situ trace of bar %d diverges on the view path: %w", g, err)
		}
		tb, rb, ok := view.TraceCost("interact", []lineage.Rid{g})
		if !ok {
			return fmt.Errorf("spill: no encoded trace cost for bar %d on the view path", g)
		}
		traceBytes += tb
		restoreBytes = rb
	}
	insituBW := cfg.Median(func() {
		for _, g := range bwSeeds {
			if _, terr := view.Backward("interact", []lineage.Rid{g}); terr != nil {
				err = terr
			}
		}
	})
	if err != nil {
		return err
	}

	type row struct {
		Workload  string  `json:"workload"`
		Repr      string  `json:"repr"`
		BwMS      float64 `json:"backward_trace_ms"`
		FwMS      float64 `json:"forward_trace_ms,omitempty"`
		DemoteMS  float64 `json:"demote_ms,omitempty"`
		PromoteMS float64 `json:"promote_ms,omitempty"`
		// seed_trace_bytes / restore_bytes is the in-situ routing basis: the
		// _bytes suffix marks them as measurements for the gate, not identity.
		TraceBytes   int64 `json:"seed_trace_bytes,omitempty"`
		RestoreBytes int64 `json:"restore_bytes,omitempty"`
	}
	report := struct {
		Tuples  int    `json:"tuples"`
		Bars    int    `json:"bars"`
		Cores   int    `json:"cores"`
		Rows    []row  `json:"rows"`
		Created string `json:"created"`
	}{Tuples: n, Bars: bars, Cores: runtime.NumCPU(), Created: time.Now().Format(time.RFC3339)}
	report.Rows = append(report.Rows,
		row{Workload: "groupby", Repr: "memory", BwMS: ms(memBW), FwMS: ms(memFW)},
		row{Workload: "groupby", Repr: "mmap", BwMS: ms(diskBW), FwMS: ms(diskFW),
			DemoteMS: ms(demote), PromoteMS: ms(promote)},
		row{Workload: "smalltrace", Repr: "mmap-insitu", BwMS: ms(insituBW),
			TraceBytes: traceBytes, RestoreBytes: restoreBytes},
	)

	cfg.printf("Figure T (beyond-paper): out-of-core lineage (%d tuples, %d bars): trace sweeps per tier (ms)\n", n, bars)
	cfg.printf("%-12s %-22s %-22s %-12s %-12s\n", "repr", "backward-sweep", "forward-sweep", "demote", "promote")
	cfg.printf("%-12s %-22.2f %-22.2f %-12s %-12s\n", "memory", ms(memBW), ms(memFW), "-", "-")
	cfg.printf("%-12s %-22.2f %-22.2f %-12.2f %-12.2f\n", "mmap", ms(diskBW), ms(diskFW), ms(demote), ms(promote))
	cfg.printf("%-12s %-22.2f (in-situ: %d seed bytes vs %d restore bytes)\n",
		"mmap-insitu", ms(insituBW), traceBytes, restoreBytes)

	if cfg.JSONDir != "" {
		path := filepath.Join(cfg.JSONDir, "BENCH_spill.json")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&report); err != nil {
			return err
		}
		cfg.printf("wrote %s\n", path)
	}
	return nil
}

// sameRids asserts element-identity, order and duplicates included.
func sameRids(want, got []lineage.Rid) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d rids, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("element %d = %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}
