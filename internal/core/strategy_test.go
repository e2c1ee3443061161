package core_test

import (
	"reflect"
	"testing"

	"smoke/internal/core"
	"smoke/internal/datagen"
	"smoke/internal/expr"
	"smoke/internal/ops"
	"smoke/internal/serr"
)

func TestParseStrategy(t *testing.T) {
	for in, want := range map[string]core.Strategy{
		"":       core.StrategyDefault,
		"eager":  core.StrategyEager,
		"lazy":   core.StrategyLazy,
		"hybrid": core.StrategyHybrid,
		"auto":   core.StrategyAuto,
		"EAGER":  core.StrategyEager,
	} {
		got, err := core.ParseStrategy(in)
		if err != nil || got != want {
			t.Fatalf("ParseStrategy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := core.ParseStrategy("sometimes"); serr.KindOf(err) != serr.Invalid {
		t.Fatalf("ParseStrategy(unknown) = %v, want Invalid", err)
	}
}

// Conflicting strategy/capture combinations must fail structured-Invalid at
// Run, not silently override each other.
func TestStrategyConflictsAreInvalid(t *testing.T) {
	db, _ := openZipf(t)
	for name, opts := range map[string]core.CaptureOptions{
		"eager without capture": {Strategy: core.StrategyEager, Mode: ops.None},
		"lazy with inject":      {Strategy: core.StrategyLazy, Mode: ops.Inject},
		"lazy with defer":       {Strategy: core.StrategyLazy, Mode: ops.Defer},
		"lazy with dirs":        {Strategy: core.StrategyLazy, Dirs: ops.CaptureBackward},
		"hybrid with dirs":      {Strategy: core.StrategyHybrid, Mode: ops.Inject, Dirs: ops.CaptureForward},
		"hybrid with tabledirs": {Strategy: core.StrategyHybrid, Mode: ops.Inject,
			TableDirs: map[string]ops.Directions{"zipf": ops.CaptureBackward}},
		// Push-downs shape a capture: without one they would be dropped.
		"pushdown without capture":      {PushdownFilter: expr.LtE(expr.C("v"), expr.F(30))},
		"auto pushdown without capture": {Strategy: core.StrategyAuto, PartitionBy: []string{"id"}},
	} {
		_, err := microQuery(db).Run(opts)
		if serr.KindOf(err) != serr.Invalid {
			t.Fatalf("%s: err = %v, want Invalid", name, err)
		}
	}
}

// Auto never resolves a push-down request to lazy: the push-downs shape an
// eager capture, and a lazy result would silently drop them.
func TestAutoStrategyPinsEagerForPushdowns(t *testing.T) {
	db, _ := openZipf(t)
	pass := expr.LtE(expr.C("v"), expr.F(30))
	res, err := microQuery(db).Run(core.CaptureOptions{Strategy: core.StrategyAuto, Mode: ops.Inject,
		PushdownFilter: pass, PartitionBy: []string{"z"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Strategy(); got != core.StrategyEager {
		t.Fatalf("auto with push-downs = %v, want eager", got)
	}
	rel, _ := db.Table("zipf")
	for o := 0; o < res.Out.N; o++ {
		rids, err := res.BackwardPartition(core.Rid(o), []any{res.Out.Int(0, o)})
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for r := 0; r < rel.N; r++ {
			if rel.Int(1, r) == res.Out.Int(0, o) && rel.Float(2, r) < 30 {
				want++
			}
		}
		if len(rids) != want {
			t.Fatalf("group %d: %d partition rids, want %d passing the push-down", o, len(rids), want)
		}
	}
}

// Mode None without a strategy now yields a lazy result (the pre-strategy
// contract made traces fail); its traces are element-identical to eager.
func TestModeNoneDefaultsToLazy(t *testing.T) {
	db, _ := openZipf(t)
	eager, err := microQuery(db).Run(core.CaptureOptions{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := microQuery(db).Run(core.CaptureOptions{Mode: ops.None})
	if err != nil {
		t.Fatal(err)
	}
	if got := lazy.Strategy(); got != core.StrategyLazy {
		t.Fatalf("Strategy() = %v, want lazy", got)
	}
	for o := 0; o < eager.Out.N; o++ {
		want, err := eager.Backward("zipf", []core.Rid{core.Rid(o)})
		if err != nil {
			t.Fatal(err)
		}
		got, err := lazy.Backward("zipf", []core.Rid{core.Rid(o)})
		if err != nil {
			t.Fatalf("lazy backward of output %d: %v", o, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("lazy backward of output %d diverged", o)
		}
	}
	fw, err := lazy.Forward("zipf", []core.Rid{3})
	if err != nil {
		t.Fatal(err)
	}
	wantFw, _ := eager.Forward("zipf", []core.Rid{3})
	if !reflect.DeepEqual(wantFw, fw) {
		t.Fatalf("lazy forward = %v, want %v", fw, wantFw)
	}
}

// Auto picks lazy for trace-sparse single-table plans, hybrid for
// multi-input plans, and eager once explicit directions or a trace-heavy
// history say the indexes will be used.
func TestAutoStrategyResolution(t *testing.T) {
	db := core.Open()
	defer db.Close()
	db.Register(datagen.Zipf("zipf", 1.0, 500, 8, 1))
	db.Register(datagen.Gids("gids", 8, 1))

	single, err := db.Query().From("zipf", nil).GroupBy("z").Agg(ops.Count, nil, "cnt").
		Run(core.CaptureOptions{Strategy: core.StrategyAuto})
	if err != nil {
		t.Fatal(err)
	}
	if got := single.Strategy(); got != core.StrategyLazy {
		t.Fatalf("auto on fresh single-table plan = %v, want lazy", got)
	}

	join, err := db.Query().From("gids", nil).Join("zipf", nil, "gids", "id", "z").
		GroupBy("payload").Agg(ops.Sum, expr.C("v"), "sv").
		Run(core.CaptureOptions{Strategy: core.StrategyAuto})
	if err != nil {
		t.Fatal(err)
	}
	if got := join.Strategy(); got != core.StrategyHybrid {
		t.Fatalf("auto on join plan = %v, want hybrid", got)
	}

	dirs, err := db.Query().From("zipf", nil).GroupBy("z").Agg(ops.Count, nil, "cnt").
		Run(core.CaptureOptions{Strategy: core.StrategyAuto, Dirs: ops.CaptureBackward})
	if err != nil {
		t.Fatal(err)
	}
	if got := dirs.Strategy(); got != core.StrategyEager {
		t.Fatalf("auto with explicit Dirs = %v, want eager", got)
	}

	// Trace enough to tip the observed rate past 1/10th of runs: Auto turns
	// eager even for single-table shapes.
	if _, err := single.Backward("zipf", []core.Rid{0}); err != nil {
		t.Fatal(err)
	}
	runs, traces := db.TraceRate()
	if runs == 0 || traces == 0 {
		t.Fatalf("TraceRate() = (%d, %d), want both counted", runs, traces)
	}
	heavy, err := db.Query().From("zipf", nil).GroupBy("z").Agg(ops.Count, nil, "cnt").
		Run(core.CaptureOptions{Strategy: core.StrategyAuto})
	if err != nil {
		t.Fatal(err)
	}
	if got := heavy.Strategy(); got != core.StrategyEager {
		t.Fatalf("auto under trace-heavy history = %v, want eager", got)
	}
}

// Hybrid splits by direction: backward reads the captured index, forward
// re-derives — both element-identical to a full eager capture.
func TestHybridSplitsByDirection(t *testing.T) {
	db, _ := openZipf(t)
	eager, err := microQuery(db).Run(core.CaptureOptions{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := microQuery(db).Run(core.CaptureOptions{Strategy: core.StrategyHybrid, Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	if got := hybrid.TraceStrategy("zipf", core.TraceBackward); got != core.StrategyEager {
		t.Fatalf("hybrid backward path = %v, want eager", got)
	}
	if got := hybrid.TraceStrategy("zipf", core.TraceForward); got != core.StrategyLazy {
		t.Fatalf("hybrid forward path = %v, want lazy", got)
	}
	want, _ := eager.Backward("zipf", []core.Rid{1})
	got, err := hybrid.Backward("zipf", []core.Rid{1})
	if err != nil || !reflect.DeepEqual(want, got) {
		t.Fatalf("hybrid backward = %v (%v), want %v", got, err, want)
	}
	wantFw, _ := eager.Forward("zipf", []core.Rid{7})
	gotFw, err := hybrid.Forward("zipf", []core.Rid{7})
	if err != nil || !reflect.DeepEqual(wantFw, gotFw) {
		t.Fatalf("hybrid forward = %v (%v), want %v", gotFw, err, wantFw)
	}
}

// TraceWith forces a per-trace path: lazy works on any plan-carrying result,
// eager demands the captured index, hybrid is not a trace path.
func TestTraceWithForcedPaths(t *testing.T) {
	db, _ := openZipf(t)
	eager, err := microQuery(db).Run(core.CaptureOptions{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := microQuery(db).Run(core.CaptureOptions{Strategy: core.StrategyLazy})
	if err != nil {
		t.Fatal(err)
	}

	// Forced lazy on an eager result matches the index answer.
	want, _ := eager.Backward("zipf", []core.Rid{2})
	res, err := db.Query().
		Trace(eager, core.TraceBackward, "zipf", core.Rids(2)).
		TraceWith(core.StrategyLazy).
		Run(core.CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Out.N != len(want) {
		t.Fatalf("forced-lazy trace rows = %d, want %d", res.Out.N, len(want))
	}

	// Forced eager on a capture-free result is a structured Invalid.
	_, err = db.Query().
		Trace(lazy, core.TraceBackward, "zipf", core.Rids(0)).
		TraceWith(core.StrategyEager).
		Run(core.CaptureOptions{})
	if serr.KindOf(err) != serr.Invalid {
		t.Fatalf("forced eager on lazy result: err = %v, want Invalid", err)
	}

	// Hybrid is a capture-time split, not a per-trace path.
	_, err = db.Query().
		Trace(eager, core.TraceBackward, "zipf", core.Rids(0)).
		TraceWith(core.StrategyHybrid).
		Run(core.CaptureOptions{})
	if serr.KindOf(err) != serr.Invalid {
		t.Fatalf("forced hybrid: err = %v, want Invalid", err)
	}
}

// The unified Result.Trace entry point agrees with the deprecated wrappers.
func TestUnifiedSeedMatchesWrappers(t *testing.T) {
	db, _ := openZipf(t)
	res, err := microQuery(db).Run(core.CaptureOptions{Mode: ops.Inject})
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.Backward("zipf", []core.Rid{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Trace(core.TraceBackward, "zipf", core.Rids(0, 3))
	if err != nil || !reflect.DeepEqual(want, got) {
		t.Fatalf("Trace(Rids) = %v (%v), want %v", got, err, want)
	}
	pred := expr.GeE(expr.C("cnt"), expr.I(1))
	gotP, err := res.Trace(core.TraceBackward, "zipf", core.Where(pred))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotP) == 0 {
		t.Fatal("predicate seed selected nothing")
	}
}
