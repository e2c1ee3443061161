package ops

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"smoke/internal/expr"
	"smoke/internal/lineage"
	"smoke/internal/pool"
	"smoke/internal/storage"
)

// Parity tests: every morsel-parallel kernel must produce output and lineage
// element-for-element identical to its one-partition (workers=1) run. The
// group-by also checks against an independent reference, Logic-Idx, in
// internal/baselines.

func parTestRel(n int) *storage.Relation {
	rel := storage.NewRelation("t", storage.Schema{
		{Name: "z", Type: storage.TInt},
		{Name: "part", Type: storage.TInt},
		{Name: "s", Type: storage.TString},
		{Name: "v", Type: storage.TFloat},
	}, n)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		rel.Cols[0].Ints[i] = int64(rng.Intn(17))
		rel.Cols[1].Ints[i] = int64(rng.Intn(4))
		rel.Cols[2].Strs[i] = fmt.Sprintf("g%d", rng.Intn(9))
		rel.Cols[3].Floats[i] = float64(rng.Intn(1000))
	}
	return rel
}

func sameRidArr(t *testing.T, what string, got, want []Rid) {
	t.Helper()
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s differs: got %d entries %v..., want %d entries %v...",
			what, len(got), head(got), len(want), head(want))
	}
}

// sameForward compares two aggregation results' forward lineage in dense
// form, whichever representation each holds (a rid subset's forward array is
// sparse, FW stays nil), so the comparison never passes vacuously: forward
// lineage present on one side only is a mismatch.
func sameForward(t *testing.T, what string, got, want AggResult, n int) {
	t.Helper()
	g, w := got.ForwardIndex(), want.ForwardIndex()
	if (g == nil) != (w == nil) {
		t.Fatalf("%s: forward index nil mismatch (got %v, want %v)", what, g == nil, w == nil)
	}
	if g != nil {
		sameRidArr(t, what, g.DenseForward(n), w.DenseForward(n))
	}
}

func head(r []Rid) []Rid {
	if len(r) > 8 {
		return r[:8]
	}
	return r
}

func sameRidIndex(t *testing.T, what string, got, want *lineage.RidIndex) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: nil mismatch (got %v, want %v)", what, got == nil, want == nil)
	}
	if got == nil {
		return
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d entries, want %d", what, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		sameRidArr(t, fmt.Sprintf("%s[%d]", what, i), got.List(i), want.List(i))
	}
}

func sameRelation(t *testing.T, got, want *storage.Relation) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("output cardinality %d, want %d", got.N, want.N)
	}
	if !reflect.DeepEqual(got.Schema, want.Schema) {
		t.Fatalf("schema %v, want %v", got.Schema, want.Schema)
	}
	for c := range want.Cols {
		if !reflect.DeepEqual(got.Cols[c], want.Cols[c]) {
			t.Fatalf("column %s differs", want.Schema[c].Name)
		}
	}
}

func TestSelectParallelMatchesSerial(t *testing.T) {
	rel := parTestRel(10007)
	pred, err := expr.CompilePred(expr.LtE(expr.C("v"), expr.F(300)), rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := pool.New(4)
	defer p.Close()
	for _, mode := range []CaptureMode{None, Inject} {
		for _, dirs := range []Directions{0, CaptureBackward, CaptureForward, CaptureBoth} {
			serial := Select(rel.N, pred, SelectOpts{Mode: mode, Dirs: dirs})
			for _, workers := range []int{2, 3, 4, 8} {
				par := Select(rel.N, pred, SelectOpts{Mode: mode, Dirs: dirs, Workers: workers, Pool: p})
				tag := fmt.Sprintf("mode=%v dirs=%b w=%d", mode, dirs, workers)
				sameRidArr(t, tag+" OutRids", par.OutRids, serial.OutRids)
				sameRidArr(t, tag+" BW", par.BW, serial.BW)
				if mode != None && dirs.Forward() && len(serial.FW) != rel.N {
					t.Fatalf("%s: serial forward array has %d entries, want %d", tag, len(serial.FW), rel.N)
				}
				sameRidArr(t, tag+" FW", par.FW, serial.FW)
			}
		}
	}
}

// TestSelectParallelZeroMatches pins the nil-vs-empty contract: a predicate
// matching nothing must produce the same OutRids shape as the serial kernel
// (nil means "all rows" to HashAgg, so shape is semantics here).
func TestSelectParallelZeroMatches(t *testing.T) {
	rel := parTestRel(5003)
	pred, err := expr.CompilePred(expr.LtE(expr.C("v"), expr.F(-1)), rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := pool.New(4)
	defer p.Close()
	for _, mode := range []CaptureMode{None, Inject} {
		for _, dirs := range []Directions{0, CaptureBackward, CaptureForward, CaptureBoth} {
			serial := Select(rel.N, pred, SelectOpts{Mode: mode, Dirs: dirs})
			par := Select(rel.N, pred, SelectOpts{Mode: mode, Dirs: dirs, Workers: 4, Pool: p})
			tag := fmt.Sprintf("mode=%v dirs=%b", mode, dirs)
			if len(par.OutRids) != 0 || len(serial.OutRids) != 0 {
				t.Fatalf("%s: zero-selectivity predicate selected rows", tag)
			}
			if (par.OutRids == nil) != (serial.OutRids == nil) {
				t.Fatalf("%s: OutRids nil-ness differs (par=%v serial=%v)",
					tag, par.OutRids == nil, serial.OutRids == nil)
			}
			if (par.FW == nil) != (serial.FW == nil) {
				t.Fatalf("%s: FW nil-ness differs (par=%v serial=%v)", tag, par.FW == nil, serial.FW == nil)
			}
			sameRidArr(t, tag+" FW", par.FW, serial.FW)
		}
	}
}

func TestHashAggParallelMatchesSerial(t *testing.T) {
	rel := parTestRel(10007)
	p := pool.New(4)
	defer p.Close()
	specs := map[string]GroupBySpec{
		"int-key": {Keys: []string{"z"}, Aggs: []AggSpec{
			{Fn: Count, Name: "cnt"},
			{Fn: Sum, Arg: expr.C("v"), Name: "s"},
			{Fn: Min, Arg: expr.C("v"), Name: "mn"},
			{Fn: Max, Arg: expr.C("v"), Name: "mx"},
			{Fn: CountDistinct, Arg: expr.C("part"), Name: "cd"},
		}},
		"str-key":       {Keys: []string{"s"}, Aggs: []AggSpec{{Fn: Avg, Arg: expr.C("v"), Name: "a"}}},
		"composite-key": {Keys: []string{"z", "s"}, Aggs: []AggSpec{{Fn: Count, Name: "c"}}},
	}
	// A filtered rid subset (sorted, distinct), as produced by a selection,
	// and a consuming query's rid bag (unsorted, with repeats, half the
	// relation untouched), which runs with DupRids.
	var sub, bag []Rid
	for i := int32(0); i < int32(rel.N); i++ {
		if i%3 != 0 {
			sub = append(sub, i)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 6000; i++ {
		bag = append(bag, Rid(rng.Intn(rel.N/2)))
	}
	for name, spec := range specs {
		for _, mode := range []CaptureMode{None, Inject, Defer} {
			for _, dirs := range []Directions{CaptureBackward, CaptureForward, CaptureBoth} {
				for _, in := range []struct {
					rids []Rid
					dup  bool
				}{{nil, false}, {sub, false}, {bag, true}} {
					inRids := in.rids
					opts := AggOpts{Mode: mode, Dirs: dirs, DupRids: in.dup}
					serial, err := HashAgg(rel, inRids, spec, opts)
					if err != nil {
						t.Fatal(err)
					}
					if captured := serial.ForwardIndex() != nil; captured != (mode != None && dirs.Forward()) {
						t.Fatalf("%s mode=%v dirs=%b: forward index captured=%v", name, mode, dirs, captured)
					}
					for _, workers := range []int{2, 4, 7} {
						opts.Workers, opts.Pool = workers, p
						par, err := HashAgg(rel, inRids, spec, opts)
						if err != nil {
							t.Fatal(err)
						}
						tag := fmt.Sprintf("%s mode=%v dirs=%b inRids=%d dup=%v w=%d", name, mode, dirs, len(inRids), opts.DupRids, workers)
						sameRelation(t, par.Out, serial.Out)
						if !reflect.DeepEqual(par.GroupCounts, serial.GroupCounts) {
							t.Fatalf("%s: GroupCounts differ", tag)
						}
						sameRidIndex(t, tag+" BW", par.BW, serial.BW)
						sameForward(t, tag+" FW", par, serial, rel.N)
					}
				}
			}
		}
	}
}

func TestHashAggParallelPushdownAndSkipping(t *testing.T) {
	rel := parTestRel(5003)
	p := pool.New(4)
	defer p.Close()
	spec := GroupBySpec{Keys: []string{"z"}, Aggs: []AggSpec{{Fn: Count, Name: "c"}}}
	for _, mode := range []CaptureMode{Inject, Defer} {
		// Selection push-down (§4.2): only matching rids are captured.
		opts := AggOpts{Mode: mode, Dirs: CaptureBackward, PushdownFilter: expr.LtE(expr.C("v"), expr.F(100))}
		serial, err := HashAgg(rel, nil, spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Workers, opts.Pool = 4, p
		par, err := HashAgg(rel, nil, spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameRidIndex(t, fmt.Sprintf("pushdown mode=%v BW", mode), par.BW, serial.BW)
		sameRelation(t, par.Out, serial.Out)

		// Data skipping runs at every partition count: the ordered lists,
		// the dictionary and every code's range are element-identical to
		// one partition's, for single TInt, STRING and composite attributes.
		for _, attrs := range [][]string{{"part"}, {"s"}, {"part", "s"}} {
			opts = AggOpts{Mode: mode, Dirs: CaptureBackward, PartitionBy: attrs}
			serial, err = HashAgg(rel, nil, spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Workers, opts.Pool = 4, p
			par, err = HashAgg(rel, nil, spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameBWPart(t, fmt.Sprintf("PartitionBy %v mode=%v", attrs, mode), par, serial)
		}

		// Observe is order-sensitive, so it runs as one partition at any
		// worker count (its call sequence must match too).
		var calls [2][]Rid
		observed := func(i, workers int) AggResult {
			res, err := HashAgg(rel, nil, spec, AggOpts{Mode: mode, Dirs: CaptureBoth, Workers: workers, Pool: p,
				Observe: func(slot int32, rid Rid) { calls[i] = append(calls[i], slot, rid) }})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		serial, par = observed(0, 1), observed(1, 4)
		sameRidArr(t, fmt.Sprintf("Observe mode=%v calls", mode), calls[1], calls[0])
		sameRidIndex(t, fmt.Sprintf("Observe mode=%v BW", mode), par.BW, serial.BW)
		sameForward(t, fmt.Sprintf("Observe mode=%v FW", mode), par, serial, rel.N)

		// CountsByKey presizes one partition's lists; with several it is
		// ignored and the merged index must still be identical.
		counts := make([]int32, 17)
		for _, z := range rel.Cols[0].Ints {
			if z >= 1 {
				counts[z-1]++
			}
		}
		opts = AggOpts{Mode: mode, Dirs: CaptureBoth, CountsByKey: counts}
		serial, err = HashAgg(rel, nil, spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Workers, opts.Pool = 4, p
		par, err = HashAgg(rel, nil, spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameRelation(t, par.Out, serial.Out)
		sameRidIndex(t, fmt.Sprintf("CountsByKey mode=%v BW", mode), par.BW, serial.BW)
		sameForward(t, fmt.Sprintf("CountsByKey mode=%v FW", mode), par, serial, rel.N)
	}
}

// sameBWPart checks two data-skipping captures element for element: the
// ordered backward lists, the dictionary, and the range of every code.
func sameBWPart(t *testing.T, what string, got, want AggResult) {
	t.Helper()
	if got.BWPart == nil || want.BWPart == nil {
		t.Fatalf("%s: expected partition directories (got %v, want %v)", what, got.BWPart != nil, want.BWPart != nil)
	}
	sameRidIndex(t, what+" BW", got.BW, want.BW)
	gd, wd := got.BWPart.Dict(), want.BWPart.Dict()
	if (gd == nil) != (wd == nil) || gd != nil && gd.Size() != wd.Size() {
		t.Fatalf("%s: dictionaries differ", what)
	}
	codes := []int64{-1, 0, 1, 2, 3, 4}
	if wd != nil {
		codes = codes[:0]
		for c := range int64(wd.Size()) {
			if gd.Value(c) != wd.Value(c) {
				t.Fatalf("%s: code %d is %q, want %q", what, c, gd.Value(c), wd.Value(c))
			}
			codes = append(codes, c)
		}
	}
	for g := range want.BWPart.Len() {
		for _, code := range codes {
			sameRidArr(t, fmt.Sprintf("%s BWPart[%d][%d]", what, g, code),
				got.BWPart.Partition(g, code), want.BWPart.Partition(g, code))
		}
	}
}

func TestPKFKJoinParallelMatchesSerial(t *testing.T) {
	nBuild, nProbe := 500, 20011
	build := storage.NewRelation("pk", storage.Schema{
		{Name: "id", Type: storage.TInt}, {Name: "w", Type: storage.TFloat},
	}, nBuild)
	for i := 0; i < nBuild; i++ {
		build.Cols[0].Ints[i] = int64(i)
		build.Cols[1].Floats[i] = float64(i)
	}
	probe := storage.NewRelation("fk", storage.Schema{
		{Name: "ref", Type: storage.TInt}, {Name: "x", Type: storage.TFloat},
	}, nProbe)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < nProbe; i++ {
		// ~20% of probe rows miss (build side conceptually filtered).
		probe.Cols[0].Ints[i] = int64(rng.Intn(nBuild + nBuild/4))
		probe.Cols[1].Floats[i] = float64(i)
	}
	p := pool.New(4)
	defer p.Close()
	for _, dirs := range []Directions{0, CaptureBackward, CaptureForward, CaptureBoth} {
		for _, mat := range []bool{false, true} {
			serial, err := HashJoinPKFK(build, "id", nil, probe, "ref", nil, JoinOpts{Dirs: dirs, Materialize: mat})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 8} {
				par, err := HashJoinPKFK(build, "id", nil, probe, "ref", nil,
					JoinOpts{Dirs: dirs, Materialize: mat, Workers: workers, Pool: p})
				if err != nil {
					t.Fatal(err)
				}
				tag := fmt.Sprintf("dirs=%b mat=%v w=%d", dirs, mat, workers)
				if par.OutN != serial.OutN {
					t.Fatalf("%s: OutN %d, want %d", tag, par.OutN, serial.OutN)
				}
				sameRidArr(t, tag+" BuildBW", par.BuildBW, serial.BuildBW)
				sameRidArr(t, tag+" ProbeBW", par.ProbeBW, serial.ProbeBW)
				sameRidArr(t, tag+" ProbeFW", par.ProbeFW, serial.ProbeFW)
				sameRidIndex(t, tag+" BuildFW", par.BuildFW, serial.BuildFW)
				if mat {
					sameRelation(t, par.Out, serial.Out)
				}
			}
		}
	}
}
