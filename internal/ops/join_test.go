package ops

import (
	"reflect"
	"sort"
	"testing"

	"smoke/internal/datagen"
	"smoke/internal/storage"
)

// naiveJoin computes reference (left rid, right rid) pairs for an equi-join.
func naiveJoin(left *storage.Relation, lkey string, right *storage.Relation, rkey string) [][2]Rid {
	lc := left.Cols[left.Schema.MustCol(lkey)].Ints
	rc := right.Cols[right.Schema.MustCol(rkey)].Ints
	var out [][2]Rid
	for i := int32(0); i < int32(left.N); i++ {
		for j := int32(0); j < int32(right.N); j++ {
			if lc[i] == rc[j] {
				out = append(out, [2]Rid{i, j})
			}
		}
	}
	return out
}

func sortPairs(p [][2]Rid) {
	sort.Slice(p, func(i, j int) bool {
		if p[i][0] != p[j][0] {
			return p[i][0] < p[j][0]
		}
		return p[i][1] < p[j][1]
	})
}

func pkfkFixture(t *testing.T) (*storage.Relation, *storage.Relation) {
	t.Helper()
	gids := datagen.Gids("gids", 50, 1)
	zipf := datagen.Zipf("zipf", 1.0, 2000, 50, 2)
	return gids, zipf
}

func TestPKFKJoinMatchesNaive(t *testing.T) {
	gids, zipf := pkfkFixture(t)
	res, err := HashJoinPKFK(gids, "id", nil, zipf, "z", nil, JoinOpts{Dirs: CaptureBoth})
	if err != nil {
		t.Fatal(err)
	}
	want := naiveJoin(gids, "id", zipf, "z")
	if res.OutN != len(want) {
		t.Fatalf("OutN = %d, want %d", res.OutN, len(want))
	}
	got := make([][2]Rid, res.OutN)
	for o := 0; o < res.OutN; o++ {
		got[o] = [2]Rid{res.BuildBW[o], res.ProbeBW[o]}
	}
	sortPairs(got)
	sortPairs(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("pk-fk join pairs differ from naive join")
	}
}

func TestPKFKJoinForwardIndexes(t *testing.T) {
	gids, zipf := pkfkFixture(t)
	res, err := HashJoinPKFK(gids, "id", nil, zipf, "z", nil, JoinOpts{Dirs: CaptureBoth})
	if err != nil {
		t.Fatal(err)
	}
	// Probe side: fk row -> exactly the output that consumed it.
	for prid := int32(0); prid < int32(zipf.N); prid++ {
		o := res.ProbeFW[prid]
		if o < 0 {
			t.Fatalf("probe rid %d has no output (referential integrity should hold)", prid)
		}
		if res.ProbeBW[o] != prid {
			t.Fatalf("probe fw/bw mismatch at rid %d", prid)
		}
	}
	// Build side: every output listed under its build rid.
	for brid := 0; brid < gids.N; brid++ {
		for _, o := range res.BuildFW.List(brid) {
			if res.BuildBW[o] != Rid(brid) {
				t.Fatalf("build fw/bw mismatch at rid %d", brid)
			}
		}
	}
	if res.BuildFW.Cardinality() != res.OutN {
		t.Fatalf("build forward cardinality %d, want %d", res.BuildFW.Cardinality(), res.OutN)
	}
}

func TestPKFKJoinTrueCardinalities(t *testing.T) {
	gids, zipf := pkfkFixture(t)
	counts := datagen.GroupCounts(zipf, "z", 50)
	res, err := HashJoinPKFK(gids, "id", nil, zipf, "z", nil,
		JoinOpts{Dirs: CaptureBoth, CountsByBuildKey: counts})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := HashJoinPKFK(gids, "id", nil, zipf, "z", nil, JoinOpts{Dirs: CaptureBoth})
	if err != nil {
		t.Fatal(err)
	}
	if res.OutN != plain.OutN {
		t.Fatal("TC variant changed output cardinality")
	}
	for brid := 0; brid < gids.N; brid++ {
		if !reflect.DeepEqual(res.BuildFW.List(brid), plain.BuildFW.List(brid)) {
			t.Fatalf("TC variant changed forward lineage at build rid %d", brid)
		}
		l := res.BuildFW.List(brid)
		if cap(l) != len(l) {
			t.Fatalf("TC should preallocate exactly: build rid %d cap %d len %d", brid, cap(l), len(l))
		}
	}
}

func TestPKFKJoinWithRidSubsets(t *testing.T) {
	gids, zipf := pkfkFixture(t)
	// Filtered build side: only ids 1..10 survive.
	var buildRids []Rid
	for i := 0; i < gids.N; i++ {
		if gids.Int(0, i) <= 10 {
			buildRids = append(buildRids, Rid(i))
		}
	}
	res, err := HashJoinPKFK(gids, "id", buildRids, zipf, "z", nil, JoinOpts{Dirs: CaptureBoth})
	if err != nil {
		t.Fatal(err)
	}
	zc := zipf.Schema.MustCol("z")
	want := 0
	for i := 0; i < zipf.N; i++ {
		if zipf.Int(zc, i) <= 10 {
			want++
		}
	}
	if res.OutN != want {
		t.Fatalf("filtered join OutN = %d, want %d", res.OutN, want)
	}
	// Probe rows with z > 10 must have no forward entry.
	for prid := int32(0); prid < int32(zipf.N); prid++ {
		matched := zipf.Int(zc, int(prid)) <= 10
		if (res.ProbeFW[prid] >= 0) != matched {
			t.Fatalf("probe fw at rid %d inconsistent with filter", prid)
		}
	}
}

func TestPKFKJoinMaterialize(t *testing.T) {
	gids, zipf := pkfkFixture(t)
	res, err := HashJoinPKFK(gids, "id", nil, zipf, "z", nil, JoinOpts{Dirs: CaptureBoth, Materialize: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Out == nil || res.Out.N != res.OutN {
		t.Fatal("materialized output missing or wrong size")
	}
	// Join columns must agree on every output row; colliding "id" column
	// names get relation prefixes.
	idc := res.Out.Schema.MustCol("gids.id")
	zcol := res.Out.Schema.MustCol("z")
	for i := 0; i < res.Out.N; i++ {
		if res.Out.Int(idc, i) != res.Out.Int(zcol, i) {
			t.Fatalf("row %d: join keys disagree", i)
		}
	}
}

func TestPKFKJoinMaterializeWithoutCapture(t *testing.T) {
	gids, zipf := pkfkFixture(t)
	res, err := HashJoinPKFK(gids, "id", nil, zipf, "z", nil, JoinOpts{Materialize: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Out == nil || res.Out.N != zipf.N {
		t.Fatal("baseline materialization wrong")
	}
	if res.BuildBW != nil || res.ProbeFW != nil {
		t.Fatal("baseline must not capture")
	}
}

func mnFixture(t *testing.T) (*storage.Relation, *storage.Relation) {
	t.Helper()
	left := datagen.Zipf("zipf1", 1.0, 300, 10, 3)
	right := datagen.Zipf("zipf2", 1.0, 800, 100, 4)
	return left, right
}

func mnLineageFromResult(res MNResult) [][2]Rid {
	out := make([][2]Rid, res.OutN)
	for o := 0; o < res.OutN; o++ {
		out[o] = [2]Rid{res.LeftBW[o], res.RightBW[o]}
	}
	return out
}

func TestMNJoinVariantsMatchNaive(t *testing.T) {
	left, right := mnFixture(t)
	want := naiveJoin(left, "z", right, "z")
	sortPairs(want)
	for _, variant := range []MNVariant{MNInject, MNDeferForward, MNDefer} {
		res, err := HashJoinMN(left, "z", right, "z", variant, JoinOpts{Dirs: CaptureBoth})
		if err != nil {
			t.Fatal(err)
		}
		if res.OutN != len(want) {
			t.Fatalf("variant %d: OutN = %d, want %d", variant, res.OutN, len(want))
		}
		got := mnLineageFromResult(res)
		sortPairs(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("variant %d: join pairs differ from naive", variant)
		}
	}
}

func TestMNJoinVariantsProduceIdenticalIndexes(t *testing.T) {
	left, right := mnFixture(t)
	inj, _ := HashJoinMN(left, "z", right, "z", MNInject, JoinOpts{Dirs: CaptureBoth})
	dfw, _ := HashJoinMN(left, "z", right, "z", MNDeferForward, JoinOpts{Dirs: CaptureBoth})
	def, _ := HashJoinMN(left, "z", right, "z", MNDefer, JoinOpts{Dirs: CaptureBoth})

	if !reflect.DeepEqual(inj.LeftBW, dfw.LeftBW) || !reflect.DeepEqual(inj.LeftBW, def.LeftBW) {
		t.Fatal("left backward arrays differ across variants")
	}
	if !reflect.DeepEqual(inj.RightBW, dfw.RightBW) || !reflect.DeepEqual(inj.RightBW, def.RightBW) {
		t.Fatal("right backward arrays differ across variants")
	}
	for r := 0; r < left.N; r++ {
		a, b, c := inj.LeftFW.List(r), dfw.LeftFW.List(r), def.LeftFW.List(r)
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, c) {
			t.Fatalf("left forward lists differ at rid %d", r)
		}
	}
	for r := 0; r < right.N; r++ {
		if !reflect.DeepEqual(inj.RightFW.List(r), dfw.RightFW.List(r)) {
			t.Fatalf("right forward lists differ at rid %d", r)
		}
	}
}

func sortRids(r []Rid) {
	sort.Slice(r, func(i, j int) bool { return r[i] < r[j] })
}

func TestMNJoinLineageInvariants(t *testing.T) {
	left, right := mnFixture(t)
	res, err := HashJoinMN(left, "z", right, "z", MNInject, JoinOpts{Dirs: CaptureBoth})
	if err != nil {
		t.Fatal(err)
	}
	// Every forward edge must be confirmed by the backward arrays.
	for r := 0; r < left.N; r++ {
		for _, o := range res.LeftFW.List(r) {
			if res.LeftBW[o] != Rid(r) {
				t.Fatalf("left fw/bw mismatch: rid %d, out %d", r, o)
			}
		}
	}
	for r := 0; r < right.N; r++ {
		for _, o := range res.RightFW.List(r) {
			if res.RightBW[o] != Rid(r) {
				t.Fatalf("right fw/bw mismatch: rid %d, out %d", r, o)
			}
		}
	}
	if res.LeftFW.Cardinality() != res.OutN || res.RightFW.Cardinality() != res.OutN {
		t.Fatal("forward cardinalities must equal output count")
	}
}

func TestMNJoinDeferPreallocatesExactly(t *testing.T) {
	left, right := mnFixture(t)
	res, err := HashJoinMN(left, "z", right, "z", MNDefer, JoinOpts{Dirs: CaptureBoth})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < left.N; r++ {
		l := res.LeftFW.List(r)
		if cap(l) != len(l) {
			t.Fatalf("defer left forward at rid %d: cap %d != len %d", r, cap(l), len(l))
		}
	}
}

func TestMNJoinMaterializeWithoutBackward(t *testing.T) {
	left, right := mnFixture(t)
	res, err := HashJoinMN(left, "z", right, "z", MNInject, JoinOpts{Dirs: CaptureForward, Materialize: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Out == nil || res.Out.N != res.OutN {
		t.Fatal("materialization without backward capture failed")
	}
}

func TestJoinUnknownColumnErrors(t *testing.T) {
	left, right := mnFixture(t)
	if _, err := HashJoinPKFK(left, "nope", nil, right, "z", nil, JoinOpts{}); err == nil {
		t.Error("unknown build key should error")
	}
	if _, err := HashJoinMN(left, "z", right, "nope", MNInject, JoinOpts{}); err == nil {
		t.Error("unknown probe key should error")
	}
	if _, err := HashJoinMN(left, "v", right, "z", MNInject, JoinOpts{}); err == nil {
		t.Error("non-int join key should error")
	}
}
