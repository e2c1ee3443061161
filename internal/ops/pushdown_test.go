package ops

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"smoke/internal/datagen"
	"smoke/internal/expr"
	"smoke/internal/storage"
)

func pushdownFixture() *storage.Relation {
	rel := storage.NewEmpty("t", storage.Schema{
		{Name: "z", Type: storage.TInt},
		{Name: "mode", Type: storage.TString},
		{Name: "v", Type: storage.TFloat},
	})
	modes := []string{"MAIL", "SHIP", "AIR"}
	for i := 0; i < 300; i++ {
		rel.AppendRow(1+i%3, modes[i%3], float64(i%100))
	}
	return rel
}

func countSpec() GroupBySpec {
	return GroupBySpec{Keys: []string{"z"}, Aggs: []AggSpec{{Fn: Count, Name: "c"}}}
}

func TestSelectionPushdownPrunesBackward(t *testing.T) {
	rel := pushdownFixture()
	for _, mode := range []CaptureMode{Inject, Defer} {
		res, err := HashAgg(rel, nil, countSpec(), AggOpts{
			Mode: mode, Dirs: CaptureBoth,
			PushdownFilter: expr.LtE(expr.C("v"), expr.F(50)),
		})
		if err != nil {
			t.Fatal(err)
		}
		// Query results unchanged.
		if res.Out.N != 3 {
			t.Fatalf("mode %v: groups = %d", mode, res.Out.N)
		}
		vcol := rel.Schema.MustCol("v")
		total := 0
		for slot := 0; slot < res.BW.Len(); slot++ {
			for _, rid := range res.BW.List(slot) {
				if rel.Float(vcol, int(rid)) >= 50 {
					t.Fatalf("mode %v: filtered-out rid %d captured", mode, rid)
				}
				total++
			}
		}
		want := 0
		for i := 0; i < rel.N; i++ {
			if rel.Float(vcol, i) < 50 {
				want++
			}
		}
		if total != want {
			t.Fatalf("mode %v: captured %d rids, want %d", mode, total, want)
		}
	}
}

func TestDataSkippingPartitionsBackward(t *testing.T) {
	rel := pushdownFixture()
	for _, mode := range []CaptureMode{Inject, Defer} {
		res, err := HashAgg(rel, nil, countSpec(), AggOpts{
			Mode: mode, Dirs: CaptureBoth,
			PartitionBy: []string{"mode"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.BW == nil || res.BWPart == nil {
			t.Fatalf("mode %v: want the ordered backward index and its directory (BW %v, BWPart %v)",
				mode, res.BW != nil, res.BWPart != nil)
		}
		plain, err := HashAgg(rel, nil, countSpec(), AggOpts{Mode: mode, Dirs: CaptureBoth})
		if err != nil {
			t.Fatal(err)
		}
		// Each list is the plain capture's, stably ordered by code (first
		// appearance in scan order), and the directory slices every code's
		// range out of it in place.
		mcol := rel.Schema.MustCol("mode")
		zcol := rel.Schema.MustCol("z")
		dict := res.BWPart.Dict()
		code := func(r Rid) int64 {
			c, ok := dict.Lookup(rel.Str(mcol, int(r)))
			if !ok {
				t.Fatalf("mode %v: value %q of rid %d not interned", mode, rel.Str(mcol, int(r)), r)
			}
			return c
		}
		if got := dict.Value(0); got != rel.Str(mcol, 0) {
			t.Fatalf("mode %v: code 0 is %q, want the first row's %q", mode, got, rel.Str(mcol, 0))
		}
		for slot := 0; slot < res.BW.Len(); slot++ {
			want := slices.Clone(plain.BW.List(slot))
			slices.SortStableFunc(want, func(a, b Rid) int { return cmp.Compare(code(a), code(b)) })
			list := res.BW.List(slot)
			if !reflect.DeepEqual(list, want) {
				t.Fatalf("mode %v group %d: list %v, want %v", mode, slot, list, want)
			}
			var joined []Rid
			for c := range int64(dict.Size()) {
				part := res.BWPart.Partition(slot, c)
				if len(part) > 0 && &part[0] != &list[len(joined)] {
					t.Fatalf("mode %v group %d code %d: partition is a copy, not a range of the list", mode, slot, c)
				}
				joined = append(joined, part...)
			}
			if !reflect.DeepEqual(joined, list) {
				t.Fatalf("mode %v group %d: partitions %v do not tile the list %v", mode, slot, joined, list)
			}
		}
		// Partition (group, 'MAIL') holds exactly the MAIL rids of the group.
		attrs := []string{"mode"}
		pk, ok := PartitionKey(res.BWPart, rel, attrs, []any{"MAIL"})
		if !ok {
			t.Fatalf("mode %v: MAIL partition key not found", mode)
		}
		for slot := 0; slot < res.BWPart.Len(); slot++ {
			key := res.Out.Int(0, slot)
			for _, rid := range res.BWPart.Partition(slot, pk) {
				if rel.Str(mcol, int(rid)) != "MAIL" || rel.Int(zcol, int(rid)) != key {
					t.Fatalf("mode %v: wrong rid in MAIL partition", mode)
				}
			}
		}
		// All partitions together cover the input.
		if res.BW.Cardinality() != rel.N {
			t.Fatalf("mode %v: partitions cover %d, want %d", mode, res.BW.Cardinality(), rel.N)
		}
	}
}

func TestDataSkippingIntAttribute(t *testing.T) {
	rel := datagen.Zipf("zipf", 1.0, 500, 5, 3)
	res, err := HashAgg(rel, nil, countSpec(), AggOpts{
		Mode: Inject, Dirs: CaptureBackward,
		PartitionBy: []string{"id"}, // int attribute: direct value keys
	})
	if err != nil {
		t.Fatal(err)
	}
	pk, ok := PartitionKey(res.BWPart, rel, []string{"id"}, []any{7})
	if !ok || pk != 7 {
		t.Fatalf("int partition key = %d, %v", pk, ok)
	}
}

func TestDataSkippingCompositeKey(t *testing.T) {
	rel := pushdownFixture()
	res, err := HashAgg(rel, nil, countSpec(), AggOpts{
		Mode: Inject, Dirs: CaptureBackward,
		PartitionBy: []string{"mode", "z"},
	})
	if err != nil {
		t.Fatal(err)
	}
	pk, ok := PartitionKey(res.BWPart, rel, []string{"mode", "z"}, []any{"MAIL", int64(1)})
	if !ok {
		t.Fatal("composite partition key not found")
	}
	mcol := rel.Schema.MustCol("mode")
	zcol := rel.Schema.MustCol("z")
	n := 0
	for slot := 0; slot < res.BWPart.Len(); slot++ {
		for _, rid := range res.BWPart.Partition(slot, pk) {
			if rel.Str(mcol, int(rid)) != "MAIL" || rel.Int(zcol, int(rid)) != 1 {
				t.Fatal("wrong rid in composite partition")
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("composite partition empty")
	}
	// Unseen combination reports not-found.
	if _, ok := PartitionKey(res.BWPart, rel, []string{"mode", "z"}, []any{"NOPE", int64(1)}); ok {
		t.Fatal("unseen combination should not resolve")
	}
}

// A float data-skipping attribute, alone or inside a composite, resolves
// through PartitionKey to exactly the rows holding that value (it used to
// answer an empty partition with no error).
func TestDataSkippingFloatAttribute(t *testing.T) {
	rel := pushdownFixture()
	mcol, vcol := rel.Schema.MustCol("mode"), rel.Schema.MustCol("v")
	for _, tc := range []struct {
		attrs []string
		vals  []any
		mode  string // "" matches every mode
	}{
		{[]string{"v"}, []any{42.0}, ""},
		{[]string{"v"}, []any{42}, ""},
		{[]string{"mode", "v"}, []any{"MAIL", 42.0}, "MAIL"},
	} {
		res, err := HashAgg(rel, nil, countSpec(), AggOpts{Mode: Inject, Dirs: CaptureBackward, PartitionBy: tc.attrs})
		if err != nil {
			t.Fatal(err)
		}
		pk, ok := PartitionKey(res.BWPart, rel, tc.attrs, tc.vals)
		if !ok {
			t.Fatalf("%v = %v: partition key not found", tc.attrs, tc.vals)
		}
		var got, want []Rid
		for slot := 0; slot < res.BWPart.Len(); slot++ {
			got = append(got, res.BWPart.Partition(slot, pk)...)
		}
		slices.Sort(got)
		for i := 0; i < rel.N; i++ {
			if rel.Float(vcol, i) == 42 && (tc.mode == "" || rel.Str(mcol, i) == tc.mode) {
				want = append(want, Rid(i))
			}
		}
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%v = %v: partition %v, want %v", tc.attrs, tc.vals, got, want)
		}
	}
	res, err := HashAgg(rel, nil, countSpec(), AggOpts{Mode: Inject, Dirs: CaptureBackward, PartitionBy: []string{"v"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := PartitionKey(res.BWPart, rel, []string{"v"}, []any{"42"}); ok {
		t.Fatal("a string value resolved a float partition")
	}
}

func TestObserveHookSeesEveryRow(t *testing.T) {
	rel := pushdownFixture()
	type pair struct {
		slot int32
		rid  Rid
	}
	var seen []pair
	_, err := HashAgg(rel, nil, countSpec(), AggOpts{
		Mode: Inject, Dirs: CaptureBoth,
		Observe: func(slot int32, rid Rid) { seen = append(seen, pair{slot, rid}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != rel.N {
		t.Fatalf("observe saw %d rows, want %d", len(seen), rel.N)
	}
	// Observed rids must be 0..N-1 in scan order.
	for i, p := range seen {
		if p.rid != Rid(i) {
			t.Fatalf("observe order broken at %d", i)
		}
	}
}

func TestPushdownErrors(t *testing.T) {
	rel := pushdownFixture()
	if _, err := HashAgg(rel, nil, countSpec(), AggOpts{Mode: Inject, Dirs: CaptureBoth,
		PushdownFilter: expr.C("v")}); err == nil {
		t.Error("non-boolean push-down filter should error")
	}
	if _, err := HashAgg(rel, nil, countSpec(), AggOpts{Mode: Inject, Dirs: CaptureBoth,
		PartitionBy: []string{"nope"}}); err == nil {
		t.Error("unknown partition attribute should error")
	}
}

func TestPushdownCombination(t *testing.T) {
	// Selection push-down and data skipping compose: partitions only hold
	// filtered rids.
	rel := pushdownFixture()
	res, err := HashAgg(rel, nil, countSpec(), AggOpts{
		Mode: Inject, Dirs: CaptureBackward,
		PushdownFilter: expr.LtE(expr.C("v"), expr.F(50)),
		PartitionBy:    []string{"mode"},
	})
	if err != nil {
		t.Fatal(err)
	}
	vcol := rel.Schema.MustCol("v")
	for slot := 0; slot < res.BWPart.Len(); slot++ {
		for _, rid := range res.BW.List(slot) {
			if rel.Float(vcol, int(rid)) >= 50 {
				t.Fatal("partition contains filtered-out rid")
			}
		}
	}
}

var _ = reflect.DeepEqual
