// Package difftest is a differential lineage-equivalence harness: it
// generates randomized (seeded, reproducible) SPJA queries over generated
// data and runs each one under every capture configuration the engine
// supports — serial and morsel-parallel, Inject and Defer, raw and compressed
// indexes — asserting that every configuration produces the same output
// relation and element-identical lineage as the serial/Inject/raw reference.
//
// The harness is the cross-cutting correctness gate for the optimization
// layers: the morsel merge (internal/lineage/merge.go), the Defer rebuild
// pass, and the encoded representations (internal/lineage/encoded.go) all
// claim exact equivalence with naive serial Inject capture; this is where
// those claims meet adversarial query shapes instead of hand-picked
// fixtures. difftest_test.go runs it under `go test ./...`.
package difftest

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"smoke/internal/core"
	"smoke/internal/expr"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/storage"
)

// Variant is one capture configuration under test.
type Variant struct {
	Name string
	Opts core.CaptureOptions
}

// Variants enumerates the configurations. The first entry is the reference:
// serial, Inject, raw indexes — the paper's original capture path.
func Variants() []Variant {
	var vs []Variant
	for _, mode := range []struct {
		name string
		m    ops.CaptureMode
	}{{"inject", ops.Inject}, {"defer", ops.Defer}} {
		for _, par := range []struct {
			name string
			w    int
		}{{"serial", 1}, {"par3", 3}} {
			for _, comp := range []struct {
				name string
				c    bool
			}{{"raw", false}, {"compressed", true}} {
				vs = append(vs, Variant{
					Name: fmt.Sprintf("%s/%s/%s", par.name, mode.name, comp.name),
					Opts: core.CaptureOptions{Mode: mode.m, Parallelism: par.w, Compress: comp.c},
				})
			}
		}
	}
	// Move the reference (serial/inject/raw) to the front.
	sort.SliceStable(vs, func(i, j int) bool { return vs[i].Name == "serial/inject/raw" && vs[j].Name != "serial/inject/raw" })
	return vs
}

// Dataset is a generated dim/fact pair registered in a DB.
type Dataset struct {
	DB    *core.DB
	Dim   *storage.Relation
	Fact  *storage.Relation
	DimN  int
	FactN int
}

// GenDataset builds a randomized pk-fk dataset: dim(g pk, label, w) and
// fact(k fk→dim.g, b, s, v). Sizes and value distributions vary with the
// seed so group counts, duplicate keys, unmatched fks, and empty-ish groups
// all occur across seeds.
func GenDataset(r *rand.Rand) *Dataset {
	dimN := 20 + r.Intn(80)
	factN := 500 + r.Intn(2000)

	dim := storage.NewRelation("dim", storage.Schema{
		{Name: "g", Type: storage.TInt},
		{Name: "label", Type: storage.TString},
		{Name: "w", Type: storage.TFloat},
	}, dimN)
	gs := dim.Cols[0].Ints
	labels := dim.Cols[1].Strs
	ws := dim.Cols[2].Floats
	for i := 0; i < dimN; i++ {
		gs[i] = int64(i)
		labels[i] = fmt.Sprintf("L%d", i%(3+r.Intn(5)))
		ws[i] = math.Round(r.Float64()*1000) / 10
	}

	fact := storage.NewRelation("fact", storage.Schema{
		{Name: "k", Type: storage.TInt},
		{Name: "b", Type: storage.TInt},
		{Name: "s", Type: storage.TString},
		{Name: "v", Type: storage.TFloat},
	}, factN)
	ks := fact.Cols[0].Ints
	bs := fact.Cols[1].Ints
	ss := fact.Cols[2].Strs
	vs := fact.Cols[3].Floats
	// A slice of fks reference beyond the dim domain (unmatched probe rows).
	kDomain := dimN + r.Intn(10)
	bDomain := 2 + r.Intn(10)
	for i := 0; i < factN; i++ {
		ks[i] = int64(r.Intn(kDomain))
		bs[i] = int64(r.Intn(bDomain))
		ss[i] = fmt.Sprintf("S%d", bs[i]%3)
		vs[i] = math.Round(r.Float64()*10000) / 100
	}

	db := core.Open(core.WithWorkers(3))
	db.Register(dim)
	db.Register(fact)
	return &Dataset{DB: db, Dim: dim, Fact: fact, DimN: dimN, FactN: factN}
}

// GenQuery builds one randomized SPJA query against the dataset, returning
// the builder (invoked fresh per run — a core.Query is single-use), a
// human-readable description of its shape for failure messages, and whether
// the query is single-table (consuming queries are only defined over
// single-table results).
func GenQuery(ds *Dataset, r *rand.Rand) (func() *core.Query, string, bool) {
	factFilter := genFactFilter(r)
	if r.Intn(2) == 0 {
		// Single-table aggregation over fact.
		keys := [][]string{{"b"}, {"s"}, {"k"}, {"b", "s"}, {"k", "b"}}[r.Intn(5)]
		aggs := genAggs(r, true)
		desc := fmt.Sprintf("single-table group by %v, %d aggs, filter=%v", keys, len(aggs), factFilter)
		return func() *core.Query {
			q := ds.DB.Query().From("fact", factFilter).GroupBy(keys...)
			for _, a := range aggs {
				q = q.AggFiltered(a.fn, a.arg, a.filter, a.name)
			}
			return q
		}, desc, true
	}
	// pk-fk join: dim ⋈ fact.
	dimFilter := genDimFilter(r)
	key := []string{"label", "b", "w"}[r.Intn(3)]
	aggs := genAggs(r, false)
	desc := fmt.Sprintf("join group by %s, %d aggs, dimFilter=%v, factFilter=%v", key, len(aggs), dimFilter, factFilter)
	return func() *core.Query {
		q := ds.DB.Query().
			From("dim", dimFilter).
			Join("fact", factFilter, "dim", "g", "k").
			GroupBy(key)
		for _, a := range aggs {
			q = q.AggFiltered(a.fn, a.arg, a.filter, a.name)
		}
		return q
	}, desc, false
}

type aggDef struct {
	fn     ops.AggFn
	arg    expr.Expr
	filter expr.Expr
	name   string
}

// genAggs always includes COUNT(*) and one filtered aggregate (a COUNT, SUM
// or AVG folding only rows with v below a random bound), and adds a random
// subset of the numeric aggregates. CountDistinct joins only on the
// single-table path: the optimizer's fusion rule declines COUNT(DISTINCT)
// blocks, so a join query carrying one would never reach the fused executor.
func genAggs(r *rand.Rand, singleTable bool) []aggDef {
	aggs := []aggDef{{ops.Count, nil, nil, "cnt"}}
	filtered := aggDef{[]ops.AggFn{ops.Count, ops.Sum, ops.Avg}[r.Intn(3)], expr.C("v"),
		expr.LtE(expr.C("v"), expr.F(float64(r.Intn(100)))), "filt_v"}
	if filtered.fn == ops.Count {
		filtered.arg = nil
	}
	aggs = append(aggs, filtered)
	if r.Intn(2) == 0 {
		aggs = append(aggs, aggDef{ops.Sum, expr.C("v"), nil, "sum_v"})
	}
	if r.Intn(2) == 0 {
		aggs = append(aggs, aggDef{ops.Min, expr.C("v"), nil, "min_v"})
	}
	if r.Intn(2) == 0 {
		aggs = append(aggs, aggDef{ops.Max, expr.C("v"), nil, "max_v"})
	}
	if r.Intn(3) == 0 {
		aggs = append(aggs, aggDef{ops.Avg, expr.C("v"), nil, "avg_v"})
	}
	if singleTable && r.Intn(3) == 0 {
		aggs = append(aggs, aggDef{ops.CountDistinct, expr.C("b"), nil, "cd_b"})
	}
	return aggs
}

func genFactFilter(r *rand.Rand) expr.Expr {
	switch r.Intn(5) {
	case 0:
		return nil
	case 1:
		return expr.LeE(expr.C("v"), expr.F(float64(r.Intn(100))))
	case 2:
		return expr.EqE(expr.C("b"), expr.I(int64(r.Intn(10))))
	case 3:
		return expr.Or{
			L: expr.EqE(expr.C("s"), expr.S("S1")),
			R: expr.GtE(expr.C("v"), expr.F(float64(r.Intn(80)))),
		}
	default:
		// A sometimes-empty selection: zero-match lineage shapes must agree too.
		return expr.LtE(expr.C("v"), expr.F(float64(r.Intn(3))))
	}
}

func genDimFilter(r *rand.Rand) expr.Expr {
	switch r.Intn(3) {
	case 0:
		return nil
	case 1:
		return expr.LeE(expr.C("w"), expr.F(float64(r.Intn(100))))
	default:
		return expr.EqE(expr.C("label"), expr.S("L1"))
	}
}

// Check runs one seeded differential session: queries randomized SPJA blocks
// and fails (with the offending query shape, variant, and rid) on the first
// divergence from the reference configuration.
func Check(seed int64, queries int) error {
	r := rand.New(rand.NewSource(seed))
	ds := GenDataset(r)
	defer ds.DB.Close()
	variants := Variants()
	if variants[0].Name != "serial/inject/raw" {
		return fmt.Errorf("difftest: variant order broken: %q first", variants[0].Name)
	}

	// Push-down filters draw from their own stream, so the generated
	// queries are the same with or without the push-down variant.
	pdr := rand.New(rand.NewSource(-seed))

	for qi := 0; qi < queries; qi++ {
		build, desc, singleTable := GenQuery(ds, r)
		ref, err := build().Run(variants[0].Opts)
		if err != nil {
			return fmt.Errorf("difftest: seed %d query %d (%s): reference run: %w", seed, qi, desc, err)
		}
		if singleTable {
			// The §4.2 push-downs ride every variant: selection push-down
			// and data skipping on b must reshape only the backward lineage.
			pd := genFactFilter(pdr)
			for _, v := range variants {
				opts := v.Opts
				opts.PushdownFilter, opts.PartitionBy = pd, []string{"b"}
				got, err := build().Run(opts)
				if err == nil {
					err = diffPushdown(ds.Fact, ref, got, pd)
				}
				if err != nil {
					return fmt.Errorf("difftest: seed %d query %d (%s) variant %s with push-down %v: %w", seed, qi, desc, v.Name, pd, err)
				}
			}
		}
		var refCons *core.Result
		var consSpec ops.GroupBySpec
		if singleTable && ref.Out.N > 0 {
			refCons, consSpec, err = consumeRef(ref)
			if err != nil {
				return fmt.Errorf("difftest: seed %d query %d (%s): reference consuming run: %w", seed, qi, desc, err)
			}
		}
		for _, v := range variants[1:] {
			got, err := build().Run(v.Opts)
			if err != nil {
				return fmt.Errorf("difftest: seed %d query %d (%s) variant %s: %w", seed, qi, desc, v.Name, err)
			}
			if err := diffResults(ref, got); err != nil {
				return fmt.Errorf("difftest: seed %d query %d (%s) variant %s: %w", seed, qi, desc, v.Name, err)
			}
			// Consuming queries must also be equivalent: re-aggregate the
			// backward rid set of output 0 over each variant's own capture,
			// itself captured with the variant's representation.
			if refCons != nil {
				rids, err := got.Backward("fact", []lineage.Rid{0})
				if err != nil {
					return fmt.Errorf("difftest: seed %d query %d (%s) variant %s: consuming rids: %w", seed, qi, desc, v.Name, err)
				}
				// The consuming run inherits the variant's parallelism: rid
				// sets with duplicates exercise the duplicate-tolerant
				// parallel aggregation against the serial reference.
				gotCons, err := got.ConsumeGroupBy(rids, consSpec, core.CaptureOptions{
					Mode: ops.Inject, Compress: v.Opts.Compress, Parallelism: v.Opts.Parallelism,
				})
				if err != nil {
					return fmt.Errorf("difftest: seed %d query %d (%s) variant %s: consuming run: %w", seed, qi, desc, v.Name, err)
				}
				if err := diffResults(refCons, gotCons); err != nil {
					return fmt.Errorf("difftest: seed %d query %d (%s) variant %s: consuming query: %w", seed, qi, desc, v.Name, err)
				}
			}
		}
	}
	return nil
}

// consumeRef runs the reference consuming query (raw, serial Inject) over
// the backward lineage of output 0. Callers only invoke it for non-empty
// single-table results, so every error is a genuine harness failure.
func consumeRef(ref *core.Result) (*core.Result, ops.GroupBySpec, error) {
	spec := ops.GroupBySpec{
		Keys: []string{"b"},
		Aggs: []ops.AggSpec{{Fn: ops.Count, Name: "c"}, {Fn: ops.Max, Arg: expr.C("v"), Name: "m"}},
	}
	rids, err := ref.Backward("fact", []lineage.Rid{0})
	if err != nil {
		return nil, spec, err
	}
	cons, err := ref.ConsumeGroupBy(rids, spec, core.CaptureOptions{Mode: ops.Inject, Parallelism: 1})
	if err != nil {
		return nil, spec, err
	}
	return cons, spec, nil
}

// diffResults compares output and lineage of got against the reference.
func diffResults(ref, got *core.Result) error {
	if err := diffRelation(ref.Out, got.Out); err != nil {
		return err
	}
	if len(ref.GroupCounts) != len(got.GroupCounts) {
		return fmt.Errorf("group counts: %d vs %d", len(got.GroupCounts), len(ref.GroupCounts))
	}
	for i := range ref.GroupCounts {
		if ref.GroupCounts[i] != got.GroupCounts[i] {
			return fmt.Errorf("group count %d: %d, want %d", i, got.GroupCounts[i], ref.GroupCounts[i])
		}
	}

	refRels := append([]string(nil), ref.Capture().Relations()...)
	gotRels := append([]string(nil), got.Capture().Relations()...)
	sort.Strings(refRels)
	sort.Strings(gotRels)
	if len(refRels) != len(gotRels) {
		return fmt.Errorf("captured relations %v, want %v", gotRels, refRels)
	}
	for i := range refRels {
		if refRels[i] != gotRels[i] {
			return fmt.Errorf("captured relations %v, want %v", gotRels, refRels)
		}
	}

	for _, rel := range refRels {
		// Backward: every output rid, element-identical (order and
		// duplicates — transformational semantics).
		for o := 0; o < ref.Out.N; o++ {
			rids := []lineage.Rid{lineage.Rid(o)}
			want, err := ref.Backward(rel, rids)
			if err != nil {
				return err
			}
			gotL, err := got.Backward(rel, rids)
			if err != nil {
				return err
			}
			if err := diffRids(want, gotL); err != nil {
				return fmt.Errorf("backward lineage of %s output %d: %w", rel, o, err)
			}
		}
		// Forward: every input rid.
		fwIx, err := ref.Capture().ForwardIndex(rel)
		if err != nil {
			return err
		}
		for in := 0; in < fwIx.Len(); in++ {
			rids := []lineage.Rid{lineage.Rid(in)}
			want, err := ref.Forward(rel, rids)
			if err != nil {
				return err
			}
			gotL, err := got.Forward(rel, rids)
			if err != nil {
				return err
			}
			if err := diffRids(want, gotL); err != nil {
				return fmt.Errorf("forward lineage of %s input %d: %w", rel, in, err)
			}
		}
	}
	return nil
}

// diffPushdown checks a push-down run (PushdownFilter pd, PartitionBy b)
// against the plain reference: the same output; for every group o, the
// backward list is the reference list of o restricted to rows passing pd,
// stably ordered by b (an INT attribute codes by value, ascending); and for
// every observed b value x, BackwardPartition(o, [x]) is that list's run of
// rows with b = x.
func diffPushdown(fact *storage.Relation, ref, got *core.Result, pd expr.Expr) error {
	if err := diffRelation(ref.Out, got.Out); err != nil {
		return err
	}
	pass := expr.Pred(func(int32) bool { return true })
	if pd != nil {
		var err error
		if pass, err = expr.CompilePred(pd, fact, nil); err != nil {
			return err
		}
	}
	bs := fact.Cols[fact.Schema.MustCol("b")].Ints
	seen := map[int64]bool{}
	for _, b := range bs {
		seen[b] = true
	}
	for o := 0; o < ref.Out.N; o++ {
		all, err := ref.Backward("fact", []lineage.Rid{lineage.Rid(o)})
		if err != nil {
			return err
		}
		want := map[int64][]lineage.Rid{}
		var kept []lineage.Rid
		for _, r := range all {
			if pass(r) {
				want[bs[r]] = append(want[bs[r]], r)
				kept = append(kept, r)
			}
		}
		slices.SortStableFunc(kept, func(a, b lineage.Rid) int { return cmp.Compare(bs[a], bs[b]) })
		gotAll, err := got.Backward("fact", []lineage.Rid{lineage.Rid(o)})
		if err != nil {
			return err
		}
		if err := diffRids(kept, gotAll); err != nil {
			return fmt.Errorf("backward lineage of output %d, ordered by b: %w", o, err)
		}
		for x := range seen {
			gotL, err := got.BackwardPartition(lineage.Rid(o), []any{x})
			if err != nil {
				return err
			}
			if err := diffRids(want[x], gotL); err != nil {
				return fmt.Errorf("backward partition of output %d at b = %d: %w", o, x, err)
			}
		}
	}
	return nil
}

func diffRids(want, got []lineage.Rid) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d rids, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("rid[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

// diffRelation compares two output relations. Integer and string columns
// must match exactly; float columns tolerate last-ulp drift from
// partition-order float addition in parallel runs.
func diffRelation(want, got *storage.Relation) error {
	if want.N != got.N {
		return fmt.Errorf("output rows: %d, want %d", got.N, want.N)
	}
	if len(want.Schema) != len(got.Schema) {
		return fmt.Errorf("output columns: %d, want %d", len(got.Schema), len(want.Schema))
	}
	for c := range want.Schema {
		if want.Schema[c].Name != got.Schema[c].Name || want.Schema[c].Type != got.Schema[c].Type {
			return fmt.Errorf("schema col %d: %v, want %v", c, got.Schema[c], want.Schema[c])
		}
		switch want.Schema[c].Type {
		case storage.TInt:
			for i := 0; i < want.N; i++ {
				if want.Cols[c].Ints[i] != got.Cols[c].Ints[i] {
					return fmt.Errorf("col %s row %d: %d, want %d", want.Schema[c].Name, i, got.Cols[c].Ints[i], want.Cols[c].Ints[i])
				}
			}
		case storage.TString:
			for i := 0; i < want.N; i++ {
				if want.Cols[c].Strs[i] != got.Cols[c].Strs[i] {
					return fmt.Errorf("col %s row %d: %q, want %q", want.Schema[c].Name, i, got.Cols[c].Strs[i], want.Cols[c].Strs[i])
				}
			}
		case storage.TFloat:
			for i := 0; i < want.N; i++ {
				w, g := want.Cols[c].Floats[i], got.Cols[c].Floats[i]
				if !floatsClose(w, g) {
					return fmt.Errorf("col %s row %d: %v, want %v", want.Schema[c].Name, i, g, w)
				}
			}
		}
	}
	return nil
}

func floatsClose(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}
