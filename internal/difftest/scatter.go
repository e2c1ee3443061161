package difftest

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"smoke/internal/core"
	"smoke/internal/diskstore"
	"smoke/internal/expr"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/plan"
	"smoke/internal/storage"
)

// Forward-scatter differential checking: a capture-off COUNT group-by over a
// bound backward trace, offered retained sibling views, must answer exactly
// as it does without them. Where a sibling qualifies the optimizer rewrites
// the group-by into plan.ForwardScatter — the traced rids count through the
// sibling's forward index, and groups emit in first-touch order — and the
// rows, their order and the group counts must be element-identical to the
// hash group-by over the same expansion, at every worker count, over raw
// and compressed traced views and siblings, for rid seeds with duplicates,
// predicate seeds (the scan-equivalent choice included), every seed and an
// empty expansion. Where no sibling qualifies, EXPLAIN must show the hash
// path and the answer must still match. Traced views and siblings restored
// from a disk store with their producing plans attached must qualify and
// answer like the originals.

// scatterWorkers are the worker counts each consuming query runs at.
var scatterWorkers = []int{1, 2, 4}

// CheckForwardScatter runs one seeded forward-scatter session: queries
// randomized consuming traces over qualifying siblings, the same over views
// restored from a disk store in dir, then one pass over every sibling shape
// the rule must refuse.
func CheckForwardScatter(dir string, seed int64, queries int) error {
	r := rand.New(rand.NewSource(seed))
	ds := GenDataset(r)
	defer ds.DB.Close()
	filter := genFactFilter(r)
	keys := []string{"k", "b", "s"}
	raw := core.CaptureOptions{Mode: ops.Inject}
	enc := core.CaptureOptions{Mode: ops.Inject, Compress: true}

	// One view per key and representation, all over the same filter: every
	// one is a qualifying sibling of every other for its own key.
	views := map[string]*core.Result{}
	for _, k := range keys {
		for suffix, opts := range map[string]core.CaptureOptions{"": raw, "c": enc} {
			res, err := countView(ds.DB, k, filter, opts)
			if err != nil {
				return fmt.Errorf("difftest: scatter seed %d: view %s%s: %w", seed, k, suffix, err)
			}
			views[k+suffix] = res
		}
	}

	// Every bar of the view grouped by k, last bar first, re-counted by k
	// through the compressed twin: groups are touched in reverse row order,
	// so an emission in the sibling's row order instead of first-touch
	// order cannot pass.
	a := views["k"]
	rev := make([]lineage.Rid, a.Out.N)
	for i := range rev {
		rev[i] = lineage.Rid(a.Out.N - 1 - i)
	}
	twin := map[string]*core.Result{"kc": views["kc"]}
	if err := checkScatter(ds.DB, a, a, core.Rids(rev...), "k", twin, "kc",
		fmt.Sprintf("scatter seed %d (every bar of k in reverse, regroup by k)", seed)); err != nil {
		return err
	}
	for qi := 0; qi < queries; qi++ {
		traced := keys[r.Intn(len(keys))]
		if r.Intn(2) == 0 {
			traced += "c"
		}
		a = views[traced]
		s, sdesc := scatterSeed(r, a)
		key := keys[r.Intn(len(keys))]
		// Offer every view, or only the one sibling in one representation:
		// the rule takes the first qualifying name, so both forms of B get
		// read.
		offered, want := views, key
		if r.Intn(2) == 0 {
			want = key + "c"
			offered = map[string]*core.Result{want: views[want]}
		}
		what := fmt.Sprintf("scatter seed %d query %d (trace %s, %s, regroup by %s through %s)",
			seed, qi, traced, sdesc, key, want)
		if err := checkScatter(ds.DB, a, a, s, key, offered, want, what); err != nil {
			return err
		}
	}
	if err := checkScatterRestored(dir, ds, r, views, queries, fmt.Sprintf("scatter seed %d", seed)); err != nil {
		return err
	}
	return checkScatterRefusals(ds, filter, views, fmt.Sprintf("scatter seed %d", seed))
}

// checkScatterRestored round-trips the views grouped by k and by b, raw and
// compressed, through a disk store in dir — PutResult, LoadResult, then
// RestoreResult with the producing plan attached, as the server's registry
// restores a demoted result — and runs consuming traces of a restored k
// view regrouped by b through a restored b view: the rule must fire and
// answer like the unrewritten plan over the original view. A restored view
// left without its plan, and one whose store was reopened (its base
// snapshots are other relation instances), must not qualify.
func checkScatterRestored(dir string, ds *Dataset, r *rand.Rand, views map[string]*core.Result, queries int, what string) error {
	store, err := diskstore.Open(dir)
	if err != nil {
		return fmt.Errorf("difftest: %s: open store: %w", what, err)
	}
	defer store.Close()
	names := []string{"k", "kc", "b", "bc"}
	restored := map[string]*core.Result{}
	bare := map[string]*core.Result{} // restored without the plan
	for _, name := range names {
		v := views[name]
		if _, err := store.PutResult("sScatter", name, &diskstore.Result{
			Out: v.Out, GroupCounts: v.GroupCounts, Capture: v.Capture(), Bases: v.Bases(),
		}); err != nil {
			return fmt.Errorf("difftest: %s: persist %s: %w", what, name, err)
		}
		ld, err := store.LoadResult("sScatter", name)
		if err != nil {
			return fmt.Errorf("difftest: %s: load %s: %w", what, name, err)
		}
		res := core.RestoreResult(ds.DB, ld.Out, ld.GroupCounts, ld.Capture, ld.Bases)
		if !res.AttachPlan(v.ProducingPlan()) {
			return fmt.Errorf("difftest: %s: restored %s refused its own plan", what, name)
		}
		restored[name] = res
		bare[name] = core.RestoreResult(ds.DB, ld.Out, ld.GroupCounts, ld.Capture, ld.Bases)
	}
	for qi := 0; qi < max(4, queries/2); qi++ { // every pairing of k, kc with b, bc
		traced, sib := names[qi%2], names[2+qi/2%2]
		s, sdesc := scatterSeed(r, views[traced])
		q := fmt.Sprintf("%s: restored query %d (trace %s, %s, regroup by b through %s)", what, qi, traced, sdesc, sib)
		if err := checkScatter(ds.DB, views[traced], restored[traced], s, "b",
			map[string]*core.Result{sib: restored[sib]}, sib, q); err != nil {
			return err
		}
	}
	all := core.Where(nil)
	if err := checkRefused(func() *core.Query { return consuming(ds.DB, restored["k"], all, "b") },
		map[string]*core.Result{"b": bare["b"]}, core.CaptureOptions{}, what+": a restored sibling without its plan"); err != nil {
		return err
	}
	if err := checkRefused(func() *core.Query { return consuming(ds.DB, bare["k"], all, "b") },
		map[string]*core.Result{"b": restored["b"]}, core.CaptureOptions{}, what+": a restored traced view without its plan"); err != nil {
		return err
	}
	// A reopened store maps its own copies of the base relations.
	if err := store.Close(); err != nil {
		return fmt.Errorf("difftest: %s: close store: %w", what, err)
	}
	reopened, err := diskstore.Open(dir)
	if err != nil {
		return fmt.Errorf("difftest: %s: reopen store: %w", what, err)
	}
	defer reopened.Close()
	ld, err := reopened.LoadResult("sScatter", "b")
	if err != nil {
		return fmt.Errorf("difftest: %s: reload b: %w", what, err)
	}
	if core.RestoreResult(ds.DB, ld.Out, ld.GroupCounts, ld.Capture, ld.Bases).AttachPlan(views["b"].ProducingPlan()) {
		return fmt.Errorf("difftest: %s: a plan attached over base relations the store reloaded", what)
	}
	return nil
}

// countView runs the crossfilter view shape: COUNT(*) per key over the
// filtered fact table.
func countView(db *core.DB, key string, filter expr.Expr, opts core.CaptureOptions) (*core.Result, error) {
	return db.Query().From("fact", filter).GroupBy(key).Agg(ops.Count, nil, "cnt").Run(opts)
}

// scatterSeed draws the seed of one consuming trace of a.
func scatterSeed(r *rand.Rand, a *core.Result) (core.Seed, string) {
	n := a.Out.N
	switch r.Intn(5) {
	case 0:
		if n == 0 {
			return core.Rids(), "no seeds"
		}
		k := 1 + r.Intn(4)
		seeds := make([]lineage.Rid, 0, k+1)
		for i := 0; i < k; i++ {
			seeds = append(seeds, lineage.Rid(r.Intn(n)))
		}
		return core.Rids(append(seeds, seeds[0])...), "rid seeds with a duplicate"
	case 1:
		return core.Where(expr.GeE(expr.C("cnt"), expr.I(int64(1+r.Intn(20))))), "count-predicate seed"
	case 2:
		// A key predicate makes the trace scan-equivalent; selecting most
		// groups, it runs as the filtered scan.
		key := a.Out.Schema[0].Name
		if a.Out.Schema[0].Type == storage.TString {
			return core.Where(expr.Not{E: expr.EqE(expr.C(key), expr.S("S0"))}), "key-predicate seed"
		}
		return core.Where(expr.GeE(expr.C(key), expr.I(int64(r.Intn(3))))), "key-predicate seed"
	case 3:
		return core.Where(nil), "every seed"
	}
	return core.Where(expr.GeE(expr.C("cnt"), expr.I(1<<40))), "empty expansion"
}

// consuming builds the consuming COUNT query over a trace of a.
func consuming(db *core.DB, a *core.Result, s core.Seed, key string) *core.Query {
	return db.Query().Trace(a, core.TraceBackward, "fact", s).GroupBy(key).Agg(ops.Count, nil, "n")
}

// checkScatter requires the rewrite of a consuming trace of a to fire,
// reading sibling want, and to answer element-identically to the
// unrewritten plan over orig (a itself, or the view a was restored from) at
// every worker count.
func checkScatter(db *core.DB, orig, a *core.Result, s core.Seed, key string,
	offered map[string]*core.Result, want, what string) error {
	for _, w := range scatterWorkers {
		opts := core.CaptureOptions{Parallelism: w}
		ref, err := consuming(db, orig, s, key).Run(opts)
		if err != nil {
			return fmt.Errorf("difftest: %s: hash path: %w", what, err)
		}
		q := consuming(db, a, s, key).Siblings(offered)
		got, err := q.Run(opts)
		if err != nil {
			return fmt.Errorf("difftest: %s: workers %d: %w", what, w, err)
		}
		if got.ScatteredFrom() != want {
			return fmt.Errorf("difftest: %s: workers %d: answered through %q, want %q", what, w, got.ScatteredFrom(), want)
		}
		if err := sameAnswer(ref, got); err != nil {
			return fmt.Errorf("difftest: %s: workers %d: %w", what, w, err)
		}
		text, err := q.Explain(opts)
		if err != nil {
			return err
		}
		if !strings.Contains(text, "ForwardScatter") || !strings.Contains(text, "sibling="+want) {
			return fmt.Errorf("difftest: %s: EXPLAIN does not name the rewrite through %s:\n%s", what, want, text)
		}
	}
	return nil
}

// sameAnswer requires element-identical rows, row order and group counts.
func sameAnswer(want, got *core.Result) error {
	if err := diffRelation(want.Out, got.Out); err != nil {
		return fmt.Errorf("rows differ from the hash group-by: %w", err)
	}
	if !slices.Equal(want.GroupCounts, got.GroupCounts) {
		return fmt.Errorf("group counts %v, want %v", got.GroupCounts, want.GroupCounts)
	}
	return nil
}

// checkScatterRefusals offers, one at a time, siblings the rule must refuse
// — and runs consuming queries it must refuse whatever the siblings — and
// requires each to keep the hash path (EXPLAIN without ForwardScatter) with
// the unrewritten answer.
func checkScatterRefusals(ds *Dataset, filter expr.Expr, views map[string]*core.Result, what string) error {
	db := ds.DB
	raw := core.CaptureOptions{Mode: ops.Inject}
	a := views["k"]
	seed := core.Where(nil)
	var other expr.Expr = expr.LeE(expr.C("v"), expr.F(50))
	if filter != nil {
		other = expr.And{L: filter, R: other}
	}
	gb := plan.GroupBy{Child: plan.Scan{Table: "fact", Rel: ds.Fact, Filter: filter},
		Keys: []string{"b"}, Aggs: []plan.AggDef{{Fn: ops.Count, Name: "cnt"}}}

	// A second relation instance with the same name and rows.
	clone := ds.Fact.Gather("fact", identityRids(ds.Fact.N))
	db2 := core.Open()
	defer db2.Close()
	db2.Register(clone)

	siblings := []struct {
		name string
		run  func() (*core.Result, error)
	}{
		{"a different filter", func() (*core.Result, error) { return countView(db, "b", other, raw) }},
		{"another relation pointer", func() (*core.Result, error) { return countView(db2, "b", filter, raw) }},
		{"HAVING on the sibling", func() (*core.Result, error) {
			return db.QueryPlan(plan.Filter{Child: gb, Pred: expr.GeE(expr.C("cnt"), expr.I(1))}).Run(raw)
		}},
		{"ORDER BY on the sibling", func() (*core.Result, error) {
			return db.QueryPlan(plan.OrderBy{Child: gb, Keys: []plan.SortKey{{Col: "b"}}}).Run(raw)
		}},
		{"LIMIT on the sibling", func() (*core.Result, error) {
			return db.QueryPlan(plan.Limit{Child: gb, N: 1 << 20}).Run(raw)
		}},
		{"a push-down on the sibling", func() (*core.Result, error) {
			return countView(db, "b", filter, core.CaptureOptions{Mode: ops.Inject, PushdownFilter: expr.GeE(expr.C("v"), expr.F(0))})
		}},
		{"a backward-only sibling", func() (*core.Result, error) {
			return countView(db, "b", filter, core.CaptureOptions{Mode: ops.Inject, Dirs: ops.CaptureBackward})
		}},
	}
	for _, sc := range siblings {
		b, err := sc.run()
		if err != nil {
			return fmt.Errorf("difftest: %s: sibling with %s: %w", what, sc.name, err)
		}
		q := func() *core.Query { return consuming(db, a, seed, "b") }
		if err := checkRefused(q, map[string]*core.Result{"b": b}, core.CaptureOptions{}, what+": sibling with "+sc.name); err != nil {
			return err
		}
	}

	// The traced view carries a push-down.
	pushed, err := countView(db, "k", filter, core.CaptureOptions{Mode: ops.Inject, PushdownFilter: expr.GeE(expr.C("v"), expr.F(0))})
	if err != nil {
		return err
	}
	qs := []struct {
		name string
		q    func() *core.Query
		opts core.CaptureOptions
	}{
		{"a push-down on the traced view", func() *core.Query { return consuming(db, pushed, seed, "b") }, core.CaptureOptions{}},
		{"capture on", func() *core.Query { return consuming(db, a, seed, "b") }, raw},
		{"a non-COUNT aggregate", func() *core.Query {
			return consuming(db, a, seed, "b").Agg(ops.Sum, expr.C("v"), "sv")
		}, core.CaptureOptions{}},
		{"a consuming filter", func() *core.Query {
			return consuming(db, a, seed, "b").Where(expr.LeE(expr.C("v"), expr.F(30)))
		}, core.CaptureOptions{}},
	}
	for _, c := range qs {
		if err := checkRefused(c.q, views, c.opts, what+": "+c.name); err != nil {
			return err
		}
	}
	return nil
}

// checkRefused requires q with the siblings offered to keep the hash path
// and to answer as it does without them.
func checkRefused(q func() *core.Query, offered map[string]*core.Result, opts core.CaptureOptions, what string) error {
	text, err := q().Siblings(offered).Explain(opts)
	if err != nil {
		return fmt.Errorf("difftest: %s: explain: %w", what, err)
	}
	if strings.Contains(text, "ForwardScatter") {
		return fmt.Errorf("difftest: %s: the rule fired:\n%s", what, text)
	}
	ref, err := q().Run(opts)
	if err != nil {
		return fmt.Errorf("difftest: %s: %w", what, err)
	}
	got, err := q().Siblings(offered).Run(opts)
	if err != nil {
		return fmt.Errorf("difftest: %s: %w", what, err)
	}
	if got.ScatteredFrom() != "" {
		return fmt.Errorf("difftest: %s: answered through %q", what, got.ScatteredFrom())
	}
	if err := sameAnswer(ref, got); err != nil {
		return fmt.Errorf("difftest: %s: %w", what, err)
	}
	return nil
}

func identityRids(n int) []lineage.Rid {
	rids := make([]lineage.Rid, n)
	for i := range rids {
		rids[i] = lineage.Rid(i)
	}
	return rids
}
