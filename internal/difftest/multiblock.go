package difftest

import (
	"fmt"
	"math/rand"
	"sort"

	"smoke/internal/core"
	"smoke/internal/exec"
	"smoke/internal/expr"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/plan"
	"smoke/internal/pool"
	"smoke/internal/sql"
	"smoke/internal/storage"
)

// Multi-block differential checking: randomized plans that the single-block
// facade cannot express — aggregations over joins over grouped subqueries
// and over M:N joins, set unions, HAVING/ORDER BY/LIMIT residue — run
// through both lowerings (SPJA-fused and generic) under every capture
// configuration, and every combination must produce output and lineage
// element-identical to the generic/serial/Inject/raw reference. This is the
// correctness gate for the plan optimizer (the fusion rule in particular)
// and for the generic runner's drivers (the M:N join, the set union) at one
// and at several partitions, under both capture modes.

// PlanVariant is one (lowering, capture) configuration of a plan run.
type PlanVariant struct {
	Name    string
	Fused   bool
	Opts    exec.PlanOpts
	workers int
}

// PlanVariants enumerates the configurations; the first entry is the
// reference (generic lowering, serial, Inject, raw).
func PlanVariants(pl *pool.Pool) []PlanVariant {
	var vs []PlanVariant
	for _, fuse := range []struct {
		name string
		f    bool
	}{{"generic", false}, {"fused", true}} {
		for _, par := range []struct {
			name string
			w    int
		}{{"serial", 1}, {"par3", 3}} {
			for _, mode := range []struct {
				name string
				m    ops.CaptureMode
			}{{"inject", ops.Inject}, {"defer", ops.Defer}} {
				for _, comp := range []struct {
					name string
					c    bool
				}{{"raw", false}, {"compressed", true}} {
					v := PlanVariant{
						Name:  fmt.Sprintf("%s/%s/%s/%s", fuse.name, par.name, mode.name, comp.name),
						Fused: fuse.f,
						Opts:  exec.PlanOpts{Mode: mode.m, Compress: comp.c, Workers: par.w},
					}
					if par.w > 1 {
						v.Opts.Pool = pl
					}
					vs = append(vs, v)
				}
			}
		}
	}
	sort.SliceStable(vs, func(i, j int) bool {
		return vs[i].Name == "generic/serial/inject/raw" && vs[j].Name != "generic/serial/inject/raw"
	})
	return vs
}

// genFact2 derives a second fact-shaped relation (for union plans; a union of
// a relation with itself would collide in the per-base capture maps).
func genFact2(r *rand.Rand, n int) *storage.Relation {
	rel := storage.NewRelation("fact2", storage.Schema{
		{Name: "k", Type: storage.TInt},
		{Name: "b", Type: storage.TInt},
		{Name: "s", Type: storage.TString},
		{Name: "v", Type: storage.TFloat},
	}, n)
	for i := 0; i < n; i++ {
		rel.Cols[0].Ints[i] = int64(r.Intn(20))
		rel.Cols[1].Ints[i] = int64(r.Intn(6))
		rel.Cols[2].Strs[i] = fmt.Sprintf("S%d", rel.Cols[1].Ints[i]%3)
		rel.Cols[3].Floats[i] = float64(r.Intn(1000)) / 10
	}
	return rel
}

// GenMultiBlockPlan builds one randomized multi-block logical plan over the
// dataset, returning the (unoptimized) plan and a shape description.
func GenMultiBlockPlan(ds *Dataset, fact2 *storage.Relation, r *rand.Rand) (plan.Node, string) {
	dimScan := plan.Scan{Table: "dim", Rel: ds.Dim}
	factScan := plan.Scan{Table: "fact", Rel: ds.Fact}

	residue := func(n plan.Node, countCol string) (plan.Node, string) {
		desc := ""
		if r.Intn(2) == 0 {
			n = plan.Filter{Child: n, Pred: expr.GeE(expr.C(countCol), expr.I(int64(1+r.Intn(3))))}
			desc += "+having"
		}
		if r.Intn(2) == 0 {
			keys := []plan.SortKey{{Col: countCol, Desc: r.Intn(2) == 0}}
			if s, err := plan.OutSchema(n); err == nil {
				// Tiebreak on every remaining column for a deterministic order.
				for _, f := range s {
					if f.Name != countCol {
						keys = append(keys, plan.SortKey{Col: f.Name})
					}
				}
			}
			n = plan.OrderBy{Child: n, Keys: keys}
			desc += "+orderby"
			if r.Intn(2) == 0 {
				n = plan.Limit{Child: n, N: 1 + r.Intn(5)}
				desc += "+limit"
			}
		}
		return n, desc
	}

	switch r.Intn(3) {
	case 0:
		// Fusible star block: group-by over pk-fk join of two scans, keyed
		// by one table's column or by a key spanning both tables, with
		// filtered aggregates reading either table.
		left := dimScan
		left.Filter = genDimFilter(r)
		right := factScan
		right.Filter = genFactFilter(r)
		keys := [][]string{{"label"}, {"b"}, {"label", "b"}}[r.Intn(3)]
		n := plan.Node(plan.GroupBy{
			Child: plan.Join{Left: left, Right: right, LeftKey: "g", RightKey: "k"},
			Keys:  keys,
			Aggs: []plan.AggDef{
				{Fn: ops.Count, Name: "cnt"},
				{Fn: ops.Sum, Arg: expr.C("v"), Name: "sv"},
				{Fn: ops.Count, Filter: expr.LtE(expr.C("w"), expr.F(float64(r.Intn(100)))), Name: "fc"},
				{Fn: ops.Avg, Arg: expr.C("v"), Filter: expr.LtE(expr.C("v"), expr.F(float64(r.Intn(100)))), Name: "fa"},
			},
		})
		n, rdesc := residue(n, "cnt")
		return n, fmt.Sprintf("star-block group by %v", keys) + rdesc
	case 1:
		// Aggregate over join over grouped subquery.
		inner := plan.GroupBy{
			Child: plan.Scan{Table: "fact", Rel: ds.Fact, Filter: genFactFilter(r)},
			Keys:  []string{"k"},
			Aggs: []plan.AggDef{
				{Fn: ops.Count, Name: "cnt"},
				{Fn: ops.Max, Arg: expr.C("v"), Name: "mx"},
			},
		}
		var j plan.Join
		if r.Intn(2) == 0 {
			j = plan.Join{Left: inner, Right: dimScan, LeftKey: "k", RightKey: "g"}
		} else {
			j = plan.Join{Left: dimScan, Right: inner, LeftKey: "g", RightKey: "k"}
		}
		n := plan.Node(plan.GroupBy{
			Child: j,
			Keys:  []string{"label"},
			Aggs: []plan.AggDef{
				{Fn: ops.Sum, Arg: expr.C("cnt"), Name: "total"},
				{Fn: ops.Count, Name: "groups"},
			},
		})
		n, rdesc := residue(n, "groups")
		return n, "agg-over-join-over-agg" + rdesc
	default:
		// Group-by over a set union of two filtered scans.
		left := factScan
		left.Filter = genFactFilter(r)
		right := plan.Scan{Table: "fact2", Rel: fact2, Filter: genFactFilter(r)}
		n := plan.Node(plan.GroupBy{
			Child: plan.Union{Left: left, Right: right, Attrs: []string{"b", "s"}},
			Keys:  []string{"s"},
			Aggs:  []plan.AggDef{{Fn: ops.Count, Name: "cnt"}},
		})
		n, rdesc := residue(n, "cnt")
		return n, "group-by over union" + rdesc
	}
}

// GenMNJoinPlan builds the M:N shape: a group-by over fact ⋈ fact2 on k, a
// key unique on neither side, so every lowering runs the generic M:N join
// (fusion absorbs pk-fk joins only). Every column name collides between the
// sides, so the join output qualifies them as "fact.col" and "fact2.col".
func GenMNJoinPlan(ds *Dataset, fact2 *storage.Relation, r *rand.Rand) (plan.Node, string) {
	left := plan.Scan{Table: "fact", Rel: ds.Fact, Filter: genFactFilter(r)}
	right := plan.Scan{Table: "fact2", Rel: fact2, Filter: genFactFilter(r)}
	keys := [][]string{{"fact.s"}, {"fact2.b"}, {"fact.b", "fact2.s"}}[r.Intn(3)]
	n := plan.Node(plan.GroupBy{
		Child: plan.Join{Left: left, Right: right, LeftKey: "k", RightKey: "k"},
		Keys:  keys,
		Aggs: []plan.AggDef{
			{Fn: ops.Count, Name: "cnt"},
			{Fn: ops.Sum, Arg: expr.C("fact2.v"), Name: "sv"},
		},
	})
	return n, fmt.Sprintf("m:n join group by %v", keys)
}

// multiBlockSQL is the fixed SQL side of the multi-block gate: the acceptance
// shapes (group-by over a join over a grouped subquery with HAVING/ORDER
// BY/LIMIT) exercised through the parser and the SQL lowering.
var multiBlockSQL = []string{
	`SELECT label, COUNT(*) AS c, SUM(v) AS sv
	 FROM dim JOIN fact ON g = k
	 WHERE v < 50 AND w < 80
	 GROUP BY label HAVING c >= 1 ORDER BY c DESC, label LIMIT 3`,
	`SELECT label, SUM(cnt) AS total
	 FROM (SELECT k, COUNT(*) AS cnt FROM fact WHERE b < 5 GROUP BY k) sub
	 JOIN dim ON sub.k = g
	 GROUP BY label ORDER BY label`,
	`SELECT s, COUNT(*) AS c FROM fact WHERE v < 70 GROUP BY s HAVING c >= 1 ORDER BY s LIMIT 4`,
	// Both join sides derive from the same base: per-output lineage merges
	// the two contributions instead of one overwriting the other.
	`SELECT b, SUM(c1) AS s1, SUM(c2) AS s2
	 FROM (SELECT b, COUNT(*) AS c1 FROM fact GROUP BY b) x
	 JOIN (SELECT k, COUNT(*) AS c2 FROM fact GROUP BY k) y ON b = k
	 GROUP BY b ORDER BY b`,
}

// CheckMultiBlock runs one seeded multi-block differential session over
// randomized plans and the fixed multi-block SQL queries.
func CheckMultiBlock(seed int64, plans int) error {
	r := rand.New(rand.NewSource(seed))
	ds := GenDataset(r)
	defer ds.DB.Close()
	fact2 := genFact2(r, 300+r.Intn(700))
	ds.DB.Register(fact2)
	pl := pool.New(3)
	defer pl.Close()

	// M:N plans draw from their own stream, so the other generated plans are
	// the same with or without them.
	mnr := rand.New(rand.NewSource(-seed))
	for qi := 0; qi < plans; qi++ {
		n, desc := GenMultiBlockPlan(ds, fact2, r)
		if err := checkPlanVariants(ds.DB, n, pl, fmt.Sprintf("seed %d plan %d (%s)", seed, qi, desc)); err != nil {
			return err
		}
		n, desc = GenMNJoinPlan(ds, fact2, mnr)
		if err := checkPlanVariants(ds.DB, n, pl, fmt.Sprintf("seed %d m:n plan %d (%s)", seed, qi, desc)); err != nil {
			return err
		}
	}
	for i, src := range multiBlockSQL {
		st, err := sql.Parse(src)
		if err != nil {
			return fmt.Errorf("difftest: sql %d: %w", i, err)
		}
		n, err := sql.Lower(ds.DB, st)
		if err != nil {
			return fmt.Errorf("difftest: sql %d: %w", i, err)
		}
		if err := checkPlanVariants(ds.DB, n, pl, fmt.Sprintf("seed %d sql %d", seed, i)); err != nil {
			return err
		}
	}
	return nil
}

// checkPlanVariants optimizes n once per lowering (fused and generic) and
// runs every capture variant, comparing each against the reference.
func checkPlanVariants(db *core.DB, n plan.Node, pl *pool.Pool, what string) error {
	generic, _ := plan.Optimize(n, plan.Opts{Catalog: db.Catalog(), NoFusion: true})
	fused, _ := plan.Optimize(n, plan.Opts{Catalog: db.Catalog()})

	variants := PlanVariants(pl)
	if variants[0].Name != "generic/serial/inject/raw" {
		return fmt.Errorf("difftest: variant order broken: %q first", variants[0].Name)
	}
	ref, err := exec.RunPlan(generic, variants[0].Opts)
	if err != nil {
		return fmt.Errorf("difftest: %s: reference run: %w", what, err)
	}
	for _, v := range variants[1:] {
		p := generic
		if v.Fused {
			p = fused
		}
		got, err := exec.RunPlan(p, v.Opts)
		if err != nil {
			return fmt.Errorf("difftest: %s variant %s: %w", what, v.Name, err)
		}
		if err := diffPlanResults(ref, got); err != nil {
			return fmt.Errorf("difftest: %s variant %s: %w", what, v.Name, err)
		}
	}
	return nil
}

// diffPlanResults compares output, group counts, and every backward/forward
// trace of got against the reference (element-identical, order and
// duplicates included).
func diffPlanResults(ref, got exec.PlanResult) error {
	return DiffPlanResults(ref, got)
}

// DiffPlanResults is the exported form of the plan-result comparison (the
// bench harness gates its fused-vs-generic timings on it).
func DiffPlanResults(ref, got exec.PlanResult) error {
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
	refRels := append([]string(nil), ref.Capture.Relations()...)
	gotRels := append([]string(nil), got.Capture.Relations()...)
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
		for o := 0; o < ref.Out.N; o++ {
			want, err := ref.Capture.Backward(rel, []lineage.Rid{lineage.Rid(o)})
			if err != nil {
				return err
			}
			gotL, err := got.Capture.Backward(rel, []lineage.Rid{lineage.Rid(o)})
			if err != nil {
				return err
			}
			if err := diffRids(want, gotL); err != nil {
				return fmt.Errorf("backward lineage of %s output %d: %w", rel, o, err)
			}
		}
		fwIx, err := ref.Capture.ForwardIndex(rel)
		if err != nil {
			return err
		}
		for in := 0; in < fwIx.Len(); in++ {
			want, err := ref.Capture.Forward(rel, []lineage.Rid{lineage.Rid(in)})
			if err != nil {
				return err
			}
			gotL, err := got.Capture.Forward(rel, []lineage.Rid{lineage.Rid(in)})
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
