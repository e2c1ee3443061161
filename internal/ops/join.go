package ops

import (
	"fmt"

	"smoke/internal/hashtab"
	"smoke/internal/lineage"
	"smoke/internal/pool"
	"smoke/internal/storage"
)

// JoinOpts configures hash-join instrumentation.
type JoinOpts struct {
	Dirs Directions
	// CountsByBuildKey supplies exact match counts per integer build key k in
	// [1, len], used by Smoke-I+TC (§6.1.2) to preallocate the build side's
	// forward rid index and avoid resizing. Serial only: the parallel probe
	// builds partition-local indexes under the growth policy and merges them
	// into an exactly-sized index instead (global counts would overallocate
	// every partition).
	CountsByBuildKey []int32
	// Materialize controls whether the joined output relation is produced.
	// The M:N microbenchmark (§6.1.3) disables it because the skewed join is
	// nearly a cross product and materialization would dominate.
	Materialize bool
	// Cols, when non-nil, restricts the materialized output to the named
	// columns (projection pruning — the plan optimizer passes the column set
	// the ancestors actually read). Lineage is unaffected.
	Cols []string
	// Workers > 1 runs the probe phase morsel-parallel (both the pk-fk and
	// the M:N join): the build is always serial (the hash table is then
	// shared read-only), probe partitions capture into partition-local
	// arrays, and the merge rebases partition-local output rids by each
	// partition's output offset. The merged result is identical to
	// workers=1. Parallel pk-fk execution requires probeRids entries to be
	// distinct (rid sets from selections are): partitions share the
	// probe-side forward array keyed by rid.
	Workers int
	// Pool schedules the probe partitions; nil runs them inline.
	Pool *pool.Pool
}

// PKFKResult is the output of an instrumented primary-key/foreign-key join
// with the hash table built on the primary-key side. Backward lineage is a
// rid array per side (each output joins exactly one build row and one probe
// row); the probe (foreign-key) side's forward index is a rid array because
// each fk row produces at most one output; the build side's forward index is
// a rid index. Inject and Defer coincide for pk-fk joins (§3.2.4).
type PKFKResult struct {
	Out     *storage.Relation
	OutN    int
	BuildBW []Rid
	ProbeBW []Rid
	BuildFW *lineage.RidIndex
	ProbeFW []Rid
}

// intKeyCol validates and returns an integer join-key column.
func intKeyCol(rel *storage.Relation, key string) ([]int64, error) {
	c := rel.Schema.Col(key)
	if c < 0 {
		return nil, fmt.Errorf("ops: unknown join column %q in %s", key, rel.Name)
	}
	if rel.Schema[c].Type != storage.TInt {
		return nil, fmt.Errorf("ops: join column %s.%s must be INT", rel.Name, key)
	}
	return rel.Cols[c].Ints, nil
}

// HashJoinPKFK joins build ⋈ probe on build.buildKey = probe.probeKey where
// buildKey is unique (a primary key). buildRids/probeRids restrict each side
// to a rid subset (nil = all rows), which is how filters pipeline into the
// join inside SPJA blocks.
//
// Because the build key is unique, hash entries hold a single rid instead of
// a rid array, and because the output cardinality is bounded by the probe
// cardinality, backward arrays are preallocated (§3.2.4 "Further
// optimizations").
func HashJoinPKFK(build *storage.Relation, buildKey string, buildRids []Rid,
	probe *storage.Relation, probeKey string, probeRids []Rid, opts JoinOpts) (PKFKResult, error) {

	buildCol, err := intKeyCol(build, buildKey)
	if err != nil {
		return PKFKResult{}, err
	}
	probeCol, err := intKeyCol(probe, probeKey)
	if err != nil {
		return PKFKResult{}, err
	}

	// Build phase: pk side, single rid per entry.
	nBuild := build.N
	if buildRids != nil {
		nBuild = len(buildRids)
	}
	ht := hashtab.New(nBuild)
	if buildRids == nil {
		for rid := int32(0); rid < int32(build.N); rid++ {
			ht.Put(buildCol[rid], rid)
		}
	} else {
		for _, rid := range buildRids {
			ht.Put(buildCol[rid], rid)
		}
	}

	nProbe := probe.N
	if probeRids != nil {
		nProbe = len(probeRids)
	}

	if opts.Workers > 1 && nProbe > 1 {
		return pkfkParallelProbe(build, probe, probeCol, ht, probeRids, nProbe, opts), nil
	}

	// Serial probe: one range kernel invocation covering the whole input
	// (the workers=1 specialization of the parallel path). Backward arrays
	// preallocate at the probe-side output bound; without capture, the
	// baseline's materialization pairs preallocate the same way so the
	// capture-vs-baseline comparison measures lineage writes, not
	// incidental append growth.
	res := PKFKResult{}
	capture := opts.Dirs != 0
	var l pkfkLocal
	if capture && opts.Dirs.Forward() {
		// Initialized to -1 unconditionally: even a pk-fk probe row can miss
		// when the build side was filtered.
		res.ProbeFW = newForwardArray(probe.N)
		if opts.CountsByBuildKey != nil {
			counts := make([]int32, build.N)
			for rid := 0; rid < build.N; rid++ {
				k := buildCol[rid]
				if k >= 1 && int(k) <= len(opts.CountsByBuildKey) {
					counts[rid] = opts.CountsByBuildKey[k-1]
				}
			}
			l.buildFW = lineage.NewRidIndexWithCounts(counts)
		} else {
			l.buildFW = lineage.NewRidIndex(build.N)
		}
		res.BuildFW = l.buildFW
	}
	pkfkProbeRange(0, nProbe, probeCol, ht, probeRids, res.ProbeFW,
		opts.CountsByBuildKey != nil, false, capture && opts.Dirs.Backward(), opts.Materialize, &l)
	res.BuildBW, res.ProbeBW = l.buildBW, l.probeBW
	res.OutN = int(l.outN)

	if opts.Materialize {
		b, p := res.BuildBW, res.ProbeBW
		if b == nil {
			b, p = l.outBuild, l.outProbe
		}
		res.Out = materializeJoinCols(build, probe, b, p, opts.Cols)
	}
	return res, nil
}

// MNVariant selects the M:N join instrumentation (§3.2.4, Listings 10/11).
type MNVariant uint8

const (
	// MNInject populates all four indexes inside the probe loop; the left
	// forward rid index resizes whenever an input record has many matches.
	MNInject MNVariant = iota
	// MNDeferForward defers only the left forward index (Smoke-D-DeferForw):
	// match cardinalities collected during the probe allow exact
	// preallocation afterwards.
	MNDeferForward
	// MNDefer defers both left indexes (Smoke-D).
	MNDefer
)

// MNResult is the output of an instrumented M:N hash join (build on left).
// Backward lineage per side is a rid array over outputs; forward lineage per
// side is a rid index (an input record can generate multiple join results).
type MNResult struct {
	Out     *storage.Relation
	OutN    int
	LeftBW  []Rid
	RightBW []Rid
	LeftFW  *lineage.RidIndex
	RightFW *lineage.RidIndex
}

// mnEntry is a hash-table entry of the M:N build phase: the left rids sharing
// a join key, plus (Defer variants) the first output rid of each probe match.
type mnEntry struct {
	iRids []Rid
	oRids []Rid // Defer: output rid where each matching probe row's block starts
}

// HashJoinMN joins left ⋈ right on integer keys with general M:N
// multiplicity, capturing lineage per the selected variant.
func HashJoinMN(left *storage.Relation, leftKey string, right *storage.Relation, rightKey string,
	variant MNVariant, opts JoinOpts) (MNResult, error) {

	leftCol, err := intKeyCol(left, leftKey)
	if err != nil {
		return MNResult{}, err
	}
	rightCol, err := intKeyCol(right, rightKey)
	if err != nil {
		return MNResult{}, err
	}

	// Build phase (⋈ht): group left rids by key.
	ht := hashtab.New(64)
	var entries []mnEntry
	for rid := int32(0); rid < int32(left.N); rid++ {
		k := leftCol[rid]
		idx, inserted := ht.GetOrPut(k, int32(len(entries)))
		if inserted {
			entries = append(entries, mnEntry{})
			idx = int32(len(entries) - 1)
		}
		e := &entries[idx]
		e.iRids = lineage.AppendRid(e.iRids, rid)
	}

	if opts.Workers > 1 && right.N > 1 {
		// Morsel-parallel probe (mn_parallel.go). Partition-local capture is
		// inject-style for every variant: serial Inject and Defer build
		// element-identical indexes, so the merged result matches both.
		return mnParallelProbe(left, right, rightCol, ht, entries, opts), nil
	}

	res := MNResult{}
	capture := opts.Dirs != 0
	deferLeft := variant != MNInject

	if capture && opts.Dirs.Backward() {
		res.RightBW = make([]Rid, 0, right.N)
		if variant != MNDefer {
			res.LeftBW = make([]Rid, 0, right.N)
		}
	}
	if capture && opts.Dirs.Forward() {
		res.RightFW = lineage.NewRidIndex(right.N)
		if !deferLeft {
			res.LeftFW = lineage.NewRidIndex(left.N)
		}
	}

	// Probe phase (⋈probe).
	o := int32(0)
	for rrid := int32(0); rrid < int32(right.N); rrid++ {
		idx, ok := ht.Get(rightCol[rrid])
		if !ok {
			continue
		}
		e := &entries[idx]
		if capture && deferLeft {
			// Outputs of this probe row are emitted contiguously, so o_rids
			// only stores the first output rid of the block (§3.2.4).
			e.oRids = lineage.AppendRid(e.oRids, o)
		}
		for j := 0; j < len(e.iRids); j++ {
			if capture {
				if res.LeftBW != nil && variant != MNDefer {
					res.LeftBW = lineage.AppendRid(res.LeftBW, e.iRids[j])
				}
				if res.RightBW != nil {
					res.RightBW = lineage.AppendRid(res.RightBW, rrid)
				}
				if res.LeftFW != nil {
					res.LeftFW.Append(int(e.iRids[j]), o)
				}
				if res.RightFW != nil {
					res.RightFW.Append(int(rrid), o)
				}
			}
			o++
		}
	}
	res.OutN = int(o)

	// Deferred construction for the left side (scanht, Listing 11): exact
	// cardinalities are now known, so indexes are preallocated and never
	// resize.
	if capture && deferLeft {
		if opts.Dirs.Forward() {
			counts := make([]int32, left.N)
			for i := range entries {
				e := &entries[i]
				for _, r := range e.iRids {
					counts[r] = int32(len(e.oRids))
				}
			}
			res.LeftFW = lineage.NewRidIndexWithCounts(counts)
		}
		needBW := opts.Dirs.Backward() && variant == MNDefer
		if needBW {
			res.LeftBW = make([]Rid, res.OutN)
		}
		for i := range entries {
			e := &entries[i]
			for s, r := range e.iRids {
				for _, first := range e.oRids {
					out := first + Rid(s)
					if res.LeftFW != nil {
						res.LeftFW.AppendFast(int(r), out)
					}
					if needBW {
						res.LeftBW[out] = r
					}
				}
			}
		}
	}

	if opts.Materialize {
		lb, rb := res.LeftBW, res.RightBW
		if lb == nil || rb == nil {
			// Re-derive output pairs for materialization when backward
			// capture was pruned.
			lb = make([]Rid, 0, res.OutN)
			rb = make([]Rid, 0, res.OutN)
			for rrid := int32(0); rrid < int32(right.N); rrid++ {
				idx, ok := ht.Get(rightCol[rrid])
				if !ok {
					continue
				}
				for _, lrid := range entries[idx].iRids {
					lb = append(lb, lrid)
					rb = append(rb, rrid)
				}
			}
		}
		res.Out = materializeJoinCols(left, right, lb, rb, opts.Cols)
	}
	return res, nil
}

// materializeJoin gathers both sides into a single output relation. Columns
// whose names collide get a relation-name prefix.
func materializeJoin(left, right *storage.Relation, leftRids, rightRids []Rid) *storage.Relation {
	return materializeJoinCols(left, right, leftRids, rightRids, nil)
}

// materializeJoinCols is materializeJoin restricted to the named columns
// (nil = all): the gather loops only touch columns the caller needs, which is
// the physical half of the optimizer's projection-pruning rule. Columns whose
// names collide between the sides are always kept (under a relation-name
// prefix) — the optimizer never prunes across a collision.
func materializeJoinCols(left, right *storage.Relation, leftRids, rightRids []Rid, keep []string) *storage.Relation {
	kept := func(name string) bool {
		if keep == nil {
			return true
		}
		for _, k := range keep {
			if k == name {
				return true
			}
		}
		return false
	}
	schema := make(storage.Schema, 0, len(left.Schema)+len(right.Schema))
	cols := make([]storage.Column, 0, cap(schema))
	gatherCol := func(rel *storage.Relation, c int, rids []Rid, name string) {
		f := rel.Schema[c]
		schema = append(schema, storage.Field{Name: name, Type: f.Type})
		var col storage.Column
		switch f.Type {
		case storage.TInt:
			src := rel.Cols[c].Ints
			col.Ints = make([]int64, len(rids))
			for i, rid := range rids {
				col.Ints[i] = src[rid]
			}
		case storage.TFloat:
			src := rel.Cols[c].Floats
			col.Floats = make([]float64, len(rids))
			for i, rid := range rids {
				col.Floats[i] = src[rid]
			}
		case storage.TString:
			src := rel.Cols[c].Strs
			col.Strs = make([]string, len(rids))
			for i, rid := range rids {
				col.Strs[i] = src[rid]
			}
		}
		cols = append(cols, col)
	}
	for c, f := range left.Schema {
		name := f.Name
		collides := right.Schema.Col(name) >= 0
		if collides {
			name = left.Name + "." + name
		}
		if collides || kept(f.Name) {
			gatherCol(left, c, leftRids, name)
		}
	}
	for c, f := range right.Schema {
		name := f.Name
		collides := left.Schema.Col(name) >= 0
		if collides {
			name = right.Name + "." + name
		}
		if collides || kept(f.Name) {
			gatherCol(right, c, rightRids, name)
		}
	}
	return &storage.Relation{
		Name:   left.Name + "_join_" + right.Name,
		Schema: schema,
		Cols:   cols,
		N:      len(leftRids),
	}
}
