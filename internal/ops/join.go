package ops

import (
	"fmt"

	"smoke/internal/hashtab"
	"smoke/internal/lineage"
	"smoke/internal/pool"
	"smoke/internal/scratch"
	"smoke/internal/storage"
)

// JoinOpts configures hash-join instrumentation.
type JoinOpts struct {
	Dirs Directions
	// CountsByBuildKey supplies exact match counts per integer build key k in
	// [1, len], used by Smoke-I+TC (§6.1.2) to preallocate the build side's
	// forward rid index and avoid resizing. It applies to a one-partition
	// probe only: several partitions collect forward pairs and the merge
	// sizes the index exactly instead (global counts would overallocate
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
	// Workers splits the probe input (pk-fk and M:N joins alike) into up to
	// Workers contiguous partitions. The build is serial (the hash table is
	// then shared read-only), each partition captures with partition-local
	// output rids, and the merge rebases them by each partition's output
	// offset, so every partition count yields the same result; <= 1 is the
	// one-partition case, whose local state is the result. Several pk-fk
	// partitions require probeRids entries to be distinct (rid sets from
	// selections are): partitions share the probe-side forward array keyed
	// by rid.
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

// listSink is one partition's share of a 1-to-N rid index (entry → rid
// list). The only partition appends to the index itself (ix), which is then
// the result; each of several partitions collects (entry, value) pairs
// instead, because an entry-sized index per partition would multiply memory
// by the worker count, and mergeSinks builds one exactly-sized index from
// them. Kernels branch on ix themselves: a method covering both cases would
// not inline, and the one-partition capture write stays one call into the
// index (P1).
type listSink struct {
	ix         *lineage.RidIndex
	keys, vals []Rid
}

func (s *listSink) pair(key, v Rid) {
	s.keys = append(s.keys, key)
	s.vals = append(s.vals, v)
}

// mergeSinks returns the index over n entries that the partitions' sinks
// describe: the only partition's own index, or the pairs merged in partition
// order (input scan order) with partition p's values rebased by offs[p]
// (offs nil: the values are global already).
func mergeSinks(parts, n int, sink func(p int) *listSink, offs []Rid) *lineage.RidIndex {
	if parts == 1 {
		return sink(0).ix
	}
	keys := make([][]Rid, parts)
	vals := make([][]Rid, parts)
	for p := range keys {
		keys[p], vals[p] = sink(p).keys, sink(p).vals
	}
	return lineage.MergePairsByRid(keys, vals, n, func(p int, v Rid) Rid {
		if offs == nil {
			return v
		}
		return v + offs[p]
	})
}

// concatParts concatenates one rid array per partition in partition order.
// The only partition's array is the result itself, and partition 0's
// (non-nil, empty) array stands when every partition is empty.
func concatParts(parts int, arr func(p int) []Rid) []Rid {
	if parts == 1 {
		return arr(0)
	}
	all := make([][]Rid, parts)
	for p := range all {
		all[p] = arr(p)
	}
	if out := lineage.ConcatRidArrays(all); out != nil {
		return out
	}
	return all[0]
}

// outOffsets returns each partition's global output offset and the total
// output count.
func outOffsets(parts int, outN func(p int) Rid) ([]Rid, Rid) {
	offs := make([]Rid, parts)
	off := Rid(0)
	for p := range offs {
		offs[p] = off
		off += outN(p)
	}
	return offs, off
}

// HashJoinPKFK joins build ⋈ probe on build.buildKey = probe.probeKey where
// buildKey is unique (a primary key). buildRids/probeRids restrict each side
// to a rid subset (nil = all rows), which is how filters pipeline into the
// join inside SPJA blocks.
//
// Because the build key is unique, hash entries hold a single rid instead of
// a rid array, and because the output cardinality is bounded by the probe
// cardinality, backward arrays are preallocated (§3.2.4 "Further
// optimizations"). The build is serial; the probe runs pkfkProbeRange once
// per partition of the probe input and merges in partition order.
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
	ranges := pool.Split(nProbe, opts.Workers)
	locals := make([]pkfkLocal, len(ranges))
	wantBW, wantFW := opts.Dirs.Backward(), opts.Dirs.Forward()
	res := PKFKResult{}
	if wantFW {
		// Initialized to -1 unconditionally: even a pk-fk probe row can miss
		// when the build side was filtered.
		res.ProbeFW = newForwardArray(probe.N)
		if len(ranges) == 1 {
			// The only partition fills the build-side index directly,
			// preallocated exactly when match counts are known (Smoke-I+TC).
			if opts.CountsByBuildKey != nil {
				counts := make([]int32, build.N)
				for rid := 0; rid < build.N; rid++ {
					k := buildCol[rid]
					if k >= 1 && int(k) <= len(opts.CountsByBuildKey) {
						counts[rid] = opts.CountsByBuildKey[k-1]
					}
				}
				locals[0].buildFW.ix = lineage.NewRidIndexWithCounts(counts)
			} else {
				locals[0].buildFW.ix = lineage.NewRidIndex(build.N)
			}
		}
	}
	opts.Pool.RunSplit(ranges, func(part, lo, hi int) {
		locals[part] = pkfkProbeRange(lo, hi, probeCol, ht, probeRids, res.ProbeFW, wantBW, wantFW, opts.Materialize, locals[part])
	})

	offs, outN := outOffsets(len(locals), func(p int) Rid { return locals[p].outN })
	res.OutN = int(outN)
	if wantBW {
		res.BuildBW = concatParts(len(locals), func(p int) []Rid { return locals[p].buildBW })
		res.ProbeBW = concatParts(len(locals), func(p int) []Rid { return locals[p].probeBW })
	}
	if wantFW {
		for p, r := range ranges {
			if probeRids == nil {
				lineage.OffsetRebase(res.ProbeFW, r.Lo, r.Hi, offs[p])
			} else {
				lineage.OffsetRebaseRids(res.ProbeFW, probeRids[r.Lo:r.Hi], offs[p])
			}
		}
		res.BuildFW = mergeSinks(len(locals), build.N, func(p int) *listSink { return &locals[p].buildFW }, offs)
	}
	if opts.Materialize {
		b, p := res.BuildBW, res.ProbeBW
		if !wantBW {
			b = concatParts(len(locals), func(p int) []Rid { return locals[p].outBuild })
			p = concatParts(len(locals), func(p int) []Rid { return locals[p].outProbe })
		}
		res.Out = materializeJoinCols(build, probe, b, p, opts.Cols)
	}
	return res, nil
}

// pkfkLocal is one probe partition's capture state, with partition-local
// output rids: backward arrays, the build side's forward sink, and the
// output pairs materialization gathers when backward capture is off.
type pkfkLocal struct {
	buildBW, probeBW   []Rid
	outBuild, outProbe []Rid
	buildFW            listSink
	outN               Rid
}

// pkfkProbeRange is the pk-fk probe range kernel: it probes positions
// [lo, hi) of the probe input (probeRids, or [0, probe.N) when nil) against
// the shared read-only hash table, capturing into l with range-local output
// rids, and returns l. probeFW is the shared, probe-rid-addressed forward
// array; partitions own disjoint probe rid sets so its writes never
// conflict. l travels by value, so the kernel's appends update its own
// stack frame: no write barrier, and no cache line shared with another
// partition.
func pkfkProbeRange(lo, hi int, probeCol []int64, ht *hashtab.Map, probeRids []Rid,
	probeFW []Rid, wantBW, wantFW, materialize bool, l pkfkLocal) pkfkLocal {

	wantPairs := materialize && !wantBW
	if wantBW {
		l.buildBW = make([]Rid, 0, hi-lo)
		l.probeBW = make([]Rid, 0, hi-lo)
	} else if wantPairs {
		l.outBuild = make([]Rid, 0, hi-lo)
		l.outProbe = make([]Rid, 0, hi-lo)
	}
	// Probes run batched: keys gather into pooled scratch and the hash table
	// resolves a whole batch per call (hashing amortized, probe loop
	// bounds-check-free); matches then materialize in probe order, so output
	// and lineage are identical to a row-at-a-time loop. Build rids are
	// non-negative, so GetBatch's -1 sentinel is unambiguous for misses.
	keys := scratch.Ints(aggBatchSize)
	slots := scratch.Rids(aggBatchSize)
	ridBuf := scratch.Rids(aggBatchSize)
	buildFW := l.buildFW.ix
	o := Rid(0)
	for base := lo; base < hi; base += aggBatchSize {
		end := base + aggBatchSize
		if end > hi {
			end = hi
		}
		m := end - base
		rb := ridBuf[:m]
		if probeRids == nil {
			for j := range rb {
				rb[j] = Rid(base + j)
			}
		} else {
			copy(rb, probeRids[base:end])
		}
		kb, sb := keys[:m], slots[:m]
		for j, r := range rb {
			kb[j] = probeCol[r]
		}
		ht.GetBatch(kb, sb)
		for j, brid := range sb {
			if brid < 0 {
				continue
			}
			prid := rb[j]
			if wantBW {
				l.buildBW = append(l.buildBW, brid)
				l.probeBW = append(l.probeBW, prid)
			} else if wantPairs {
				l.outBuild = append(l.outBuild, brid)
				l.outProbe = append(l.outProbe, prid)
			}
			if wantFW {
				probeFW[prid] = o
				if buildFW != nil {
					buildFW.AppendFast(int(brid), o)
				} else {
					l.buildFW.pair(brid, o)
				}
			}
			o++
		}
	}
	scratch.PutInts(keys)
	scratch.PutRids(slots)
	scratch.PutRids(ridBuf)
	l.outN = o
	return l
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

// HashJoinMN joins left ⋈ right on integer keys with general M:N
// multiplicity, capturing lineage per the selected variant at every
// partition count. The build (⋈ht) is serial; the probe (⋈probe) runs
// mnProbeRange once per partition of the right input and merges in partition
// order. Inject captures all four indexes in the probe. The Defer variants
// record, per matching probe row, its build entry and first output rid; the
// merge groups those by entry (the paper's o_rids) and the deferred left-side
// construction (scanht, Listing 11) then runs once, exactly preallocated.
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

	// Build phase (⋈ht): group left rids by key, one entry per key.
	ht := hashtab.New(64)
	var entries [][]Rid
	for rid := int32(0); rid < int32(left.N); rid++ {
		idx, inserted := ht.GetOrPut(leftCol[rid], int32(len(entries)))
		if inserted {
			entries = append(entries, nil)
		}
		entries[idx] = lineage.AppendRid(entries[idx], rid)
	}

	wantBW, wantFW := opts.Dirs.Backward(), opts.Dirs.Forward()
	deferFW := wantFW && variant != MNInject
	deferBW := wantBW && variant == MNDefer
	c := mnCapture{
		leftBW: wantBW && !deferBW, rightBW: wantBW,
		leftFW: wantFW && !deferFW, rightFW: wantFW,
		firsts: deferFW || deferBW, pairs: opts.Materialize && !wantBW,
	}
	ranges := pool.Split(right.N, opts.Workers)
	locals := make([]mnLocal, len(ranges))
	if len(ranges) == 1 {
		// The only partition appends to the forward indexes directly, under
		// the growth policy Smoke-I's left index pays (Fig. 7).
		if c.leftFW {
			locals[0].leftFW.ix = lineage.NewRidIndex(left.N)
		}
		if c.rightFW {
			locals[0].rightFW.ix = lineage.NewRidIndex(right.N)
		}
	}
	opts.Pool.RunSplit(ranges, func(part, lo, hi int) {
		locals[part] = mnProbeRange(lo, hi, rightCol, ht, entries, c, locals[part])
	})

	parts := len(locals)
	offs, outN := outOffsets(parts, func(p int) Rid { return locals[p].outN })
	res := MNResult{OutN: int(outN)}
	if c.leftBW {
		res.LeftBW = concatParts(parts, func(p int) []Rid { return locals[p].leftBW })
	}
	if c.rightBW {
		res.RightBW = concatParts(parts, func(p int) []Rid { return locals[p].rightBW })
	}
	if c.leftFW {
		res.LeftFW = mergeSinks(parts, left.N, func(p int) *listSink { return &locals[p].leftFW }, offs)
	}
	if c.rightFW {
		res.RightFW = mergeSinks(parts, right.N, func(p int) *listSink { return &locals[p].rightFW }, offs)
	}
	if c.firsts {
		fw, bw := mnScanht(entries, locals, offs, left.N, res.OutN, deferFW, deferBW)
		if deferFW {
			res.LeftFW = fw
		}
		if deferBW {
			res.LeftBW = bw
		}
	}
	if opts.Materialize {
		lb, rb := res.LeftBW, res.RightBW
		if c.pairs {
			lb = concatParts(parts, func(p int) []Rid { return locals[p].outLeft })
			rb = concatParts(parts, func(p int) []Rid { return locals[p].outRight })
		}
		res.Out = materializeJoinCols(left, right, lb, rb, opts.Cols)
	}
	return res, nil
}

// mnCapture is what every M:N probe partition records, fixed by the variant
// and the captured directions.
type mnCapture struct {
	leftBW, rightBW bool
	leftFW, rightFW bool
	firsts          bool // Defer: (build entry, first output rid) per matching probe row
	pairs           bool // output pairs for materialization without backward capture
}

// mnLocal is one probe partition's capture state, with partition-local
// output rids.
type mnLocal struct {
	leftBW, rightBW   []Rid
	outLeft, outRight []Rid
	leftFW, rightFW   listSink
	firstE            []int32
	firstO            []Rid
	outN              Rid
}

// mnProbeRange is the M:N probe range kernel: it probes right rids [lo, hi)
// against the shared read-only build table, capturing into l (by value, as
// in pkfkProbeRange) with range-local output rids, and returns l.
func mnProbeRange(lo, hi int, rightCol []int64, ht *hashtab.Map, entries [][]Rid, c mnCapture, l mnLocal) mnLocal {
	if c.leftBW {
		l.leftBW = make([]Rid, 0, hi-lo)
	}
	if c.rightBW {
		l.rightBW = make([]Rid, 0, hi-lo)
	}
	if c.pairs {
		l.outLeft = make([]Rid, 0, hi-lo)
		l.outRight = make([]Rid, 0, hi-lo)
	}
	leftFW, rightFW := l.leftFW.ix, l.rightFW.ix
	o := Rid(0)
	for rrid := Rid(lo); rrid < Rid(hi); rrid++ {
		idx, ok := ht.Get(rightCol[rrid])
		if !ok {
			continue
		}
		if c.firsts {
			// Outputs of this probe row are emitted contiguously, so only
			// the first output rid of the block is recorded (§3.2.4).
			l.firstE = append(l.firstE, idx)
			l.firstO = append(l.firstO, o)
		}
		for _, lrid := range entries[idx] {
			if c.leftBW {
				l.leftBW = lineage.AppendRid(l.leftBW, lrid)
			}
			if c.rightBW {
				l.rightBW = lineage.AppendRid(l.rightBW, rrid)
			}
			if c.pairs {
				l.outLeft = append(l.outLeft, lrid)
				l.outRight = append(l.outRight, rrid)
			}
			if c.leftFW {
				if leftFW != nil {
					leftFW.AppendFast(int(lrid), o)
				} else {
					l.leftFW.pair(lrid, o)
				}
			}
			if c.rightFW {
				if rightFW != nil {
					rightFW.AppendFast(int(rrid), o)
				} else {
					l.rightFW.pair(rrid, o)
				}
			}
			o++
		}
	}
	l.outN = o
	return l
}

// mnScanht is the deferred left-side construction (scanht, Listing 11). The
// partitions' (entry, first output rid) records, rebased by partition
// offset and grouped by entry in partition order, are each entry's o_rids
// in probe order; exact cardinalities are then known, so the left forward
// index is preallocated and never resizes, and left backward fills by
// position.
func mnScanht(entries [][]Rid, locals []mnLocal, offs []Rid, nLeft, outN int, fw, bw bool) (*lineage.RidIndex, []Rid) {
	start := make([]int32, len(entries)+1)
	for p := range locals {
		for _, e := range locals[p].firstE {
			start[e+1]++
		}
	}
	for e := range entries {
		start[e+1] += start[e]
	}
	firsts := make([]Rid, start[len(entries)])
	next := append([]int32(nil), start[:len(entries)]...)
	for p := range locals {
		l := &locals[p]
		for i, e := range l.firstE {
			firsts[next[e]] = l.firstO[i] + offs[p]
			next[e]++
		}
	}

	var leftFW *lineage.RidIndex
	if fw {
		counts := make([]int32, nLeft)
		for e, rids := range entries {
			for _, r := range rids {
				counts[r] = start[e+1] - start[e]
			}
		}
		leftFW = lineage.NewRidIndexWithCounts(counts)
	}
	var leftBW []Rid
	if bw {
		leftBW = make([]Rid, outN)
	}
	for e, rids := range entries {
		oRids := firsts[start[e]:start[e+1]]
		for s, r := range rids {
			for _, first := range oRids {
				out := first + Rid(s)
				if fw {
					leftFW.AppendFast(int(r), out)
				}
				if bw {
					leftBW[out] = r
				}
			}
		}
	}
	return leftFW, leftBW
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
