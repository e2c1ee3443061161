package ops

import (
	"smoke/internal/hashtab"
	"smoke/internal/lineage"
	"smoke/internal/pool"
	"smoke/internal/scratch"
	"smoke/internal/storage"
)

// pkfkLocal is one probe partition's capture state: output pairs and lineage
// with partition-local output rids (rebased during the merge). The serial
// path fills buildFW directly (reusing preallocated indexes, P4); parallel
// partitions instead collect (build rid, local output rid) pairs — a
// build.N-sized index per partition would multiply build-side memory by the
// worker count — and the merge builds one exactly-sized index from them.
type pkfkLocal struct {
	buildBW, probeBW   []Rid
	outBuild, outProbe []Rid
	buildFW            *lineage.RidIndex
	fwPairB, fwPairO   []Rid
	outN               Rid
}

// pkfkProbeRange is the pk-fk probe range kernel, shared by the serial path
// (one range covering everything) and the parallel path (one call per
// morsel): it probes positions [lo, hi) of the probe input (rids, or
// [0, probe.N) when rids is nil) against the shared read-only hash table,
// capturing into local state with range-local output rids. probeFW is the
// shared, probe-rid-addressed forward array; partitions own disjoint probe
// rid sets so its writes never conflict. fastFW selects AppendFast for a
// build-side forward index preallocated from exact match counts (the
// Smoke-I+TC serial path); collectFW gathers build-side forward pairs
// instead of filling an index (the parallel path).
func pkfkProbeRange(lo, hi int, probeCol []int64, ht *hashtab.Map, probeRids []Rid,
	probeFW []Rid, fastFW, collectFW, wantBW, materialize bool, l *pkfkLocal) {

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
			if probeFW != nil {
				probeFW[prid] = o
			}
			if l.buildFW != nil {
				if fastFW {
					l.buildFW.AppendFast(int(brid), o)
				} else {
					l.buildFW.Append(int(brid), o)
				}
			} else if collectFW {
				l.fwPairB = append(l.fwPairB, brid)
				l.fwPairO = append(l.fwPairO, o)
			}
			o++
		}
	}
	scratch.PutInts(keys)
	scratch.PutRids(slots)
	scratch.PutRids(ridBuf)
	l.outN = o
}

// pkfkParallelProbe runs the probe phase of HashJoinPKFK morsel-parallel
// over the (serially built) hash table and merges partition-local captures
// in partition order, producing output and lineage identical to the serial
// probe loop.
func pkfkParallelProbe(build, probe *storage.Relation, probeCol []int64, ht *hashtab.Map,
	probeRids []Rid, nProbe int, opts JoinOpts) PKFKResult {

	capture := opts.Dirs != 0
	wantBW := capture && opts.Dirs.Backward()
	wantFW := capture && opts.Dirs.Forward()

	res := PKFKResult{}
	var probeFW []Rid
	if wantFW {
		probeFW = newForwardArray(probe.N)
	}

	ranges := pool.Split(nProbe, opts.Workers)
	locals := make([]pkfkLocal, len(ranges))
	opts.Pool.RunSplit(ranges, func(part, lo, hi int) {
		pkfkProbeRange(lo, hi, probeCol, ht, probeRids, probeFW, false, wantFW, wantBW, opts.Materialize, &locals[part])
	})

	offsets := make([]Rid, len(locals))
	off := Rid(0)
	for p := range locals {
		offsets[p] = off
		off += locals[p].outN
	}
	res.OutN = int(off)

	if wantBW {
		bb := make([][]Rid, len(locals))
		pb := make([][]Rid, len(locals))
		for p := range locals {
			bb[p] = locals[p].buildBW
			pb[p] = locals[p].probeBW
		}
		res.BuildBW = lineage.ConcatRidArrays(bb)
		res.ProbeBW = lineage.ConcatRidArrays(pb)
		if res.BuildBW == nil {
			// Zero matches: keep the serial kernel's non-nil empty shape
			// (partition 0 ran the same kernel).
			res.BuildBW, res.ProbeBW = locals[0].buildBW, locals[0].probeBW
		}
	}
	if wantFW {
		for p, r := range ranges {
			if probeRids == nil {
				lineage.OffsetRebase(probeFW, r.Lo, r.Hi, offsets[p])
			} else {
				lineage.OffsetRebaseRids(probeFW, probeRids[r.Lo:r.Hi], offsets[p])
			}
		}
		res.ProbeFW = probeFW
		pairB := make([][]Rid, len(locals))
		pairO := make([][]Rid, len(locals))
		for p := range locals {
			pairB[p] = locals[p].fwPairB
			pairO[p] = locals[p].fwPairO
		}
		res.BuildFW = lineage.MergePairsByRid(pairB, pairO, build.N,
			func(part int, o Rid) Rid { return o + offsets[part] })
	}
	if opts.Materialize {
		b, p := res.BuildBW, res.ProbeBW
		if b == nil {
			ob := make([][]Rid, len(locals))
			op := make([][]Rid, len(locals))
			for i := range locals {
				ob[i] = locals[i].outBuild
				op[i] = locals[i].outProbe
			}
			b, p = lineage.ConcatRidArrays(ob), lineage.ConcatRidArrays(op)
		}
		res.Out = materializeJoinCols(build, probe, b, p, opts.Cols)
	}
	return res
}
