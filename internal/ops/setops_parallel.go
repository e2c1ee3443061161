package ops

import (
	"smoke/internal/lineage"
	"smoke/internal/pool"
	"smoke/internal/storage"
)

// Morsel-parallel set-union capture. The hash-table build, probe, and
// output-scan phases stay serial (they determine the output and are mutation
// heavy), but the lineage backfill — which dominates capture cost and only
// probes the pinned table read-only, exactly like the serial Defer pass —
// splits each input into contiguous rid-range partitions. Partition-local
// (output id, input rid) pairs merge in partition order via MergePairsByRid,
// and forward entries write into a shared rid-addressed array (partitions own
// disjoint rid ranges). The merged indexes are element-identical to a serial
// run under either capture mode, because serial Inject and Defer already
// build identical indexes: both append each output's rids in input-scan
// order.

// SetUnionPar is SetUnion with morsel-parallel lineage capture when
// workers > 1 (workers <= 1 delegates to the serial operator).
func SetUnionPar(a *storage.Relation, aAttrs []string, b *storage.Relation, bAttrs []string,
	mode CaptureMode, dirs Directions, workers int, pl *pool.Pool) (SetOpResult, error) {

	if workers <= 1 || mode == None || dirs == 0 || a.N+b.N < 2 {
		return SetUnion(a, aAttrs, b, bAttrs, mode, dirs)
	}

	// Serial execution phases without capture (Defer-style: the pinned hash
	// table carries everything the backfill needs).
	res, t, _, err := setOpExec(a, aAttrs, b, bAttrs, unionKind)
	if err != nil {
		return SetOpResult{}, err
	}
	outN := res.Out.N
	captureB := true

	if dirs.Forward() {
		res.AFW = newForwardArray(a.N)
		res.BFW = newForwardArray(b.N)
	}

	backfill := func(rel *storage.Relation, attrs []string, fw []Rid) (*lineage.RidIndex, error) {
		ranges := pool.Split(rel.N, workers)
		pairO := make([][]Rid, len(ranges))
		pairR := make([][]Rid, len(ranges))
		var encErr error
		pl.RunSplit(ranges, func(part, lo, hi int) {
			enc, err := newSetKeyEnc(rel, attrs)
			if err != nil {
				encErr = err
				return
			}
			var po, pr []Rid
			for rid := int32(lo); rid < int32(hi); rid++ {
				slot := t.lookup(enc.encode(rid), false)
				if slot < 0 {
					continue
				}
				oid := t.entries[slot].oid
				if oid < 0 {
					continue
				}
				if dirs.Backward() {
					po = append(po, oid)
					pr = append(pr, rid)
				}
				if fw != nil {
					fw[rid] = oid
				}
			}
			pairO[part], pairR[part] = po, pr
		})
		if encErr != nil {
			return nil, encErr
		}
		if !dirs.Backward() {
			return nil, nil
		}
		// Output ids are global already; only the per-output concatenation
		// order (partition order = input scan order) matters.
		return lineage.MergePairsByRid(pairO, pairR, outN,
			func(_ int, v Rid) Rid { return v }), nil
	}

	abw, err := backfill(a, aAttrs, res.AFW)
	if err != nil {
		return SetOpResult{}, err
	}
	res.ABW = abw
	if captureB {
		bbw, err := backfill(b, bAttrs, res.BFW)
		if err != nil {
			return SetOpResult{}, err
		}
		res.BBW = bbw
	}
	return res, nil
}
