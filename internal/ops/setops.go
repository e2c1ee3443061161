package ops

import (
	"fmt"

	"smoke/internal/lineage"
	"smoke/internal/pool"
	"smoke/internal/storage"
)

// setKeyEnc encodes the set-operation attributes of a row into a byte key (the
// key byte format of keyCol.appendKey) so rows from both input relations hash
// into one shared table regardless of column positions or types.
type setKeyEnc struct {
	cols []keyCol
	buf  []byte
}

func newSetKeyEnc(rel *storage.Relation, attrs []string) (*setKeyEnc, error) {
	e := &setKeyEnc{}
	for _, a := range attrs {
		kc, err := compileKeyCol(rel, 0, a)
		if err != nil {
			return nil, fmt.Errorf("ops: unknown set-op column %q in %s", a, rel.Name)
		}
		e.cols = append(e.cols, kc)
	}
	return e, nil
}

// fork returns an encoder over the same columns with its own key buffer, for
// a concurrent partition.
func (e *setKeyEnc) fork() *setKeyEnc { return &setKeyEnc{cols: e.cols} }

func (e *setKeyEnc) encode(rid Rid) []byte {
	e.buf = e.buf[:0]
	for i := range e.cols {
		e.buf = e.cols[i].appendKey(e.buf, rid)
	}
	return e.buf
}

// SetOpResult is the output of an instrumented set operation. Backward
// indexes are 1-to-N (an output value may come from many input duplicates);
// forward indexes are rid arrays with -1 for input records that produce no
// output (possible for intersection and difference).
type SetOpResult struct {
	Out *storage.Relation
	ABW *lineage.RidIndex
	BBW *lineage.RidIndex
	AFW []Rid
	BFW []Rid
}

// setEntry is a shared hash-table entry for set union/intersection/difference.
type setEntry struct {
	repA  Rid // representative rid in A (or -1)
	repB  Rid // representative rid in B (or -1)
	aRids []Rid
	bRids []Rid
	seenB bool
	oid   int32
}

type setTable struct {
	slots   map[string]int32
	entries []setEntry
}

func newSetTable() *setTable {
	return &setTable{slots: map[string]int32{}}
}

func (t *setTable) lookup(key []byte, insert bool) int32 {
	if s, ok := t.slots[string(key)]; ok {
		return s
	}
	if !insert {
		return -1
	}
	s := int32(len(t.entries))
	t.slots[string(key)] = s
	t.entries = append(t.entries, setEntry{repA: -1, repB: -1, oid: -1})
	return s
}

// setOutput materializes the output relation of a set operation: the set-op
// attributes of each emitted entry, gathered from whichever input holds its
// representative.
func setOutput(name string, a, b *storage.Relation, aAttrs, bAttrs []string, entries []setEntry, emitted []int32) *storage.Relation {
	schema := make(storage.Schema, len(aAttrs))
	aCols := make([]int, len(aAttrs))
	bCols := make([]int, len(bAttrs))
	for i := range aAttrs {
		aCols[i] = a.Schema.MustCol(aAttrs[i])
		bCols[i] = b.Schema.MustCol(bAttrs[i])
		schema[i] = storage.Field{Name: aAttrs[i], Type: a.Schema[aCols[i]].Type}
	}
	out := storage.NewRelation(name, schema, len(emitted))
	for i, slot := range emitted {
		e := &entries[slot]
		if e.repA >= 0 {
			for ci := range aCols {
				copyValue(out, ci, i, a, aCols[ci], int(e.repA))
			}
		} else {
			for ci := range bCols {
				copyValue(out, ci, i, b, bCols[ci], int(e.repB))
			}
		}
	}
	return out
}

func copyValue(dst *storage.Relation, dc, drow int, src *storage.Relation, sc, srow int) {
	switch src.Schema[sc].Type {
	case storage.TInt:
		dst.Cols[dc].Ints[drow] = src.Cols[sc].Ints[srow]
	case storage.TFloat:
		dst.Cols[dc].Floats[drow] = src.Cols[sc].Floats[srow]
	case storage.TString:
		dst.Cols[dc].Strs[drow] = src.Cols[sc].Strs[srow]
	}
}

// SetUnion computes A ∪ B (set semantics) over the given attribute lists
// (Appendix F.1). Inject keeps per-entry rid arrays during the build/append
// phases; Defer stores only an output id per entry and joins both inputs back
// against the hash table afterwards, each input split into up to workers
// partitions scheduled on pl.
func SetUnion(a *storage.Relation, aAttrs []string, b *storage.Relation, bAttrs []string,
	mode CaptureMode, dirs Directions, workers int, pl *pool.Pool) (SetOpResult, error) {
	return setOp(a, aAttrs, b, bAttrs, mode, dirs, unionKind, workers, pl)
}

// SetIntersect computes A ∩ B (set semantics) over the given attribute lists
// (Appendix F.3).
func SetIntersect(a *storage.Relation, aAttrs []string, b *storage.Relation, bAttrs []string,
	mode CaptureMode, dirs Directions, workers int, pl *pool.Pool) (SetOpResult, error) {
	return setOp(a, aAttrs, b, bAttrs, mode, dirs, intersectKind, workers, pl)
}

// SetDiff computes A − B (set semantics) over the given attribute lists
// (Appendix F.5). Lineage is captured only for A: every output depends on the
// whole of B by definition, so per-record lineage to B is not materialized.
func SetDiff(a *storage.Relation, aAttrs []string, b *storage.Relation, bAttrs []string,
	mode CaptureMode, dirs Directions, workers int, pl *pool.Pool) (SetOpResult, error) {
	return setOp(a, aAttrs, b, bAttrs, mode, dirs, diffKind, workers, pl)
}

type setOpKind uint8

const (
	unionKind setOpKind = iota
	intersectKind
	diffKind
)

// setOp is the one driver behind the set operations. The hash-table build
// over A, the probe/append over B and the qualifying-entry scan stay serial,
// because they decide the output; Inject collects each entry's rid lists
// during them. Defer's backfill (setBackfill) is the partitioned kernel.
func setOp(a *storage.Relation, aAttrs []string, b *storage.Relation, bAttrs []string,
	mode CaptureMode, dirs Directions, kind setOpKind, workers int, pl *pool.Pool) (SetOpResult, error) {

	if len(aAttrs) != len(bAttrs) {
		return SetOpResult{}, fmt.Errorf("ops: set operation attribute lists differ in length")
	}
	encA, err := newSetKeyEnc(a, aAttrs)
	if err != nil {
		return SetOpResult{}, err
	}
	encB, err := newSetKeyEnc(b, bAttrs)
	if err != nil {
		return SetOpResult{}, err
	}
	if mode == None {
		dirs = 0
	}
	inject := mode == Inject && dirs != 0
	captureB := kind != diffKind
	t := newSetTable()

	// Build phase over A (∪ht / ∩ht / \ht).
	for rid := int32(0); rid < int32(a.N); rid++ {
		slot := t.lookup(encA.encode(rid), true)
		e := &t.entries[slot]
		if e.repA < 0 {
			e.repA = rid
		}
		if inject {
			e.aRids = lineage.AppendRid(e.aRids, rid)
		}
	}
	// Probe/append phase over B (∪p / ∩p / \p).
	for rid := int32(0); rid < int32(b.N); rid++ {
		insert := kind == unionKind // intersection/difference never add B-only entries
		slot := t.lookup(encB.encode(rid), insert)
		if slot < 0 {
			continue
		}
		e := &t.entries[slot]
		e.seenB = true
		if e.repB < 0 {
			e.repB = rid
		}
		if inject && captureB {
			e.bRids = lineage.AppendRid(e.bRids, rid)
		}
	}

	// Scan phase: emit qualifying entries and assign output ids.
	var emitted []int32
	for slot := range t.entries {
		e := &t.entries[slot]
		switch kind {
		case unionKind:
			// all entries qualify
		case intersectKind:
			if e.repA < 0 || !e.seenB {
				continue
			}
		case diffKind:
			if e.seenB {
				continue
			}
		}
		e.oid = int32(len(emitted))
		emitted = append(emitted, int32(slot))
	}
	res := SetOpResult{Out: setOutput(kind.name(), a, b, aAttrs, bAttrs, t.entries, emitted)}
	if dirs == 0 {
		return res, nil
	}
	if dirs.Forward() {
		res.AFW = newForwardArray(a.N)
		if captureB {
			res.BFW = newForwardArray(b.N)
		}
	}

	if !inject {
		// Defer (⋈′ over each input): probe the pinned hash table again and
		// fill the lineage indexes after the operator produced its output.
		res.ABW = setBackfill(t, encA, a.N, len(emitted), dirs.Backward(), res.AFW, workers, pl)
		if captureB {
			res.BBW = setBackfill(t, encB, b.N, len(emitted), dirs.Backward(), res.BFW, workers, pl)
		}
		return res, nil
	}
	// Indexes come straight from the per-entry rid arrays (reuse, P4).
	if dirs.Backward() {
		res.ABW = lineage.NewRidIndex(len(emitted))
		if captureB {
			res.BBW = lineage.NewRidIndex(len(emitted))
		}
	}
	for _, slot := range emitted {
		e := &t.entries[slot]
		if res.ABW != nil {
			res.ABW.SetList(int(e.oid), e.aRids)
		}
		if res.BBW != nil {
			res.BBW.SetList(int(e.oid), e.bRids)
		}
		if res.AFW != nil {
			for _, r := range e.aRids {
				res.AFW[r] = e.oid
			}
		}
		if res.BFW != nil {
			for _, r := range e.bRids {
				res.BFW[r] = e.oid
			}
		}
	}
	return res, nil
}

// setBackfill is the Defer capture of one input with n rows: each partition
// of the input re-probes the pinned table read-only, and every row of an
// emitted entry records the entry's output id. Forward entries go straight
// into fw (partitions own disjoint rids); the backward index over outN
// outputs (when bw) merges in partition order, which is input scan order.
func setBackfill(t *setTable, enc *setKeyEnc, n, outN int, bw bool, fw []Rid, workers int, pl *pool.Pool) *lineage.RidIndex {
	ranges := pool.Split(n, workers)
	sinks := make([]listSink, len(ranges))
	if bw && len(ranges) == 1 {
		sinks[0].ix = lineage.NewRidIndex(outN)
	}
	pl.RunSplit(ranges, func(part, lo, hi int) {
		enc, s := enc.fork(), sinks[part]
		for rid := Rid(lo); rid < Rid(hi); rid++ {
			slot := t.lookup(enc.encode(rid), false)
			if slot < 0 {
				continue
			}
			oid := t.entries[slot].oid
			if oid < 0 {
				continue
			}
			if bw {
				if s.ix != nil {
					s.ix.AppendFast(int(oid), rid)
				} else {
					s.pair(oid, rid)
				}
			}
			if fw != nil {
				fw[rid] = oid
			}
		}
		sinks[part] = s
	})
	if !bw {
		return nil
	}
	return mergeSinks(len(sinks), outN, func(p int) *listSink { return &sinks[p] }, nil)
}

func (k setOpKind) name() string {
	switch k {
	case unionKind:
		return "union"
	case intersectKind:
		return "intersect"
	default:
		return "diff"
	}
}

// BagUnionLineage describes the lineage of a bag union A ⊎ B (Appendix F.2):
// the output is the concatenation of the inputs, so lineage is fully
// determined by the boundary rid where B begins and never materialized.
type BagUnionLineage struct {
	NA int
	NB int
}

// BagUnion concatenates A and B (bag semantics). The returned lineage
// descriptor answers backward and forward queries arithmetically.
func BagUnion(a, b *storage.Relation) (*storage.Relation, BagUnionLineage, error) {
	if len(a.Schema) != len(b.Schema) {
		return nil, BagUnionLineage{}, fmt.Errorf("ops: bag union over different arities")
	}
	for i := range a.Schema {
		if a.Schema[i].Type != b.Schema[i].Type {
			return nil, BagUnionLineage{}, fmt.Errorf("ops: bag union type mismatch at column %d", i)
		}
	}
	out := storage.NewRelation(a.Name+"_union_"+b.Name, a.Schema, a.N+b.N)
	for c := range a.Schema {
		switch a.Schema[c].Type {
		case storage.TInt:
			copy(out.Cols[c].Ints, a.Cols[c].Ints)
			copy(out.Cols[c].Ints[a.N:], b.Cols[c].Ints)
		case storage.TFloat:
			copy(out.Cols[c].Floats, a.Cols[c].Floats)
			copy(out.Cols[c].Floats[a.N:], b.Cols[c].Floats)
		case storage.TString:
			copy(out.Cols[c].Strs, a.Cols[c].Strs)
			copy(out.Cols[c].Strs[a.N:], b.Cols[c].Strs)
		}
	}
	return out, BagUnionLineage{NA: a.N, NB: b.N}, nil
}

// Backward maps an output rid to (fromB, input rid).
func (l BagUnionLineage) Backward(o Rid) (fromB bool, rid Rid) {
	if int(o) < l.NA {
		return false, o
	}
	return true, o - Rid(l.NA)
}

// ForwardA maps an A rid to its output rid.
func (l BagUnionLineage) ForwardA(r Rid) Rid { return r }

// ForwardB maps a B rid to its output rid.
func (l BagUnionLineage) ForwardB(r Rid) Rid { return r + Rid(l.NA) }

// BagIntersectResult is the output of an instrumented bag intersection
// (Appendix F.4, paper semantics: an entry with mA duplicates in A and mB in
// B is emitted mA·mB times, laid out A-major). Backward lineage is 1-to-1 per
// side; forward lineage is 1-to-N.
type BagIntersectResult struct {
	Out  *storage.Relation
	OutN int
	ABW  []Rid
	BBW  []Rid
	AFW  *lineage.RidIndex
	BFW  *lineage.RidIndex
}

// BagIntersect computes A ∩ B under the paper's bag semantics with Inject
// capture. (The paper also sketches a Defer variant; Inject suffices for the
// evaluation and keeps output-block bookkeeping in one place.)
func BagIntersect(a *storage.Relation, aAttrs []string, b *storage.Relation, bAttrs []string,
	dirs Directions) (BagIntersectResult, error) {

	encA, err := newSetKeyEnc(a, aAttrs)
	if err != nil {
		return BagIntersectResult{}, err
	}
	encB, err := newSetKeyEnc(b, bAttrs)
	if err != nil {
		return BagIntersectResult{}, err
	}
	t := newSetTable()
	for rid := int32(0); rid < int32(a.N); rid++ {
		slot := t.lookup(encA.encode(rid), true)
		e := &t.entries[slot]
		if e.repA < 0 {
			e.repA = rid
		}
		e.aRids = lineage.AppendRid(e.aRids, rid)
	}
	for rid := int32(0); rid < int32(b.N); rid++ {
		slot := t.lookup(encB.encode(rid), false)
		if slot < 0 {
			continue
		}
		e := &t.entries[slot]
		if e.repB < 0 {
			e.repB = rid
		}
		e.bRids = lineage.AppendRid(e.bRids, rid)
	}

	res := BagIntersectResult{}
	outN := 0
	var emitted []int32
	for slot := range t.entries {
		e := &t.entries[slot]
		if len(e.bRids) == 0 {
			continue
		}
		e.oid = int32(outN)
		outN += len(e.aRids) * len(e.bRids)
		for i := 0; i < len(e.aRids)*len(e.bRids); i++ {
			emitted = append(emitted, int32(slot))
		}
	}
	res.OutN = outN

	if dirs.Backward() {
		res.ABW = make([]Rid, outN)
		res.BBW = make([]Rid, outN)
	}
	if dirs.Forward() {
		res.AFW = lineage.NewRidIndex(a.N)
		res.BFW = lineage.NewRidIndex(b.N)
	}
	for slot := range t.entries {
		e := &t.entries[slot]
		if len(e.bRids) == 0 {
			continue
		}
		o := e.oid
		for _, ar := range e.aRids {
			for _, br := range e.bRids {
				if res.ABW != nil {
					res.ABW[o] = ar
					res.BBW[o] = br
				}
				if res.AFW != nil {
					res.AFW.Append(int(ar), o)
					res.BFW.Append(int(br), o)
				}
				o++
			}
		}
	}
	res.Out = setOutput("bag_intersect", a, b, aAttrs, bAttrs, t.entries, emitted)
	return res, nil
}

// BagDiffResult is the output of a bag difference A − B: each entry is
// emitted max(mA − mB, 0) times; the emitted copies take the earliest A rids
// of the entry, so backward lineage is a 1-to-1 rid array over outputs.
type BagDiffResult struct {
	Out *storage.Relation
	ABW []Rid
	AFW []Rid
}

// BagDiff computes A − B under bag semantics with Inject capture; as with set
// difference, lineage to B is not materialized.
func BagDiff(a *storage.Relation, aAttrs []string, b *storage.Relation, bAttrs []string,
	dirs Directions) (BagDiffResult, error) {

	encA, err := newSetKeyEnc(a, aAttrs)
	if err != nil {
		return BagDiffResult{}, err
	}
	encB, err := newSetKeyEnc(b, bAttrs)
	if err != nil {
		return BagDiffResult{}, err
	}
	t := newSetTable()
	for rid := int32(0); rid < int32(a.N); rid++ {
		slot := t.lookup(encA.encode(rid), true)
		e := &t.entries[slot]
		if e.repA < 0 {
			e.repA = rid
		}
		e.aRids = lineage.AppendRid(e.aRids, rid)
	}
	bMatches := make([]int, len(t.entries))
	for rid := int32(0); rid < int32(b.N); rid++ {
		slot := t.lookup(encB.encode(rid), false)
		if slot >= 0 {
			bMatches[slot]++
		}
	}

	res := BagDiffResult{}
	var outRids []Rid // A rids of emitted copies, in output order
	var emitted []int32
	for slot := range t.entries {
		e := &t.entries[slot]
		keep := len(e.aRids) - bMatches[slot]
		for i := 0; i < keep; i++ {
			outRids = append(outRids, e.aRids[i])
			emitted = append(emitted, int32(slot))
		}
	}
	if dirs.Backward() {
		res.ABW = outRids
	}
	if dirs.Forward() {
		res.AFW = newForwardArray(a.N)
		for o, r := range outRids {
			res.AFW[r] = Rid(o)
		}
	}
	res.Out = a.Gather("bag_diff", outRids)
	return res, nil
}
