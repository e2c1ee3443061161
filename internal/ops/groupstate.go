package ops

import (
	"encoding/binary"
	"fmt"
	"math"

	"smoke/internal/expr"
	"smoke/internal/hashtab"
	"smoke/internal/scratch"
	"smoke/internal/storage"
)

// GroupState is the one group-by state of the engine: key resolution,
// per-group counts and accumulators, the partition-order merge, and output
// materialisation. Both hash-aggregation drivers fold into it — HashAgg over
// one relation and the fused SPJA block (internal/exec) over join chains —
// and hand the group slots it resolves to the one lineage capture,
// GroupCapture.
//
// The state spans one or more tables and addresses an input row by (table,
// rid): rows arrive in column-major batches where cols[t][j] is the rid of
// table t in row j. A single-table group-by passes one column of base rids;
// a join block passes one column per table of the chain. Group slots are
// assigned in discovery order (a group's slot is the position of its first
// row), which is what makes partition-order merging reproduce the
// one-partition output exactly.
type GroupState struct {
	keys    []KeyRef
	keyCols []keyCol
	kind    keyKind
	// keyInt / keyStr: the single key column and the table it reads.
	keyTable int
	intCol   []int64
	strCol   []string
	buf      []byte

	ht    *hashtab.Map
	strHT map[string]int32

	nGroups int32
	// rep[t][slot] is the rid of table t in the group's first row: keys
	// materialise from it and a merge re-resolves the group through it.
	rep    [][]Rid
	counts []int64
	accs   []aggAcc
}

// KeyRef is a group-by key column qualified by the index of the table it
// reads (0 for a single-table group-by).
type KeyRef struct {
	Table int
	Col   string
}

type keyKind uint8

const (
	keyInt keyKind = iota // single TInt column: the value is the hash key
	keyStr                // single TString column
	keyComposite
)

// keyCol is one compiled column of the key byte format.
type keyCol struct {
	table int
	typ   storage.Type
	col   *storage.Column
}

// appendKey appends row rid's value in the key byte format: an int as its 8
// little-endian bytes, a float as its IEEE-754 bits in the same layout, a
// string followed by a NUL. It is the one encoder behind composite group
// keys and data-skipping partition codes (partitionKeyFn, PartitionKey).
func (k *keyCol) appendKey(buf []byte, rid Rid) []byte {
	switch k.typ {
	case storage.TInt:
		return binary.LittleEndian.AppendUint64(buf, uint64(k.col.Ints[rid]))
	case storage.TFloat:
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(k.col.Floats[rid]))
	}
	return append(append(buf, k.col.Strs[rid]...), 0)
}

// compileKeyCol resolves column name of rel (table t of the state).
func compileKeyCol(rel *storage.Relation, t int, name string) (keyCol, error) {
	c := rel.Schema.Col(name)
	if c < 0 {
		return keyCol{}, fmt.Errorf("ops: unknown column %q in %s", name, rel.Name)
	}
	return keyCol{table: t, typ: rel.Schema[c].Type, col: &rel.Cols[c]}, nil
}

// NewGroupState compiles the group keys and aggregates over rels, the tables
// a row addresses. Every KeyRef and AggSpec names its table by index into
// rels; aggregate arguments and filters compile against that table.
func NewGroupState(rels []*storage.Relation, keys []KeyRef, aggs []AggSpec, params expr.Params) (*GroupState, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("ops: group-by needs at least one key column")
	}
	g := &GroupState{keys: keys, kind: keyComposite, rep: make([][]Rid, len(rels))}
	for _, k := range keys {
		if k.Table < 0 || k.Table >= len(rels) {
			return nil, fmt.Errorf("ops: group-by column %q reads table %d of %d", k.Col, k.Table, len(rels))
		}
		kc, err := compileKeyCol(rels[k.Table], k.Table, k.Col)
		if err != nil {
			return nil, err
		}
		g.keyCols = append(g.keyCols, kc)
	}
	if len(g.keyCols) == 1 {
		kc := g.keyCols[0]
		g.keyTable = kc.table
		switch kc.typ {
		case storage.TInt:
			g.kind, g.intCol = keyInt, kc.col.Ints
			g.ht = hashtab.New(64)
		case storage.TString:
			g.kind, g.strCol = keyStr, kc.col.Strs
		}
	}
	if g.ht == nil {
		g.strHT = make(map[string]int32, 64)
	}
	for i, a := range aggs {
		acc, err := newAggAcc(rels, a, i, params)
		if err != nil {
			return nil, err
		}
		g.accs = append(g.accs, acc)
	}
	return g, nil
}

// Len is the number of groups discovered so far.
func (g *GroupState) Len() int { return int(g.nGroups) }

// Counts holds each group's input row count, by slot.
func (g *GroupState) Counts() []int64 { return g.counts }

// Fold resolves the batch's rows to group slots (slots[j] for row j,
// inserting groups in row order) and folds them into the counts and
// accumulators. len(slots) is the batch size.
func (g *GroupState) Fold(cols [][]Rid, slots []Rid) {
	g.resolve(cols, slots, true)
	counts := g.counts
	for _, s := range slots {
		counts[s]++
	}
	for i := range g.accs {
		g.accs[i].updateBatch(slots, cols)
	}
}

// Probe resolves the batch's rows to the slots of existing groups without
// folding them (the Defer capture pass and the Logic-Idx re-join).
func (g *GroupState) Probe(cols [][]Rid, slots []Rid) {
	g.resolve(cols, slots, false)
}

func (g *GroupState) resolve(cols [][]Rid, slots []Rid, insert bool) {
	switch g.kind {
	case keyInt:
		keys := scratch.Ints(len(slots))
		rids, col := cols[g.keyTable], g.intCol
		for j := range keys {
			keys[j] = col[rids[j]]
		}
		if insert {
			g.ht.GetOrPutBatch(keys, slots, func(j int, _ int64) int32 { return g.newGroup(cols, j) })
		} else {
			g.ht.GetBatch(keys, slots)
		}
		scratch.PutInts(keys)
	case keyStr:
		rids, col := cols[g.keyTable], g.strCol
		for j := range slots {
			k := col[rids[j]]
			s, ok := g.strHT[k]
			if !ok && insert {
				s = g.newGroup(cols, j)
				g.strHT[k] = s
			}
			slots[j] = s
		}
	default:
		for j := range slots {
			g.buf = g.buf[:0]
			for i := range g.keyCols {
				kc := &g.keyCols[i]
				g.buf = kc.appendKey(g.buf, cols[kc.table][j])
			}
			s, ok := g.strHT[string(g.buf)]
			if !ok && insert {
				s = g.newGroup(cols, j)
				g.strHT[string(g.buf)] = s
			}
			slots[j] = s
		}
	}
}

func (g *GroupState) newGroup(cols [][]Rid, j int) int32 {
	slot := g.nGroups
	g.nGroups++
	for t := range g.rep {
		g.rep[t] = append(g.rep[t], cols[t][j])
	}
	g.counts = append(g.counts, 0)
	for i := range g.accs {
		g.accs[i].addGroup()
	}
	return slot
}

// MergeGroups folds partition-local states into the first, in partition
// order, and returns each partition's slot map (local slot → merged slot;
// the first partition's is the identity). A group's first global occurrence
// lies in the first partition that contains it, so the merged discovery
// order — and with it the output relation and every slot-addressed lineage
// index the drivers stitch through the maps — is identical for every
// partition count. All aggregates are algebraic or distributive, so the
// fold is exact; float sums accumulate per partition first, which can
// differ from serial in the last ulp (addition order), never in lineage.
func MergeGroups(parts []*GroupState) [][]Rid {
	first := parts[0]
	maps := make([][]Rid, len(parts))
	maps[0] = make([]Rid, first.nGroups)
	for s := range maps[0] {
		maps[0][s] = Rid(s)
	}
	for p := 1; p < len(parts); p++ {
		o := parts[p]
		sm := make([]Rid, o.nGroups)
		first.resolve(o.rep, sm, true)
		for s, g := range sm {
			first.counts[g] += o.counts[s]
			for i := range first.accs {
				first.accs[i].mergeFrom(g, &o.accs[i], int32(s))
			}
		}
		maps[p] = sm
	}
	return maps
}

// Materialize builds the output relation named name: the group keys
// (gathered through each group's first row) followed by one column per
// aggregate, one row per group in slot order.
func (g *GroupState) Materialize(name string) *storage.Relation {
	schema := make(storage.Schema, 0, len(g.keyCols)+len(g.accs))
	for i, kc := range g.keyCols {
		schema = append(schema, storage.Field{Name: g.keys[i].Col, Type: kc.typ})
	}
	for i := range g.accs {
		schema = append(schema, storage.Field{Name: g.accs[i].name, Type: g.accs[i].outType()})
	}
	out := storage.NewRelation(name, schema, int(g.nGroups))
	for i, kc := range g.keyCols {
		rep, dst := g.rep[kc.table], &out.Cols[i]
		switch kc.typ {
		case storage.TInt:
			for s, r := range rep {
				dst.Ints[s] = kc.col.Ints[r]
			}
		case storage.TFloat:
			for s, r := range rep {
				dst.Floats[s] = kc.col.Floats[r]
			}
		case storage.TString:
			for s, r := range rep {
				dst.Strs[s] = kc.col.Strs[r]
			}
		}
	}
	for i := range g.accs {
		g.accs[i].emit(&out.Cols[len(g.keyCols)+i], g.counts)
	}
	return out
}

// aggAcc accumulates one aggregate across groups (structure-of-arrays:
// slot-indexed slices). It reads its argument and optional filter from one
// table of the row.
type aggAcc struct {
	fn     AggFn
	name   string
	table  int
	filter expr.Pred
	num    expr.NumFn
	argI   expr.IntFn // CountDistinct over ints
	argS   expr.StrFn // CountDistinct over strings

	sums []float64
	mins []float64
	maxs []float64
	// ownCount marks a filtered COUNT or AVG: it counts the rows that pass
	// its filter in cnts, where every other aggregate reads the group count.
	ownCount bool
	cnts     []int64
	// COUNT(DISTINCT) state: the overwhelmingly common case in profiling
	// workloads is one distinct value per group (the FD holds), so the first
	// value is kept inline and the set is allocated lazily on the first
	// disagreement.
	firstI []int64
	firstS []string
	seen   []bool
	setsI  []map[int64]struct{}
	setsS  []map[string]struct{}
}

func newAggAcc(rels []*storage.Relation, a AggSpec, i int, params expr.Params) (aggAcc, error) {
	acc := aggAcc{fn: a.Fn, name: a.Name, table: a.Table}
	if acc.name == "" {
		acc.name = fmt.Sprintf("%s_%d", a.Fn, i)
	}
	if a.Table < 0 || a.Table >= len(rels) {
		return acc, fmt.Errorf("ops: aggregate %q reads table %d of %d", acc.name, a.Table, len(rels))
	}
	in := rels[a.Table]
	switch a.Fn {
	case Count:
	case CountDistinct:
		if a.Arg == nil {
			return acc, fmt.Errorf("ops: COUNT(DISTINCT) needs an argument")
		}
		t, err := expr.TypeOf(a.Arg, in.Schema, params)
		if err != nil {
			return acc, err
		}
		if t == storage.TString {
			if acc.argS, err = expr.CompileStr(a.Arg, in, params); err != nil {
				return acc, err
			}
		} else if acc.argI, err = expr.CompileInt(a.Arg, in, params); err != nil {
			// Float distinct args are rare; compile via NumFn and bit-cast
			// to int64 for set membership.
			nf, nerr := expr.CompileNum(a.Arg, in, params)
			if nerr != nil {
				return acc, err
			}
			acc.argI = func(rid int32) int64 { return int64(math.Float64bits(nf(rid))) }
		}
	default:
		if a.Arg == nil {
			return acc, fmt.Errorf("ops: %s needs an argument", a.Fn)
		}
		f, err := expr.CompileNum(a.Arg, in, params)
		if err != nil {
			return acc, err
		}
		acc.num = f
	}
	if a.Filter != nil {
		p, err := expr.CompilePred(a.Filter, in, params)
		if err != nil {
			return acc, err
		}
		acc.filter = p
		acc.ownCount = a.Fn == Count || a.Fn == Avg
	}
	return acc, nil
}

func (a *aggAcc) addGroup() {
	if a.ownCount {
		a.cnts = append(a.cnts, 0)
	}
	switch a.fn {
	case Sum, Avg:
		a.sums = append(a.sums, 0)
	case Min:
		a.mins = append(a.mins, math.Inf(1))
	case Max:
		a.maxs = append(a.maxs, math.Inf(-1))
	case CountDistinct:
		a.seen = append(a.seen, false)
		if a.argI != nil {
			a.firstI = append(a.firstI, 0)
			a.setsI = append(a.setsI, nil)
		} else {
			a.firstS = append(a.firstS, "")
			a.setsS = append(a.setsS, nil)
		}
	}
}

// update folds one row into slot (the filtered path; unfiltered batches take
// updateBatch's hoisted loops).
func (a *aggAcc) update(slot int32, rid Rid) {
	if a.ownCount {
		a.cnts[slot]++
	}
	switch a.fn {
	case Sum, Avg:
		a.sums[slot] += a.num(rid)
	case Min:
		if v := a.num(rid); v < a.mins[slot] {
			a.mins[slot] = v
		}
	case Max:
		if v := a.num(rid); v > a.maxs[slot] {
			a.maxs[slot] = v
		}
	case CountDistinct:
		if a.argI != nil {
			a.addDistinctI(slot, a.argI(rid))
		} else {
			a.addDistinctS(slot, a.argS(rid))
		}
	}
}

// updateBatch folds a resolved batch with the function switch hoisted out of
// the row loop (rows still fold in input order). An unfiltered COUNT has no
// state of its own: it reads the group counts.
func (a *aggAcc) updateBatch(slots []int32, cols [][]Rid) {
	rids := cols[a.table]
	if a.filter != nil {
		for j, s := range slots {
			if rid := rids[j]; a.filter(rid) {
				a.update(s, rid)
			}
		}
		return
	}
	switch a.fn {
	case Sum, Avg:
		sums := a.sums
		for j, s := range slots {
			sums[s] += a.num(rids[j])
		}
	case Min:
		mins := a.mins
		for j, s := range slots {
			if v := a.num(rids[j]); v < mins[s] {
				mins[s] = v
			}
		}
	case Max:
		maxs := a.maxs
		for j, s := range slots {
			if v := a.num(rids[j]); v > maxs[s] {
				maxs[s] = v
			}
		}
	case CountDistinct:
		if a.argI != nil {
			for j, s := range slots {
				a.addDistinctI(s, a.argI(rids[j]))
			}
		} else {
			for j, s := range slots {
				a.addDistinctS(s, a.argS(rids[j]))
			}
		}
	}
}

// addDistinctI folds one int value into slot's COUNT(DISTINCT) state (first
// value inline, set allocated on disagreement).
func (a *aggAcc) addDistinctI(slot int32, v int64) {
	if !a.seen[slot] {
		a.seen[slot] = true
		a.firstI[slot] = v
		return
	}
	if s := a.setsI[slot]; s != nil {
		s[v] = struct{}{}
		return
	}
	if v != a.firstI[slot] {
		a.setsI[slot] = map[int64]struct{}{a.firstI[slot]: {}, v: {}}
	}
}

// addDistinctS is addDistinctI for string arguments.
func (a *aggAcc) addDistinctS(slot int32, v string) {
	if !a.seen[slot] {
		a.seen[slot] = true
		a.firstS[slot] = v
		return
	}
	if s := a.setsS[slot]; s != nil {
		s[v] = struct{}{}
		return
	}
	if v != a.firstS[slot] {
		a.setsS[slot] = map[string]struct{}{a.firstS[slot]: {}, v: {}}
	}
}

// mergeFrom folds partition-local slot s of o into global slot g.
func (a *aggAcc) mergeFrom(g int32, o *aggAcc, s int32) {
	if a.ownCount {
		a.cnts[g] += o.cnts[s]
	}
	switch a.fn {
	case Sum, Avg:
		a.sums[g] += o.sums[s]
	case Min:
		if o.mins[s] < a.mins[g] {
			a.mins[g] = o.mins[s]
		}
	case Max:
		if o.maxs[s] > a.maxs[g] {
			a.maxs[g] = o.maxs[s]
		}
	case CountDistinct:
		if !o.seen[s] {
			return
		}
		if a.argI != nil {
			if set := o.setsI[s]; set != nil {
				for v := range set {
					a.addDistinctI(g, v)
				}
			} else {
				a.addDistinctI(g, o.firstI[s])
			}
		} else {
			if set := o.setsS[s]; set != nil {
				for v := range set {
					a.addDistinctS(g, v)
				}
			} else {
				a.addDistinctS(g, o.firstS[s])
			}
		}
	}
}

// outType is the storage type of the aggregate's output column.
func (a *aggAcc) outType() storage.Type {
	switch a.fn {
	case Count, CountDistinct:
		return storage.TInt
	default:
		return storage.TFloat
	}
}

// emit writes the aggregate's per-group values into its output column;
// counts are the group row counts. An AVG or MIN/MAX whose filter matched no
// row of a group keeps its initial value (0, +Inf, −Inf).
func (a *aggAcc) emit(dst *storage.Column, counts []int64) {
	if a.ownCount {
		counts = a.cnts
	}
	switch a.fn {
	case Count:
		copy(dst.Ints, counts)
	case CountDistinct:
		for slot := range dst.Ints {
			switch {
			case a.argI != nil && a.setsI[slot] != nil:
				dst.Ints[slot] = int64(len(a.setsI[slot]))
			case a.argI == nil && a.setsS[slot] != nil:
				dst.Ints[slot] = int64(len(a.setsS[slot]))
			case a.seen[slot]:
				dst.Ints[slot] = 1
			}
		}
	case Sum:
		copy(dst.Floats, a.sums)
	case Avg:
		for slot, n := range counts {
			if n > 0 {
				dst.Floats[slot] = a.sums[slot] / float64(n)
			}
		}
	case Min:
		copy(dst.Floats, a.mins)
	case Max:
		copy(dst.Floats, a.maxs)
	}
}
