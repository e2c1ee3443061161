package ops

import (
	"smoke/internal/expr"
	"smoke/internal/lineage"
	"smoke/internal/pool"
	"smoke/internal/storage"
)

// GroupCapture is the engine's one group-by lineage capture. Both group-by
// executors — HashAgg over one relation and the fused SPJA block
// (internal/exec) over join chains — split their input into contiguous
// partitions, fold each partition's rows into its own GroupState, and hand
// the capture every batch they capture as (cols, slots): cols[t][j] is the
// base rid of table t in row j, slots[j] its partition-local group slot.
// Rows arrive in input order, so every list and forward entry is the one a
// row-at-a-time loop writes. Per partition and table the capture keeps:
//
//   - backward rid lists (group → base rids), grown as rows arrive (Inject)
//     or sized exactly from the group counts before a second pass (Defer);
//   - for the last table, a rid-addressed forward array (base rid → group)
//     shared by every partition, since partitions own disjoint rids: dense
//     over the relation, or sparse over the input rid subset. A dense scan
//     hands its rids in ascending order, so each partition writes -1 into
//     the rids its scan skipped as it goes and every entry is written once;
//   - for the other tables, a 1-to-N forward index: direct with one
//     partition, (rid, slot) pairs when partitions merge — a relation-sized
//     index per partition would multiply memory by the partition count.
//
// Under compression each partition encodes its backward lists inside its own
// kernel (Finish). Merge folds the group states in partition order
// (MergeGroups) and stitches every index through the resulting slot maps,
// which reproduces the one-partition output and lineage exactly; one
// partition's indexes are the result as built (P4).
type GroupCapture struct {
	rels     []*storage.Relation
	inRids   []Rid // the last table's input rids; nil scans the whole relation
	dirs     []Directions
	compress bool
	groups   []*GroupState
	ranges   []pool.Range
	parts    []capturePart

	// The last table's forward array is dense or sparse. A rid subset that
	// may repeat a rid breaks the disjointness the shared writes rely on
	// when partitions merge (the same rid in two partitions would be
	// rebased by both), so posSlots then records each input position's
	// local slot instead — positions are disjoint by construction — and
	// Merge fills the array.
	dense    []Rid
	sparse   *lineage.SparseArr
	posSlots []Rid

	// keep, when set, admits a backward edge only when its rid satisfies it
	// (the selection push-down of §4.2, on a one-table capture). listCap,
	// when set, is the capacity of a new group's Inject list (the exact
	// cardinality statistics of §6.1.1), or -1 to leave it to the growth
	// policy.
	keep    expr.Pred
	listCap func(slot int) int
}

// capturePart is one partition's capture state, indexed by table.
type capturePart struct {
	lists  [][][]Rid // [table][slot] backward rid lists
	enc    []*lineage.EncodedIndex
	fwMany []*lineage.RidIndex // non-last forward, one partition
	pairR  [][]Rid             // non-last forward, merging partitions
	pairS  [][]Rid
	// pos is the next input position the partition captures: a rid of a
	// dense scan, an index into inRids otherwise.
	pos int
}

// NewGroupCapture sets up the capture of a group-by over rels whose last
// table is scanned in full (inRids nil) or over the rid subset inRids, which
// may hold duplicates when dupRids is set. dirs[t] selects table t's
// directions (zero captures nothing); groups[p] is the group state of
// partition ranges[p]. compress encodes every index once captured.
func NewGroupCapture(rels []*storage.Relation, inRids []Rid, dupRids bool, dirs []Directions, compress bool,
	groups []*GroupState, ranges []pool.Range) *GroupCapture {
	c := &GroupCapture{rels: rels, inRids: inRids, dirs: dirs, compress: compress, groups: groups, ranges: ranges,
		parts: make([]capturePart, len(ranges))}
	k := len(rels)
	merge := len(ranges) > 1
	for p := range c.parts {
		cp := &c.parts[p]
		cp.lists = make([][][]Rid, k)
		cp.enc = make([]*lineage.EncodedIndex, k)
		cp.fwMany = make([]*lineage.RidIndex, k)
		cp.pairR, cp.pairS = make([][]Rid, k), make([][]Rid, k)
		cp.pos = ranges[p].Lo
		for t := 0; t < k-1; t++ {
			if dirs[t].Forward() && !merge {
				cp.fwMany[t] = lineage.NewRidIndex(rels[t].N)
			}
		}
	}
	if dirs[k-1].Forward() {
		n := rels[k-1].N
		if inRids == nil {
			c.dense = make([]Rid, n)
		} else {
			c.sparse = lineage.NewSparseArr(n, inRids)
		}
		if merge && dupRids && inRids != nil {
			c.posSlots = make([]Rid, len(inRids))
		}
	}
	return c
}

// Add captures one batch of partition part: under Inject the batch the
// caller just folded, under Defer the same rows again with their probed
// slots.
func (c *GroupCapture) Add(part int, cols [][]Rid, slots []Rid) {
	cp := &c.parts[part]
	last := len(cols) - 1
	for t, d := range c.dirs {
		rids := cols[t]
		if d.Backward() {
			gr := cp.lists[t]
			for len(gr) < c.groups[part].Len() {
				gr = append(gr, c.newList(len(gr)))
			}
			if keep := c.keep; keep != nil {
				for j, s := range slots {
					if keep(rids[j]) {
						gr[s] = lineage.AppendRid(gr[s], rids[j])
					}
				}
			} else {
				for j, s := range slots {
					gr[s] = lineage.AppendRid(gr[s], rids[j])
				}
			}
			cp.lists[t] = gr
		}
		if !d.Forward() {
			continue
		}
		switch {
		case t < last && cp.fwMany[t] != nil:
			fw := cp.fwMany[t]
			for j, s := range slots {
				fw.Append(int(rids[j]), s)
			}
		case t < last:
			cp.pairR[t] = append(cp.pairR[t], rids...)
			cp.pairS[t] = append(cp.pairS[t], slots...)
		case c.posSlots != nil:
			cp.pos += copy(c.posSlots[cp.pos:], slots)
		case c.dense != nil:
			fw, next := c.dense, cp.pos
			for j, s := range slots {
				r := int(rids[j])
				for ; next < r; next++ {
					fw[next] = -1
				}
				fw[r] = s
				next = r + 1
			}
			cp.pos = next
		default:
			sp := c.sparse
			for j, s := range slots {
				sp.Set(rids[j], s)
			}
		}
	}
}

func (c *GroupCapture) newList(slot int) []Rid {
	if c.listCap != nil {
		if n := c.listCap(slot); n >= 0 {
			return make([]Rid, 0, n)
		}
	}
	return nil
}

// Defer sizes partition part's backward lists exactly from its group
// counts — a captured row adds one rid per table — so that the caller's
// second pass (Defer, §3.2.3) never grows a list.
func (c *GroupCapture) Defer(part int) {
	for t, d := range c.dirs {
		if d.Backward() {
			c.parts[part].lists[t] = lineage.ExactLists(c.groups[part].Counts())
		}
	}
}

// Finish ends partition part's kernel: the dense forward entries its scan
// never reached read -1, and under compression the partition's backward
// lists encode there, so encoding runs in parallel and the merge
// concatenates encoded lists without re-encoding.
func (c *GroupCapture) Finish(part int) {
	cp := &c.parts[part]
	if fw := c.dense; fw != nil {
		for ; cp.pos < c.ranges[part].Hi; cp.pos++ {
			fw[cp.pos] = -1
		}
	}
	if !c.compress {
		return
	}
	for t, d := range c.dirs {
		if d.Backward() {
			cp.enc[t], cp.lists[t] = lineage.EncodeLists(cp.lists[t]), nil
		}
	}
}

// Merge ends the capture once every kernel has finished: it folds the group
// states into the first in partition order and returns each table's
// backward and forward index (nil where the table's direction is not
// captured).
func (c *GroupCapture) Merge(p *pool.Pool) (bw, fw []*lineage.Index) {
	var slotMaps [][]Rid
	if len(c.parts) > 1 {
		slotMaps = MergeGroups(c.groups)
	}
	last := len(c.dirs) - 1
	bw = make([]*lineage.Index, len(c.dirs))
	fw = make([]*lineage.Index, len(c.dirs))
	for t, d := range c.dirs {
		if d.Backward() {
			bw[t] = c.backward(t, slotMaps)
		}
		if !d.Forward() {
			continue
		}
		if t == last {
			fw[t] = c.forwardLast(p, slotMaps)
		} else {
			fw[t] = c.forwardMany(t, slotMaps)
		}
		if c.compress {
			fw[t] = lineage.EncodeForward(fw[t])
		}
	}
	return bw, fw
}

// backward is table t's backward index: each global group's list is the
// concatenation, in partition order, of the local lists that map to it.
func (c *GroupCapture) backward(t int, slotMaps [][]Rid) *lineage.Index {
	nG := c.groups[0].Len()
	switch {
	case c.compress && slotMaps != nil:
		enc := make([]*lineage.EncodedIndex, len(c.parts))
		for p := range c.parts {
			enc[p] = c.parts[p].enc[t]
		}
		return lineage.NewEncodedMany(lineage.MergeEncodedBySlot(enc, slotMaps, nG))
	case c.compress:
		return lineage.NewEncodedMany(c.parts[0].enc[t])
	case slotMaps != nil:
		lists := make([][][]Rid, len(c.parts))
		for p := range c.parts {
			lists[p] = c.parts[p].lists[t]
		}
		return lineage.NewOneToMany(lineage.MergeListsBySlot(lists, slotMaps, nG))
	}
	ix := lineage.NewRidIndex(nG)
	for slot, l := range c.parts[0].lists[t] {
		ix.SetList(slot, l) // the capture's own lists are the index (P4)
	}
	return lineage.NewOneToMany(ix)
}

// forwardLast finishes the last table's forward array: the recorded
// positions fill it, or each partition rebases the rids it wrote from local
// to global slots.
func (c *GroupCapture) forwardLast(p *pool.Pool, slotMaps [][]Rid) *lineage.Index {
	switch {
	case c.posSlots != nil:
		// Duplicates of a rid all land on the same merged group (same key),
		// so every write stores the same value.
		for _, r := range c.ranges {
			sm := slotMaps[r.Part]
			for pos := r.Lo; pos < r.Hi; pos++ {
				if rid, s := c.inRids[pos], sm[c.posSlots[pos]]; c.dense != nil {
					c.dense[rid] = s
				} else {
					c.sparse.Set(rid, s)
				}
			}
		}
	case slotMaps != nil:
		p.RunSplit(c.ranges, func(part, lo, hi int) {
			if c.dense != nil {
				lineage.SlotRebase(c.dense, lo, hi, slotMaps[part])
			} else {
				c.sparse.RebaseRids(c.inRids[lo:hi], slotMaps[part])
			}
		})
	}
	if c.dense != nil {
		return lineage.NewOneToOne(c.dense)
	}
	return lineage.NewSparseOne(c.sparse)
}

// forwardMany is a non-last table's 1-to-N forward index.
func (c *GroupCapture) forwardMany(t int, slotMaps [][]Rid) *lineage.Index {
	if slotMaps == nil {
		return lineage.NewOneToMany(c.parts[0].fwMany[t])
	}
	pairR := make([][]Rid, len(c.parts))
	pairS := make([][]Rid, len(c.parts))
	for p := range c.parts {
		pairR[p], pairS[p] = c.parts[p].pairR[t], c.parts[p].pairS[t]
	}
	return lineage.NewOneToMany(lineage.MergePairsByRid(pairR, pairS, c.rels[t].N,
		func(part int, s Rid) Rid { return slotMaps[part][s] }))
}
