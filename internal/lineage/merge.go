package lineage

// Partition-local index building (the morsel-parallel capture layer).
//
// Parallel operators split their input into contiguous row-range partitions;
// each worker appends rids into its own partition-local arrays and indexes —
// no shared-state writes in the hot loop — and the driver merges the local
// structures afterwards. Because partitions are contiguous and merged in
// partition order, the merged indexes are element-for-element identical to
// the ones a serial run builds: a group's first occurrence lies in the first
// partition that contains it, so partition-major merge order reproduces
// serial discovery order, and concatenating per-partition rid lists in
// partition order reproduces serial append order.

// ConcatRidArrays concatenates partition-local rid arrays in partition order
// into one exactly-sized array. Merging backward arrays of a parallel
// selection or join probe is a single pass of sequential copies. An empty
// result is nil; callers whose downstream interfaces distinguish nil from
// empty (e.g. a nil rid subset meaning "all rows") must restore the shape
// they need.
func ConcatRidArrays(parts [][]Rid) []Rid {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return nil
	}
	out := make([]Rid, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// OffsetRebase adds off to every non-negative entry of arr[lo:hi] in place.
// Parallel kernels write partition-local output rids into a shared,
// rid-addressed forward array (partitions own disjoint rid ranges, so the
// writes never conflict); once per-partition output cardinalities are known,
// each partition's entries are rebased by its global output offset.
// Negative entries ("no output") are preserved.
func OffsetRebase(arr []Rid, lo, hi int, off Rid) {
	if off == 0 {
		return
	}
	for i := lo; i < hi; i++ {
		if arr[i] >= 0 {
			arr[i] += off
		}
	}
}

// OffsetRebaseRids is OffsetRebase over an explicit rid subset: the entries
// of arr addressed by rids (a partition's slice of the input rid list) are
// rebased in place, preserving negative "no output" entries.
func OffsetRebaseRids(arr []Rid, rids []Rid, off Rid) {
	if off == 0 {
		return
	}
	for _, r := range rids {
		if arr[r] >= 0 {
			arr[r] += off
		}
	}
}

// SlotRebase maps every non-negative entry of arr[lo:hi] through slotMap in
// place: local group slots become global group slots after a parallel
// aggregation merge.
func SlotRebase(arr []Rid, lo, hi int, slotMap []Rid) {
	for i := lo; i < hi; i++ {
		if arr[i] >= 0 {
			arr[i] = slotMap[arr[i]]
		}
	}
}

// MergeListsBySlot merges partition-local per-group rid lists into a global
// RidIndex with nGlobal entries. parts[p] holds partition p's local group
// lists; slotMaps[p] maps partition p's local group slot to its global slot.
// Global list g is the concatenation, in partition order, of every local
// list that maps to g — exactly the append order of a serial run. The merged
// index is allocated exactly (one backing array) and filled with sequential
// copies, so the merge costs O(partitions · groups + total rids).
func MergeListsBySlot(parts [][][]Rid, slotMaps [][]Rid, nGlobal int) *RidIndex {
	counts := make([]int32, nGlobal)
	for p, lists := range parts {
		sm := slotMaps[p]
		for s, l := range lists {
			counts[sm[s]] += int32(len(l))
		}
	}
	out := NewRidIndexWithCounts(counts)
	for p, lists := range parts {
		sm := slotMaps[p]
		for s, l := range lists {
			g := sm[s]
			dst := out.lists[g]
			out.lists[g] = append(dst, l...)
		}
	}
	return out
}

// MergeEncodedBySlot is the compression-aware partition merge: partition-local
// encoded indexes combine into one global EncodedIndex by concatenating each
// local list's chunk bytes onto its global slot, in partition order — no list
// is re-encoded. This is sound because chunks are self-contained and
// partition rid ranges are disjoint and ordered: concatenation in partition
// order decodes to exactly the rid sequence a serial run would have appended.
// (The merged byte layout can differ from a serial run's single-chunk
// encoding — one chunk per contributing partition — but the decoded lineage
// is element-identical, which is what the equivalence gates assert.)
func MergeEncodedBySlot(parts []*EncodedIndex, slotMaps [][]Rid, nGlobal int) *EncodedIndex {
	sizes := make([]int, nGlobal)
	card, total := 0, 0
	for p, e := range parts {
		sm := slotMaps[p]
		for s := 0; s < e.Len(); s++ {
			n := len(e.ListBytes(s))
			sizes[sm[s]] += n
			total += n
		}
		card += e.Cardinality()
	}
	checkEncodedSize(total)
	offs := make([]uint32, nGlobal+1)
	for i := 0; i < nGlobal; i++ {
		offs[i+1] = offs[i] + uint32(sizes[i])
	}
	data := make([]byte, offs[nGlobal])
	cursor := make([]uint32, nGlobal)
	copy(cursor, offs[:nGlobal])
	for p, e := range parts {
		sm := slotMaps[p]
		for s := 0; s < e.Len(); s++ {
			g := sm[s]
			b := e.ListBytes(s)
			copy(data[cursor[g]:], b)
			cursor[g] += uint32(len(b))
		}
	}
	return newEncodedIndex(offs, data, card)
}

// MergePairsByRid builds one exactly-sized forward RidIndex from
// partition-local (entry rid, value) pair arrays collected in scan order —
// the memory-lean alternative to a relation-sized index per partition.
// Entry r of the result concatenates each partition's values for r in
// partition order (which reproduces serial append order when partitions are
// contiguous and ordered), with each value mapped through remap — an output
// offset rebase for join probes, a local-slot→global-slot map for
// aggregations.
func MergePairsByRid(pairR, pairV [][]Rid, n int, remap func(part int, v Rid) Rid) *RidIndex {
	counts := make([]int32, n)
	for _, rs := range pairR {
		for _, r := range rs {
			counts[r]++
		}
	}
	out := NewRidIndexWithCounts(counts)
	for p, rs := range pairR {
		vs := pairV[p]
		for i, r := range rs {
			out.AppendFast(int(r), remap(p, vs[i]))
		}
	}
	return out
}
