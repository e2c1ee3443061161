package lineage

import "slices"

// Dict interns partition-attribute values as dense int64 codes. The data
// skipping optimization (§4.2) partitions rid arrays by (possibly composite,
// possibly string-valued) predicate attributes; interning keeps partition
// keys integer-comparable regardless of attribute type.
type Dict struct {
	codes map[string]int64
	vals  []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{codes: map[string]int64{}} }

// Code interns v and returns its code.
func (d *Dict) Code(v string) int64 {
	if c, ok := d.codes[v]; ok {
		return c
	}
	c := int64(len(d.vals))
	d.codes[v] = c
	d.vals = append(d.vals, v)
	return c
}

// Lookup returns the code of v and whether v was ever interned.
func (d *Dict) Lookup(v string) (int64, bool) {
	c, ok := d.codes[v]
	return c, ok
}

// Value returns the string for a code.
func (d *Dict) Value(c int64) string { return d.vals[c] }

// Size returns the number of interned values.
func (d *Dict) Size() int { return len(d.vals) }

// PartitionDir is the §4.2 data-skipping directory of a backward index
// whose lists are stably ordered by partition code (OrderByPartition): for
// every list, the [lo, hi) range each present code occupies. A
// parameterized lineage-consuming query σ_attr=:p(Lb(o, R)) then reads only
// the range of p. The directory addresses the same index the capture holds,
// raw or encoded, and copies no rids.
type PartitionDir struct {
	ix *Index
	// List i's directory entries are [off[i], off[i+1]). Entry k holds a
	// code, ascending within the list, whose range ends at ends[k] and
	// starts where the list's previous entry ends (0 for its first).
	off   []int32
	codes []int64
	ends  []int32
	dict  *Dict
}

// OrderByPartition stably orders every list of ix by the rank of its
// entries' partition codes and returns the directory over the ordered
// index. ranks holds one rank per entry, list by list; codes[r] is the code
// of rank r, ascending in r. Two stable counting passes, first by rank and
// then by list, cost O(entries + ranks + lists) whatever the attribute's
// cardinality. dict is the dictionary that interned the codes, nil when
// they are INT values.
func OrderByPartition(ix *RidIndex, ranks []int32, codes []int64, dict *Dict) *PartitionDir {
	n := ix.Len()
	// Pass 1: bucket (list, rid) by rank, in list order within a bucket.
	start := make([]int32, len(codes)+1)
	for _, r := range ranks {
		start[r+1]++
	}
	for r := range codes {
		start[r+1] += start[r]
	}
	byList := make([]int32, len(ranks))
	byRid := make([]Rid, len(ranks))
	next := slices.Clone(start[:len(codes)])
	lens := make([]int32, n)
	e := 0
	for i, l := range ix.lists {
		lens[i] = int32(len(l))
		for _, rid := range l {
			k := next[ranks[e]]
			next[ranks[e]]++
			byList[k], byRid[k] = int32(i), rid
			e++
		}
	}
	// Pass 2: stable by list. A list's entries arrive in ascending rank, so
	// its directory entries do too; the first sweep counts them.
	off := make([]int32, n+1)
	last := make([]int32, n) // 1 + the rank of the list's last entry; 0 for none
	for r := range codes {
		for _, i := range byList[start[r]:start[r+1]] {
			if last[i] != int32(r)+1 {
				last[i] = int32(r) + 1
				off[i+1]++
			}
		}
	}
	for i := range n {
		off[i+1] += off[i]
	}
	d := &PartitionDir{off: off, codes: make([]int64, off[n]), ends: make([]int32, off[n]), dict: dict}
	out := ExactLists(lens)
	clear(last)
	nextDir := slices.Clone(off[:n])
	for r, code := range codes {
		for k := start[r]; k < start[r+1]; k++ {
			i := byList[k]
			if last[i] != int32(r)+1 {
				last[i] = int32(r) + 1
				d.codes[nextDir[i]] = code
				nextDir[i]++
			}
			out[i] = append(out[i], byRid[k])
			d.ends[nextDir[i]-1] = int32(len(out[i]))
		}
	}
	d.ix = NewOneToMany(&RidIndex{lists: out})
	return d
}

// Index returns the ordered backward index the directory addresses.
func (d *PartitionDir) Index() *Index { return d.ix }

// Encode replaces the addressed index with its compressed form; Partition
// then decodes a list before slicing it.
func (d *PartitionDir) Encode() { d.ix = EncodeIndex(d.ix) }

// Dict returns the dictionary used for string partition attributes (nil for
// integer attributes).
func (d *PartitionDir) Dict() *Dict { return d.dict }

// Len returns the number of outputs.
func (d *PartitionDir) Len() int { return len(d.off) - 1 }

// Partition returns the rids of output i whose partition code is code, in
// capture order: a raw list's range in place (capacity-clipped, so an
// append cannot reach the next range), an encoded list's range decoded.
func (d *PartitionDir) Partition(i int, code int64) []Rid {
	lo, hi := int(d.off[i]), int(d.off[i+1])
	k, ok := slices.BinarySearch(d.codes[lo:hi], code)
	if !ok {
		return nil
	}
	k += lo
	from, to := int32(0), d.ends[k]
	if k > lo {
		from = d.ends[k-1]
	}
	if d.ix.Kind == OneToMany {
		return d.ix.Many.List(i)[from:to:to]
	}
	return d.ix.Enc.AppendList(i, nil)[from:to]
}

// SizeBytes returns the directory's own memory footprint; the index it
// addresses belongs to the capture.
func (d *PartitionDir) SizeBytes() int { return 4*len(d.off) + 12*len(d.codes) }
