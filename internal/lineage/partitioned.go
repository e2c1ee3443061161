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

// PartitionedIndex is a backward rid index whose per-output rid arrays are
// partitioned by a predicate attribute (§4.2 data skipping): entry (output i,
// partition key p) holds exactly the input rids of output i whose partition
// attribute encodes to p. A parameterized lineage-consuming query
// σ_attr=:p(Lb(o, R)) then scans only the matching partition.
type PartitionedIndex struct {
	parts []map[int64][]Rid
	dict  *Dict
}

// NewPartitionedIndex returns an index with n outputs and the given (shared,
// possibly nil) dictionary for string-valued partition attributes.
func NewPartitionedIndex(n int, dict *Dict) *PartitionedIndex {
	return &PartitionedIndex{parts: make([]map[int64][]Rid, n), dict: dict}
}

// NewPartitionedIndexFromParts wraps per-output partition maps built
// incrementally during capture (the operator appends maps as groups are
// discovered, then hands them over without copying).
func NewPartitionedIndexFromParts(parts []map[int64][]Rid, dict *Dict) *PartitionedIndex {
	return &PartitionedIndex{parts: parts, dict: dict}
}

// Dict returns the dictionary used for string partition attributes (nil for
// integer attributes).
func (p *PartitionedIndex) Dict() *Dict { return p.dict }

// Len returns the number of outputs.
func (p *PartitionedIndex) Len() int { return len(p.parts) }

// Append adds rid to the partition key part of output i.
func (p *PartitionedIndex) Append(i int, part int64, rid Rid) {
	m := p.parts[i]
	if m == nil {
		m = map[int64][]Rid{}
		p.parts[i] = m
	}
	m[part] = AppendRid(m[part], rid)
}

// Partition returns the rid array for (output i, partition key part).
func (p *PartitionedIndex) Partition(i int, part int64) []Rid {
	m := p.parts[i]
	if m == nil {
		return nil
	}
	return m[part]
}

// Partitions returns the partition keys present for output i, ascending.
func (p *PartitionedIndex) Partitions(i int) []int64 {
	m := p.parts[i]
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// All returns all rids of output i across partitions (the unpartitioned
// backward lineage): the partitions in ascending key order, each in capture
// order, so every call and every partitioning of the capture agrees.
func (p *PartitionedIndex) All(i int) []Rid {
	m := p.parts[i]
	var out []Rid
	for _, k := range p.Partitions(i) {
		out = append(out, m[k]...)
	}
	return out
}

// Flat returns the unpartitioned backward lineage as a plain 1-to-N index
// whose entry i is All(i).
func (p *PartitionedIndex) Flat() *Index {
	ix := NewRidIndex(len(p.parts))
	for i := range p.parts {
		ix.SetList(i, p.All(i))
	}
	return NewOneToMany(ix)
}

// Cardinality returns the total number of rid entries in the index.
func (p *PartitionedIndex) Cardinality() int {
	n := 0
	for _, m := range p.parts {
		for _, l := range m {
			n += len(l)
		}
	}
	return n
}
