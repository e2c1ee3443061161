package lineage

import "slices"

// RidIndex is the 1-to-N lineage representation (§3.1, Figure 3): an inverted
// index whose i-th entry is the rid array of input (or output) records
// associated with the i-th output (or input) record. Backward lineage of
// GROUP BY and forward lineage of JOIN use this shape.
type RidIndex struct {
	lists [][]Rid
}

// NewRidIndex returns an index with n (initially empty) entries.
func NewRidIndex(n int) *RidIndex {
	return &RidIndex{lists: make([][]Rid, n)}
}

// NewRidIndexWithCounts returns an index whose entry i is preallocated to
// exactly counts[i] capacity. This is the cardinality-statistics optimization:
// with exact counts, Append never resizes.
func NewRidIndexWithCounts(counts []int32) *RidIndex {
	return &RidIndex{lists: ExactLists(counts)}
}

// ExactLists returns one empty rid list per count, list i with exactly
// counts[i] capacity. One backing allocation for all lists keeps them dense
// in memory.
func ExactLists[C int32 | int64](counts []C) [][]Rid {
	lists := make([][]Rid, len(counts))
	total := 0
	for _, c := range counts {
		total += int(c)
	}
	backing := make([]Rid, 0, total)
	off := 0
	for i, c := range counts {
		lists[i] = backing[off : off : off+int(c)]
		off += int(c)
	}
	return lists
}

// Len returns the number of entries.
func (ix *RidIndex) Len() int { return len(ix.lists) }

// Append adds r to entry i under the growth policy.
func (ix *RidIndex) Append(i int, r Rid) {
	ix.lists[i] = AppendRid(ix.lists[i], r)
}

// AppendFast adds r to entry i assuming capacity was preallocated; it falls
// back to the growth policy if the estimate was too small.
func (ix *RidIndex) AppendFast(i int, r Rid) {
	l := ix.lists[i]
	if len(l) < cap(l) {
		ix.lists[i] = l[:len(l)+1]
		ix.lists[i][len(l)] = r
		return
	}
	ix.lists[i] = AppendRid(l, r)
}

// SetList installs a complete rid array as entry i (used when hash-table
// bucket lists are reused directly as lineage lists — the reuse principle P4).
func (ix *RidIndex) SetList(i int, rids []Rid) { ix.lists[i] = rids }

// List returns the rid array of entry i. The returned slice is owned by the
// index; callers must not mutate it.
func (ix *RidIndex) List(i int) []Rid { return ix.lists[i] }

// Cardinality returns the total number of rid entries across all lists.
func (ix *RidIndex) Cardinality() int {
	n := 0
	for _, l := range ix.lists {
		n += len(l)
	}
	return n
}

// Kind distinguishes the physical lineage representations.
type Kind uint8

const (
	// OneToOne is a single rid array: entry i maps record i to exactly one
	// record (rid -1 encodes "no match", e.g. records dropped by a filter).
	OneToOne Kind = iota
	// OneToMany is a RidIndex: entry i maps record i to a set of records.
	OneToMany
	// EncodedOne is a compressed rid array (run directory, EncodedArr).
	EncodedOne
	// EncodedMany is a compressed rid index (per-list adaptive chunks,
	// EncodedIndex). Queries read it in place; it is never decompressed
	// wholesale.
	EncodedMany
	// SparseOne is a compact rid array (SparseArr): values bit-packed at
	// the width the largest one needs, over every source record or, behind
	// a presence bitmap, over a subset of them. Only forward indexes take
	// this form — an aggregation over a rid subset captures it directly,
	// and EncodeForward packs a finished forward array into it.
	SparseOne
)

// Index is a direction-agnostic lineage index: a rid array or a rid index, in
// raw or encoded form. Backward indexes map output rids to input rids;
// forward indexes map input rids to output rids.
type Index struct {
	Kind   Kind
	Arr    []Rid         // when Kind == OneToOne
	Many   *RidIndex     // when Kind == OneToMany
	EncArr *EncodedArr   // when Kind == EncodedOne
	Enc    *EncodedIndex // when Kind == EncodedMany
	Sparse *SparseArr    // when Kind == SparseOne
}

// NewOneToOne wraps a rid array.
func NewOneToOne(arr []Rid) *Index { return &Index{Kind: OneToOne, Arr: arr} }

// NewOneToMany wraps a rid index.
func NewOneToMany(ix *RidIndex) *Index { return &Index{Kind: OneToMany, Many: ix} }

// NewEncodedOne wraps a compressed rid array.
func NewEncodedOne(e *EncodedArr) *Index { return &Index{Kind: EncodedOne, EncArr: e} }

// NewEncodedMany wraps a compressed rid index.
func NewEncodedMany(e *EncodedIndex) *Index { return &Index{Kind: EncodedMany, Enc: e} }

// NewSparseOne wraps a sparse rid array.
func NewSparseOne(s *SparseArr) *Index { return &Index{Kind: SparseOne, Sparse: s} }

// Encoded reports whether the index is stored in compressed form.
func (ix *Index) Encoded() bool { return ix.Kind == EncodedOne || ix.Kind == EncodedMany }

// EncodeIndex returns the compressed form of ix (or ix itself when already
// encoded or sparse, or when a rid array is incompressible and raw is the
// adaptive choice). Trace, Compose, and Invert read the result in place.
// Backward indexes take this form; forward ones go through EncodeForward.
func EncodeIndex(ix *Index) *Index {
	switch ix.Kind {
	case OneToOne:
		if e := EncodeArr(ix.Arr); e != nil {
			return NewEncodedOne(e)
		}
		return ix
	case OneToMany:
		return NewEncodedMany(EncodeRidIndex(ix.Many))
	}
	return ix
}

// SizeBytes returns the index's payload memory footprint (4 bytes per rid
// for raw forms; the encoded byte size otherwise).
func (ix *Index) SizeBytes() int {
	switch ix.Kind {
	case OneToOne:
		return 4 * len(ix.Arr)
	case OneToMany:
		return 4*ix.Many.Cardinality() + 24*ix.Many.Len() // lists + slice headers
	case EncodedOne:
		return ix.EncArr.SizeBytes()
	case SparseOne:
		return ix.Sparse.SizeBytes()
	default:
		return ix.Enc.SizeBytes()
	}
}

// Len returns the number of entries (source records) in the index.
func (ix *Index) Len() int {
	switch ix.Kind {
	case OneToOne:
		return len(ix.Arr)
	case OneToMany:
		return ix.Many.Len()
	case EncodedOne:
		return ix.EncArr.Len()
	case SparseOne:
		return ix.Sparse.Len()
	default:
		return ix.Enc.Len()
	}
}

// TraceOne appends the records mapped from source record i to dst and
// returns it. Encoded indexes decode the one touched entry in place.
func (ix *Index) TraceOne(i Rid, dst []Rid) []Rid {
	switch ix.Kind {
	case OneToOne:
		if r := ix.Arr[i]; r >= 0 {
			dst = append(dst, r)
		}
		return dst
	case OneToMany:
		return append(dst, ix.Many.List(int(i))...)
	case EncodedOne:
		if r := ix.EncArr.Get(i); r >= 0 {
			dst = append(dst, r)
		}
		return dst
	case SparseOne:
		if r := ix.Sparse.Get(i); r >= 0 {
			dst = append(dst, r)
		}
		return dst
	default:
		return ix.Enc.AppendList(int(i), dst)
	}
}

// Lookup appends, for each rid of src, the one record a one-to-one index
// maps it to, or -1 where it maps to none — the per-record probe of a
// forward index read as a perfect hash (the BT+FT counter loop). Encoded
// arrays probe through one cursor, amortized O(1) for the ascending rids of
// a backward list. It panics on a one-to-many index.
func (ix *Index) Lookup(src []Rid, dst []Rid) []Rid {
	off := len(dst)
	dst = slices.Grow(dst, len(src))[:off+len(src)]
	out := dst[off:]
	switch ix.Kind {
	case OneToOne:
		arr := ix.Arr
		for j, r := range src {
			out[j] = arr[r]
		}
	case SparseOne:
		ix.Sparse.lookup(src, out)
	case EncodedOne:
		c := ix.EncArr.Cursor()
		for j, r := range src {
			out[j] = c.Get(r)
		}
	default:
		panic("lineage: Lookup needs a one-to-one index")
	}
	return dst
}

// seqTracer returns a TraceOne-shaped probe function specialized for
// mostly-ascending probe sequences: EncodedOne indexes probe through a
// shared ArrCursor (run-pointer advance instead of per-probe binary search);
// every other kind is TraceOne itself.
func (ix *Index) seqTracer() func(i Rid, dst []Rid) []Rid {
	if ix.Kind != EncodedOne {
		return ix.TraceOne
	}
	c := ix.EncArr.Cursor()
	return func(i Rid, dst []Rid) []Rid {
		if r := c.Get(i); r >= 0 {
			dst = append(dst, r)
		}
		return dst
	}
}

// Trace returns the union (with duplicates preserved, per the paper's
// transformational semantics) of the records mapped from each source rid.
// Encoded indexes trace through their cursor forms: EncodedMany expands
// through AppendLists (headers size one exact allocation, each chunk decodes
// once), and EncodedOne probes through an ArrCursor (amortized O(1) per probe
// for the common ascending seed order instead of a binary search per rid).
func (ix *Index) Trace(src []Rid) []Rid {
	switch ix.Kind {
	case EncodedMany:
		return ix.Enc.AppendLists(src, []Rid{}) // non-nil even when empty: nil rid lists mean "all rows" downstream
	case EncodedOne:
		dst := make([]Rid, 0, len(src))
		c := ix.EncArr.Cursor()
		for _, i := range src {
			if r := c.Get(i); r >= 0 {
				dst = append(dst, r)
			}
		}
		return dst
	case SparseOne:
		var dst []Rid // nil when nothing maps, like the raw array's trace
		for _, i := range src {
			if r := ix.Sparse.Get(i); r >= 0 {
				dst = append(dst, r)
			}
		}
		return dst
	}
	var dst []Rid
	for _, i := range src {
		dst = ix.TraceOne(i, dst)
	}
	return dst
}

// Dedup keeps the first occurrence of each rid, in order — the set
// semantics (which-provenance) applied to an already-expanded rid bag. The
// input is not modified.
func Dedup(rids []Rid) []Rid {
	seen := make(map[Rid]struct{}, len(rids))
	out := rids[:0:0]
	for _, r := range rids {
		if _, ok := seen[r]; ok {
			continue
		}
		seen[r] = struct{}{}
		out = append(out, r)
	}
	return out
}

// DenseForward materializes a forward index over n source records as a
// dense rid array (-1 where a record maps to nothing): the perfect-hash
// form that counter-increment consumers (crossfilter BT+FT, profiling UG)
// read per record. One-to-one raw indexes return their array as-is; other
// forms keep each record's first mapping.
func (ix *Index) DenseForward(n int) []Rid {
	if ix.Kind == OneToOne {
		return ix.Arr
	}
	out := make([]Rid, n)
	if ix.Kind == SparseOne {
		ix.Sparse.dense(out)
		return out
	}
	if ix.Kind == EncodedOne {
		// The scan probes rids 0..n-1 in order: the cursor walks the run
		// directory once instead of binary-searching per entry.
		c := ix.EncArr.Cursor()
		for i := range out {
			out[i] = c.Get(Rid(i))
		}
		return out
	}
	var buf []Rid
	for i := 0; i < n; i++ {
		buf = ix.TraceOne(Rid(i), buf[:0])
		if len(buf) > 0 {
			out[i] = buf[0]
		} else {
			out[i] = -1
		}
	}
	return out
}

// Compose returns an index mapping the sources of outer to the targets of
// inner: outer maps A→B, inner maps B→C, result maps A→C. This implements
// lineage propagation across operator boundaries (§3.3): after composing, the
// intermediate (B) indexes can be garbage collected. Encoded operands are
// read in place, one entry at a time, and yield an encoded result (each
// composed list encodes as soon as it is complete — the full raw index is
// never materialized). A sparse outer over a 1-to-1 inner stays sparse: only
// its values are remapped.
func Compose(outer, inner *Index) *Index {
	if outer.Kind == SparseOne && inner.Kind == OneToOne {
		return NewSparseOne(outer.Sparse.remap(inner.Arr))
	}
	if outer.Kind == OneToOne && inner.Kind == OneToOne {
		arr := make([]Rid, len(outer.Arr))
		for i, mid := range outer.Arr {
			if mid < 0 {
				arr[i] = -1
			} else {
				arr[i] = inner.Arr[mid]
			}
		}
		return NewOneToOne(arr)
	}
	n := outer.Len()
	if outer.Encoded() || inner.Encoded() {
		b := NewEncodedBuilder(n)
		outerOne, innerOne := outer.seqTracer(), inner.seqTracer()
		var mids, row []Rid
		for i := 0; i < n; i++ {
			mids = outerOne(Rid(i), mids[:0])
			row = row[:0]
			for _, mid := range mids {
				row = innerOne(mid, row)
			}
			b.Add(row)
		}
		return NewEncodedMany(b.Build())
	}
	out := NewRidIndex(n)
	var buf []Rid
	for i := 0; i < n; i++ {
		buf = outer.TraceOne(Rid(i), buf[:0])
		for _, mid := range buf {
			out.lists[i] = inner.TraceOne(mid, out.lists[i])
		}
	}
	return NewOneToMany(out)
}

// Invert builds the opposite-direction index given the number of target
// records. Inverting a forward index yields a backward index and vice versa.
// An encoded input is streamed in place (two decode passes, no materialized
// raw copy of the input) and yields an encoded result.
func Invert(ix *Index, targets int) *Index {
	// Count first so the result is exactly sized (no growth cost).
	counts := make([]int32, targets)
	switch ix.Kind {
	case OneToOne:
		for _, r := range ix.Arr {
			if r >= 0 {
				counts[r]++
			}
		}
	case OneToMany:
		for i := 0; i < ix.Many.Len(); i++ {
			for _, r := range ix.Many.List(i) {
				counts[r]++
			}
		}
	case EncodedOne:
		// Both inversion passes scan entries 0..n-1 in order; the cursor
		// turns each pass into one walk of the run directory.
		c := ix.EncArr.Cursor()
		for i := 0; i < ix.EncArr.Len(); i++ {
			if r := c.Get(Rid(i)); r >= 0 {
				counts[r]++
			}
		}
	case SparseOne:
		// Absent records map to nothing: only the values are read, in
		// order.
		ix.Sparse.blocks(func(_ int, vals []Rid) {
			for _, r := range vals {
				if r >= 0 {
					counts[r]++
				}
			}
		})
	default:
		n := ix.Len()
		var buf []Rid
		for i := 0; i < n; i++ {
			buf = ix.TraceOne(Rid(i), buf[:0])
			for _, r := range buf {
				counts[r]++
			}
		}
	}
	out := NewRidIndexWithCounts(counts)
	switch ix.Kind {
	case OneToOne:
		for i, r := range ix.Arr {
			if r >= 0 {
				out.AppendFast(int(r), Rid(i))
			}
		}
	case OneToMany:
		for i := 0; i < ix.Many.Len(); i++ {
			for _, r := range ix.Many.List(i) {
				out.AppendFast(int(r), Rid(i))
			}
		}
	case EncodedOne:
		c := ix.EncArr.Cursor()
		for i := 0; i < ix.EncArr.Len(); i++ {
			if r := c.Get(Rid(i)); r >= 0 {
				out.AppendFast(int(r), Rid(i))
			}
		}
	case SparseOne:
		// Walk the present records only, in ascending rid order.
		ix.Sparse.each(func(i, r Rid) {
			if r >= 0 {
				out.AppendFast(int(r), i)
			}
		})
	default:
		n := ix.Len()
		var buf []Rid
		for i := 0; i < n; i++ {
			buf = ix.TraceOne(Rid(i), buf[:0])
			for _, r := range buf {
				out.AppendFast(int(r), Rid(i))
			}
		}
	}
	if ix.Encoded() {
		return NewEncodedMany(EncodeRidIndex(out))
	}
	return NewOneToMany(out)
}
