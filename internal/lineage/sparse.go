package lineage

import (
	"math/bits"

	"smoke/internal/serr"
)

// SparseArr is the 1-to-1 forward representation over a rid subset of a base
// relation — the forward lineage of an aggregation over a trace or a filtered
// scan, where most records map to nothing. It holds a presence bitmap over
// all n source records, a rank directory (the number of present records
// before each 64-record word), and one value per present record in ascending
// rid order. Absent records read -1. A lookup is one word load, one popcount
// and one value load, and the form costs n/8 + n/16 bytes plus 4 per present
// record instead of 4 per record: it is queried in place and never expanded
// back to a full array (cf. "Compression and In-Situ Query Processing for
// Fine-Grained Array Lineage").
type SparseArr struct {
	n     int
	words []uint64
	rank  []uint32 // rank[w] = present records in words[:w]
	vals  []Rid
}

// NewSparseArr returns the sparse array over n records whose present set is
// rids (duplicates allowed; every rid in [0, n)): one bit-set pass, then the
// rank directory. Every present record's value starts at 0 — the capturing
// kernel writes each one with Set.
func NewSparseArr(n int, rids []Rid) *SparseArr {
	words := make([]uint64, (n+63)/64)
	for _, r := range rids {
		words[uint(r)>>6] |= 1 << (uint(r) & 63)
	}
	rank, present := rankOf(words)
	return &SparseArr{n: n, words: words, rank: rank, vals: make([]Rid, present)}
}

// rankOf builds the rank directory of a presence bitmap and returns it with
// the total number of present records.
func rankOf(words []uint64) ([]uint32, int) {
	rank := make([]uint32, len(words))
	total := 0
	for w, x := range words {
		rank[w] = uint32(total)
		total += bits.OnesCount64(x)
	}
	return rank, total
}

// pos returns the value slot of present record r.
func (s *SparseArr) pos(r Rid) int {
	w := uint(r) >> 6
	return int(s.rank[w]) + bits.OnesCount64(s.words[w]&(1<<(uint(r)&63)-1))
}

// Set writes present record r's value.
func (s *SparseArr) Set(r, v Rid) { s.vals[s.pos(r)] = v }

// Get returns record i's value, or -1 when i is absent.
func (s *SparseArr) Get(i Rid) Rid {
	w := uint(i) >> 6
	x := s.words[w]
	bit := uint64(1) << (uint(i) & 63)
	if x&bit == 0 {
		return -1
	}
	return s.vals[int(s.rank[w])+bits.OnesCount64(x&(bit-1))]
}

// RebaseRids maps the values of the present records rids (a partition's
// slice of a distinct input rid list) through slotMap in place: the parallel
// aggregation merge's local-to-global group slot rebase.
func (s *SparseArr) RebaseRids(rids []Rid, slotMap []Rid) {
	for _, r := range rids {
		p := s.pos(r)
		s.vals[p] = slotMap[s.vals[p]]
	}
}

// Len returns the number of source records (present or not).
func (s *SparseArr) Len() int { return s.n }

// SizeBytes returns the memory footprint: bitmap, rank directory and values.
func (s *SparseArr) SizeBytes() int { return 8*len(s.words) + 4*len(s.rank) + 4*len(s.vals) }

// dense writes every record's value into out (len n), -1 where absent.
func (s *SparseArr) dense(out []Rid) {
	for i := range out {
		out[i] = -1
	}
	k := 0
	for w, x := range s.words {
		for ; x != 0; x &= x - 1 {
			out[w<<6+bits.TrailingZeros64(x)] = s.vals[k]
			k++
		}
	}
}

// remap returns the sparse array over the same present set whose values are
// mapped through arr, -1 staying -1: the composition with a 1-to-1 index.
// The bitmap and rank directory are shared (both are immutable once built).
func (s *SparseArr) remap(arr []Rid) *SparseArr {
	vals := make([]Rid, len(s.vals))
	for k, v := range s.vals {
		if v >= 0 {
			v = arr[v]
		}
		vals[k] = v
	}
	return &SparseArr{n: s.n, words: s.words, rank: s.rank, vals: vals}
}

// Parts exposes the persisted form: the record count, the presence bitmap
// and the values (the rank directory is derived, see SparseArrFromParts).
// The slices are the array's own storage — callers must treat them as
// read-only.
func (s *SparseArr) Parts() (n int, words []uint64, vals []Rid) {
	return s.n, s.words, s.vals
}

// SparseArrFromParts reassembles a SparseArr around externally owned storage
// (typically slices aliasing a mapped segment) and rebuilds its rank
// directory. Everything a lookup trusts is validated: the bitmap has exactly
// one word per 64 records, no bit is set at or past n, the bitmap holds
// exactly one bit per value, and no value is below -1.
func SparseArrFromParts(n int, words []uint64, vals []Rid) (*SparseArr, error) {
	if n < 0 {
		return nil, serr.New(serr.Internal, "lineage: sparse array has %d records", n)
	}
	if len(words) != (n+63)/64 {
		return nil, serr.New(serr.Internal, "lineage: sparse array over %d records has %d bitmap words, want %d",
			n, len(words), (n+63)/64)
	}
	if tail := n & 63; tail != 0 && words[len(words)-1]>>tail != 0 {
		return nil, serr.New(serr.Internal, "lineage: sparse array bitmap sets a bit past record count %d", n)
	}
	rank, present := rankOf(words)
	if present != len(vals) {
		return nil, serr.New(serr.Internal, "lineage: sparse array bitmap holds %d records, values hold %d", present, len(vals))
	}
	for k, v := range vals {
		if v < -1 {
			return nil, serr.New(serr.Internal, "lineage: sparse array value %d at slot %d is below -1", v, k)
		}
	}
	return &SparseArr{n: n, words: words, rank: rank, vals: vals}, nil
}
