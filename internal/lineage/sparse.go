package lineage

import (
	"math/bits"
	"unsafe"

	"smoke/internal/serr"
)

// SparseArr is the compact 1-to-1 forward representation: an optional
// presence bitmap over the n source records and one value slot per present
// record, packed at the narrowest width that holds the values.
//
//   - With a bitmap it covers a rid subset — the forward lineage of an
//     aggregation over a trace or a filtered scan, where most records map to
//     nothing. A rank directory (present records before each 64-record word)
//     turns a lookup into one word load, one popcount and one value load;
//     absent records read -1.
//   - Without one (words == nil) every record is present and slot i is
//     record i's value: a dense forward array, one load per probe.
//
// Values are 1, 2 or 4 bytes. Width 1 and 2 slots are unsigned (u8, u16) and
// their all-ones value is -1; width 4 is a []Rid, the layout the capturing
// kernels write through Set. A 1000-group aggregation's forward
// array therefore costs 2 bytes per record instead of 4, and a 4-group one 1
// byte — queried in place, never expanded back to a full rid array (cf.
// "Compression and In-Situ Query Processing for Fine-Grained Array Lineage").
type SparseArr struct {
	n     int
	words []uint64 // presence bitmap; nil when every record is present
	rank  []uint32 // rank[w] = present records in words[:w]; nil without a bitmap
	width int      // bytes per value slot: 1, 2 or 4
	u8    []uint8  // the values at width 1
	u16   []uint16 // the values at width 2
	vals  []Rid    // the values at width 4
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
	return &SparseArr{n: n, words: words, rank: rank, width: 4, vals: make([]Rid, present)}
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

// Set writes present record r's value. Only capture-time arrays (from
// NewSparseArr: a bitmap and 4-byte slots) are written.
func (s *SparseArr) Set(r, v Rid) { s.vals[s.pos(r)] = v }

// at returns the value in slot k. Adding one wraps a narrow slot's all-ones
// value to 0, so subtracting it again yields -1 without a branch.
func (s *SparseArr) at(k int) Rid {
	switch s.width {
	case 1:
		return Rid(s.u8[k]+1) - 1
	case 2:
		return Rid(s.u16[k]+1) - 1
	}
	return s.vals[k]
}

// Get returns record i's value, or -1 when i is absent.
func (s *SparseArr) Get(i Rid) Rid {
	k := int(i)
	if s.words != nil {
		w := uint(i) >> 6
		x := s.words[w]
		bit := uint64(1) << (uint(i) & 63)
		if x&bit == 0 {
			return -1
		}
		k = int(s.rank[w]) + bits.OnesCount64(x&(bit-1))
	}
	return s.at(k)
}

// RebaseRids maps the values of the present records rids (a partition's
// slice of a distinct input rid list) through slotMap in place: the parallel
// aggregation merge's local-to-global group slot rebase, on a capture-time
// array.
func (s *SparseArr) RebaseRids(rids []Rid, slotMap []Rid) {
	for _, r := range rids {
		p := s.pos(r)
		s.vals[p] = slotMap[s.vals[p]]
	}
}

// Len returns the number of source records (present or not).
func (s *SparseArr) Len() int { return s.n }

// present returns the number of value slots.
func (s *SparseArr) present() int { return len(s.u8) + len(s.u16) + len(s.vals) }

// SizeBytes returns the memory footprint: bitmap, rank directory and values.
func (s *SparseArr) SizeBytes() int {
	return 8*len(s.words) + 4*len(s.rank) + s.width*s.present()
}

// each calls fn with every present record and its value, in ascending rid
// order.
func (s *SparseArr) each(fn func(i, v Rid)) {
	if s.words == nil {
		for k := 0; k < s.n; k++ {
			fn(Rid(k), s.at(k))
		}
		return
	}
	k := 0
	for w, x := range s.words {
		for ; x != 0; x &= x - 1 {
			fn(Rid(w<<6+bits.TrailingZeros64(x)), s.at(k))
			k++
		}
	}
}

// dense writes every record's value into out (len n), -1 where absent.
func (s *SparseArr) dense(out []Rid) {
	if s.words == nil {
		for i := range out {
			out[i] = s.at(i)
		}
		return
	}
	for i := range out {
		out[i] = -1
	}
	s.each(func(i, v Rid) { out[i] = v })
}

// remap returns the array over the same present set whose values are mapped
// through arr, -1 staying -1: the composition with a 1-to-1 index. The bitmap
// and rank directory are shared (both are immutable once built); the mapped
// values take 4-byte slots, since arr's range is not this array's.
func (s *SparseArr) remap(arr []Rid) *SparseArr {
	vals := make([]Rid, s.present())
	for k := range vals {
		if v := s.at(k); v >= 0 {
			vals[k] = arr[v]
		} else {
			vals[k] = -1
		}
	}
	return &SparseArr{n: s.n, words: s.words, rank: s.rank, width: 4, vals: vals}
}

// widthFor returns the narrowest slot width that holds every value in
// [-1, hi]: the all-ones slot of widths 1 and 2 is -1's.
func widthFor(hi Rid) int {
	switch {
	case hi < 0xff:
		return 1
	case hi < 0xffff:
		return 2
	}
	return 4
}

// maxVal returns the largest value of an array with 4-byte slots (-1 when
// there is none).
func (s *SparseArr) maxVal() Rid {
	m := Rid(-1)
	for _, v := range s.vals {
		m = max(m, v)
	}
	return m
}

// repack returns the array with 4-byte slots over the same present set with
// its values in slots of the given width, which must hold them (see
// widthFor).
func (s *SparseArr) repack(width int) *SparseArr {
	out := &SparseArr{n: s.n, words: s.words, rank: s.rank}
	out.alloc(width, len(s.vals))
	out.fill(s.vals)
	return out
}

// fill stores vals, one per slot, in s's slots (-1 truncates to a narrow
// slot's all-ones value).
func (s *SparseArr) fill(vals []Rid) {
	switch s.width {
	case 1:
		narrow(s.u8, vals)
	case 2:
		narrow(s.u16, vals)
	default:
		copy(s.vals, vals)
	}
}

func narrow[T uint8 | uint16](dst []T, vals []Rid) {
	for k, v := range vals {
		dst[k] = T(v)
	}
}

// alloc gives s count value slots of the given width.
func (s *SparseArr) alloc(width, count int) {
	s.width = width
	switch width {
	case 1:
		s.u8 = make([]uint8, count)
	case 2:
		s.u16 = make([]uint16, count)
	default:
		s.vals = make([]Rid, count)
	}
}

// put stores v in slot k (-1 truncates to a narrow slot's all-ones value).
func (s *SparseArr) put(k int, v Rid) {
	switch s.width {
	case 1:
		s.u8[k] = uint8(v)
	case 2:
		s.u16[k] = uint16(v)
	default:
		s.vals[k] = v
	}
}

// sparseCostPerWord is what a presence bitmap costs per 64 records: the word
// and its rank directory entry.
const sparseCostPerWord = 8 + 4

// EncodeForward returns the compact form of a 1-to-1 forward index — the one
// chooser every compressed or persisted forward index goes through. A rid
// array is sized in one pass that allocates nothing (its largest value, its
// present (non-negative) entries and its runs, as EncodeArr counts them) and
// becomes the smallest of: the run directory (EncodedArr, 9 bytes a run), a
// dense packed array (n·w bytes, w the narrowest slot width for the largest
// value), a bitmap plus packed values (12 bytes per 64 records plus w per
// present record), or the array itself (4n). A tie goes to the dense packed
// array, one load per probe; dense at width 4 is the array itself, which is
// then returned unchanged. A SparseArr with 4-byte slots (a capture-time or
// composed one) is repacked at the narrowest width.
// The chooser is idempotent, and any other index takes EncodeIndex's form.
func EncodeForward(ix *Index) *Index {
	switch ix.Kind {
	case OneToOne:
		return encodeForwardArr(ix)
	case SparseOne:
		// Only 4-byte slots can be narrower: every packed array was already
		// written at its narrowest width.
		if s := ix.Sparse; s.width == 4 {
			if w := widthFor(s.maxVal()); w < 4 {
				return NewSparseOne(s.repack(w))
			}
		}
		return ix
	}
	return EncodeIndex(ix)
}

func encodeForwardArr(ix *Index) *Index {
	arr := ix.Arr
	n := len(arr)
	if n == 0 {
		return ix
	}
	// The sizing pass walks the runs encodeArrRuns would build; each run's
	// largest value and present count follow from its kind and length.
	runs, present, maxV := 0, 0, Rid(-1)
	for i := 0; i < n; runs++ {
		end, v, seq := nextRun(arr, i)
		if seq {
			v += Rid(end - i - 1) // the run's last (largest) value
		}
		if v >= 0 {
			present += end - i
			maxV = max(maxV, v)
		}
		i = end
	}
	w := widthFor(maxV)
	dense := n * w
	sparse := sparseCostPerWord*((n+63)/64) + present*w
	switch {
	case arrRunCost*runs < min(dense, sparse):
		return NewEncodedOne(encodeArrRuns(arr, runs))
	case sparse < dense:
		s := &SparseArr{n: n, words: make([]uint64, (n+63)/64)}
		s.alloc(w, present)
		k := 0
		for i, v := range arr {
			if v >= 0 {
				s.words[i>>6] |= 1 << (i & 63)
				s.put(k, v)
				k++
			}
		}
		s.rank, _ = rankOf(s.words)
		return NewSparseOne(s)
	case w < 4:
		s := &SparseArr{n: n}
		s.alloc(w, n)
		s.fill(arr)
		return NewSparseOne(s)
	}
	return ix
}

// Parts exposes the persisted form: the record count, the presence bitmap
// (nil when every record is present), the slot width, and the value slots'
// bytes (native-endian; the rank directory is derived, see
// SparseArrFromParts). The slices are the array's own storage — callers must
// treat them as read-only.
func (s *SparseArr) Parts() (n int, words []uint64, width int, vals []byte) {
	switch s.width {
	case 1:
		vals = s.u8
	case 2:
		vals = bytesOf(s.u16)
	default:
		vals = bytesOf(s.vals)
	}
	return s.n, s.words, s.width, vals
}

// SparseArrFromParts reassembles a SparseArr around externally owned storage
// (typically slices aliasing a mapped segment) and rebuilds its rank
// directory. Everything a lookup trusts is validated: a bitmap, when there is
// one, has exactly one word per 64 records and no bit set at or past n; the
// width is 1, 2 or 4; vals holds exactly one slot of that width per present
// record; and every value is -1 or in [0, bound), where bound is the number
// of target records the values index (a forward index's output relation).
// Wider slots alias vals when it is aligned for them and copy it otherwise.
func SparseArrFromParts(n int, words []uint64, width int, vals []byte, bound int) (*SparseArr, error) {
	if n < 0 {
		return nil, serr.New(serr.Internal, "lineage: sparse array has %d records", n)
	}
	if width != 1 && width != 2 && width != 4 {
		return nil, serr.New(serr.Internal, "lineage: sparse array slot width %d is not 1, 2 or 4", width)
	}
	s := &SparseArr{n: n, width: width}
	present := n
	if words != nil {
		if len(words) != (n+63)/64 {
			return nil, serr.New(serr.Internal, "lineage: sparse array over %d records has %d bitmap words, want %d",
				n, len(words), (n+63)/64)
		}
		if tail := n & 63; tail != 0 && words[len(words)-1]>>tail != 0 {
			return nil, serr.New(serr.Internal, "lineage: sparse array bitmap sets a bit past record count %d", n)
		}
		s.words = words
		s.rank, present = rankOf(words)
	}
	// Divide rather than multiply: without a bitmap present is n, which a
	// crafted record count can make large enough for present*width to wrap.
	if len(vals)%width != 0 || len(vals)/width != present {
		return nil, serr.New(serr.Internal, "lineage: sparse array holds %d records at width %d, values hold %d bytes",
			present, width, len(vals))
	}
	switch width {
	case 1:
		s.u8 = vals
	case 2:
		s.u16 = viewAs[uint16](vals)
	default:
		s.vals = viewAs[Rid](vals)
	}
	for k := 0; k < present; k++ {
		if v := s.at(k); v < -1 || int64(v) >= int64(bound) {
			return nil, serr.New(serr.Internal, "lineage: sparse array value %d at slot %d is outside [-1, %d)", v, k, bound)
		}
	}
	return s, nil
}

// viewAs views b as native-endian slots of T, copying when b is not aligned
// for T.
func viewAs[T uint16 | Rid](b []byte) []T {
	size := int(unsafe.Sizeof(T(0)))
	if len(b) == 0 {
		return nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%uintptr(size) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/size)
	}
	out := make([]T, len(b)/size)
	copy(bytesOf(out), b)
	return out
}

// bytesOf views v's storage as bytes.
func bytesOf[T uint16 | Rid](v []T) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*int(unsafe.Sizeof(v[0])))
}
