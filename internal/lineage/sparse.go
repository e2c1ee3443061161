package lineage

import (
	"math/bits"
	"slices"
	"unsafe"

	"smoke/internal/serr"
)

// SparseArr is the compact 1-to-1 forward representation: an optional
// presence bitmap over the n source records and one value slot per present
// record, packed at the exact bit width its largest value needs.
//
//   - With a bitmap it covers a rid subset — the forward lineage of an
//     aggregation over a trace or a filtered scan, where most records map to
//     nothing. A rank directory (present records before each 64-record word)
//     turns a lookup into one word load, one popcount and one value load;
//     absent records read -1.
//   - Without one (words == nil) every record is present and slot i is
//     record i's value: a dense forward array, one value load per probe.
//
// Packed slots are one little-endian, LSB-first bit stream of b-bit values,
// b in [1, 32] (b = 8, 16 and 32 are exactly the 1-, 2- and 4-byte slots of
// the earlier byte-width layout). Whether the all-ones slot reads -1 is a
// per-array flag: a dense array reserves it only when some record maps to
// nothing, and a bitmap array never needs it — an absent record is an unset
// bit. Capture-time arrays keep 32-bit slots as a []Rid, the layout the
// capturing kernels write through Set. A 1000-group aggregation's forward
// array therefore costs 10 bits per record instead of 32, and a 4-group one
// 2 — queried in place, never expanded back to a full rid array (cf.
// "Compression and In-Situ Query Processing for Fine-Grained Array Lineage").
type SparseArr struct {
	n int
	presence
	count  int      // value slots: the present records
	b      uint     // bits per slot, 1..32
	vals   []Rid    // the slots when b == 32
	packed []uint64 // the slots when b < 32
	mask   uint64   // 1<<b - 1
	wrap   uint64   // packed slot x reads (x+1)&wrap - 1: mask when all-ones is -1, else the (b+1)-bit mask
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
	p, present := newPresence(words)
	return &SparseArr{n: n, presence: p, count: present, b: 32, vals: make([]Rid, present)}
}

// newPacked returns the array over n records with presence p whose count
// b-bit slots hold vals in order: every value for a dense array, the
// non-negative ones for a bitmap array (whose records holding -1 are absent).
// sentinel makes the all-ones slot read -1. The slots are packed in one pass,
// a word at a time.
func newPacked(n int, p presence, count int, b uint, sentinel bool, vals []Rid) *SparseArr {
	s := &SparseArr{n: n, presence: p, count: count, packed: make([]uint64, packedBytes(count, b)/8)}
	s.setBits(b, sentinel)
	skipNeg := p.words != nil
	var acc uint64 // the word being filled
	var have uint  // how many of acc's bits are filled
	w := 0
	for _, v := range vals {
		if v < 0 && skipNeg {
			continue
		}
		x := uint64(v) & s.mask
		acc |= x << have
		if have += b; have >= 64 { // the word is full: x's high bits start the next
			s.packed[w] = acc
			w++
			have -= 64
			acc = x >> (b - have)
		}
	}
	if have > 0 {
		s.packed[w] = acc
	}
	return s
}

// setBits sets the slot width of a packed array and whether its all-ones
// slot reads -1.
func (s *SparseArr) setBits(b uint, sentinel bool) {
	s.b, s.mask = b, 1<<b-1
	s.wrap = s.mask<<1 | 1
	if sentinel {
		s.wrap = s.mask
	}
}

// packedBytes returns the bytes of count b-bit slots: whole 64-bit words.
func packedBytes(count int, b uint) int { return 8 * ((count*int(b) + 63) / 64) }

// slotBits returns the bits a slot needs to hold every value in [0, hi] and,
// when neg, the all-ones -1 above them: at least 1.
func slotBits(hi Rid, neg bool) uint {
	top := int64(hi)
	if neg {
		top++
	}
	return uint(max(1, bits.Len64(uint64(max(top, 0)))))
}

// Set writes present record r's value. Only capture-time arrays (from
// NewSparseArr: a bitmap and 32-bit slots) are written.
func (s *SparseArr) Set(r, v Rid) { s.vals[s.before(int(r))] = v }

// at returns the value in slot k. Adding one wraps a sentinel array's
// all-ones slot to 0 under its mask, so subtracting it again yields -1
// without a branch; without a sentinel the wider wrap never wraps.
func (s *SparseArr) at(k int) Rid {
	if s.b == 32 {
		return s.vals[k]
	}
	return Rid((unpack(s.packed, uint(k)*s.b)&s.mask+1)&s.wrap - 1)
}

// unpack returns the bits of the LSB-first stream words from bit off on in
// the low bits of the result: the slot there, plus garbage above its b bits.
// The second load reads the next word, or the same one at the stream's end:
// a slot that does not straddle words only gains bits at or above 64-sh ≥ b
// from it. Both loads are unconditional, so a random probe never branches on
// whether its slot straddles.
func unpack(words []uint64, off uint) uint64 {
	w, sh := off>>6, off&63
	next := words[min(w+1, uint(len(words)-1))]
	return words[w]>>sh | next<<(63-sh)<<1
}

// decode writes the values of slots [k, k+len(out)) into out: one
// sequential pass over the packed stream, a buffered word at a time.
func (s *SparseArr) decode(k int, out []Rid) {
	if s.b == 32 {
		copy(out, s.vals[k:])
		return
	}
	b, mask, wrap, words := s.b, s.mask, s.wrap, s.packed
	off := uint(k) * b
	w := int(off >> 6)
	var buf uint64 // the unread bits of the last word loaded, low bits first
	var have uint  // how many of buf's bits are unread
	if sh := off & 63; sh != 0 {
		buf, have = words[w]>>sh, 64-sh
		w++
	}
	for i := range out {
		x := buf
		if have < b { // the slot continues in the next word
			nw := words[w]
			w++
			x |= nw << have
			buf = nw >> (b - have)
			have += 64 - b
		} else {
			buf >>= b
			have -= b
		}
		out[i] = Rid((x&mask+1)&wrap - 1)
	}
}

// blocks calls fn with the values of every slot, in order, up to 64 at a
// time (k is the first one's slot).
func (s *SparseArr) blocks(fn func(k int, vals []Rid)) {
	var buf [64]Rid
	for k := 0; k < s.count; k += len(buf) {
		vals := buf[:min(len(buf), s.count-k)]
		s.decode(k, vals)
		fn(k, vals)
	}
}

// Get returns record i's value, or -1 when i is absent.
func (s *SparseArr) Get(i Rid) Rid {
	k := int(i)
	if s.words != nil {
		if !s.has(k) {
			return -1
		}
		k = s.before(k)
	}
	return s.at(k)
}

// lookup writes Get(r) for each rid r of src to out, with the probe inline
// for every form: the bitmap word, rank and popcount when there is a bitmap,
// then the slot load — a 32-bit one (the capture-time form a filtered view's
// forward index holds) or an unpack of b packed bits (a persisted or
// compressed forward index).
func (s *SparseArr) lookup(src, out []Rid) {
	words, rank := s.words, s.rank
	if s.b == 32 {
		vals := s.vals
		if words == nil {
			for j, r := range src {
				out[j] = vals[r]
			}
			return
		}
		for j, r := range src {
			w, bit := uint(r)>>6, uint64(1)<<(uint(r)&63)
			x := words[w]
			if x&bit == 0 {
				out[j] = -1
				continue
			}
			out[j] = vals[int(rank[w])+bits.OnesCount64(x&(bit-1))]
		}
		return
	}
	packed, b, mask, wrap := s.packed, s.b, s.mask, s.wrap
	if words == nil {
		for j, r := range src {
			out[j] = Rid((unpack(packed, uint(r)*b)&mask+1)&wrap - 1)
		}
		return
	}
	for j, r := range src {
		w, bit := uint(r)>>6, uint64(1)<<(uint(r)&63)
		x := words[w]
		if x&bit == 0 {
			out[j] = -1
			continue
		}
		k := uint(rank[w]) + uint(bits.OnesCount64(x&(bit-1)))
		out[j] = Rid((unpack(packed, k*b)&mask+1)&wrap - 1)
	}
}

// RebaseRids maps the values of the present records rids (a partition's
// slice of a distinct input rid list) through slotMap in place: the parallel
// aggregation merge's local-to-global group slot rebase, on a capture-time
// array.
func (s *SparseArr) RebaseRids(rids []Rid, slotMap []Rid) {
	for _, r := range rids {
		p := s.before(int(r))
		s.vals[p] = slotMap[s.vals[p]]
	}
}

// Len returns the number of source records (present or not).
func (s *SparseArr) Len() int { return s.n }

// SizeBytes returns the memory footprint: bitmap, rank directory and values.
func (s *SparseArr) SizeBytes() int {
	return s.presence.sizeBytes() + 4*len(s.vals) + 8*len(s.packed)
}

// each calls fn with every present record and its value, in ascending rid
// order, decoding the values one 64-record word at a time.
func (s *SparseArr) each(fn func(i, v Rid)) {
	var buf [64]Rid
	for w, k := 0, 0; k < s.count; w++ {
		x := ^uint64(0)
		if s.words != nil {
			x = s.words[w]
		} else if rest := s.n - w<<6; rest < 64 {
			x = 1<<rest - 1
		}
		vals := buf[:bits.OnesCount64(x)]
		s.decode(k, vals)
		k += len(vals)
		for j := 0; x != 0; x &= x - 1 {
			fn(Rid(w<<6+bits.TrailingZeros64(x)), vals[j])
			j++
		}
	}
}

// dense writes every record's value into out (len n), -1 where absent.
func (s *SparseArr) dense(out []Rid) {
	if s.words == nil {
		s.decode(0, out)
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
// values take 32-bit slots, since arr's range is not this array's.
func (s *SparseArr) remap(arr []Rid) *SparseArr {
	vals := make([]Rid, s.count)
	s.decode(0, vals)
	for k, v := range vals {
		if v >= 0 {
			vals[k] = arr[v]
		}
	}
	return &SparseArr{n: s.n, presence: s.presence, count: s.count, b: 32, vals: vals}
}

// pack returns an array with 32-bit slots (a capture-time or composed one)
// at its exact bit width, or nil when that would not make it smaller. A
// dense array reserves the all-ones slot only when it holds a -1; a bitmap
// array instead drops the records holding -1 from a copy of its bitmap, so
// it needs none.
func (s *SparseArr) pack() *SparseArr {
	hi, neg := Rid(-1), 0
	for _, v := range s.vals {
		if v < 0 {
			neg++
		} else {
			hi = max(hi, v)
		}
	}
	b := slotBits(hi, neg > 0 && s.words == nil)
	if packedBytes(s.count, b) >= 4*s.count {
		return nil
	}
	if s.words == nil {
		return newPacked(s.n, presence{}, s.count, b, neg > 0, s.vals)
	}
	p := s.presence
	if neg > 0 {
		words := slices.Clone(s.words)
		k := 0
		for w, x := range s.words {
			for ; x != 0; x &= x - 1 {
				if s.vals[k] < 0 {
					words[w] &^= x & -x
				}
				k++
			}
		}
		p, _ = newPresence(words)
	}
	return newPacked(s.n, p, s.count-neg, b, false, s.vals)
}

// EncodeForward returns the compact form of a 1-to-1 forward index — the one
// chooser every compressed or persisted forward index goes through. A rid
// array is sized in one pass that allocates nothing (its largest value, its
// present (non-negative) entries and its runs, as EncodeArr counts them) and
// becomes the smallest of: the run directory (EncodedArr, 9 bytes a run), a
// dense bit-packed array (⌈n·b/64⌉ words, b the bits of the largest value,
// plus one for the -1 sentinel when an entry is -1), a bitmap plus
// bit-packed values (12 bytes per 64 records plus ⌈present·b/64⌉ words, no
// sentinel), or the array itself (4n). A tie goes to the dense packed array,
// one value load per probe; dense at 32 bits is the array itself, which is
// then returned unchanged. A SparseArr with 32-bit slots (a capture-time or
// composed one) is packed at its exact width unless that saves nothing; a
// packed one already is.
// The chooser is idempotent, and any other index takes EncodeIndex's form.
func EncodeForward(ix *Index) *Index {
	switch ix.Kind {
	case OneToOne:
		return encodeForwardArr(ix)
	case SparseOne:
		if s := ix.Sparse; s.b == 32 {
			if p := s.pack(); p != nil {
				return NewSparseOne(p)
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
	denseBits, sparseBits := slotBits(maxV, present < n), slotBits(maxV, false)
	dense := 4 * n
	if denseBits < 32 {
		dense = packedBytes(n, denseBits)
	}
	sparse := presenceCost(n) + packedBytes(present, sparseBits)
	switch {
	case arrRunCost*runs < min(dense, sparse):
		return NewEncodedOne(encodeArrRuns(arr, runs))
	case sparse < dense:
		words := make([]uint64, (n+63)/64)
		for i, v := range arr {
			if v >= 0 {
				words[i>>6] |= 1 << (i & 63)
			}
		}
		p, _ := newPresence(words)
		return NewSparseOne(newPacked(n, p, present, sparseBits, false, arr))
	case denseBits < 32:
		return NewSparseOne(newPacked(n, presence{}, n, denseBits, present < n, arr))
	}
	return ix
}

// Parts exposes the persisted form: the record count, the presence bitmap
// (nil when every record is present), the bits per slot, whether the
// all-ones slot reads -1 (always at 32 bits, where it is the rid -1), and
// the value slots' bytes (native-endian words; the rank directory is
// derived, see SparseArrFromParts). The slices are the array's own storage —
// callers must treat them as read-only.
func (s *SparseArr) Parts() (n int, words []uint64, b int, sentinel bool, vals []byte) {
	if s.b == 32 {
		return s.n, s.words, 32, true, bytesOf(s.vals)
	}
	return s.n, s.words, int(s.b), s.wrap == s.mask, bytesOf(s.packed)
}

// SparseArrFromParts reassembles a SparseArr around externally owned storage
// (typically slices aliasing a mapped segment) and rebuilds its rank
// directory. Everything a lookup trusts is validated: a bitmap, when there is
// one, has exactly one word per 64 records and no bit set at or past n; b is
// in [1, 32]; vals holds at least ⌈present·b/8⌉ bytes and at most the whole
// words they occupy; and every value is -1 or in [0, bound), where bound is
// the number of target records the values index (a forward index's output
// relation). 32-bit slots alias vals when it is aligned for them, and
// narrower ones when vals is whole aligned words; otherwise they are copied.
func SparseArrFromParts(n int, words []uint64, b int, sentinel bool, vals []byte, bound int) (*SparseArr, error) {
	if n < 0 {
		return nil, serr.New(serr.Internal, "lineage: sparse array has %d records", n)
	}
	if b < 1 || b > 32 {
		return nil, serr.New(serr.Internal, "lineage: sparse array bit width %d is not in [1, 32]", b)
	}
	s := &SparseArr{n: n, count: n}
	if words != nil {
		var err error
		if s.presence, s.count, err = presenceFromParts(words, n, "sparse array"); err != nil {
			return nil, err
		}
	}
	// Divide before multiplying: without a bitmap the count is n, which a
	// crafted record count can make large enough for count*b to wrap.
	if s.count > 8*len(vals)/b || len(vals) > packedBytes(s.count, uint(b)) {
		return nil, serr.New(serr.Internal, "lineage: sparse array holds %d records at %d bits, values hold %d bytes",
			s.count, b, len(vals))
	}
	if b == 32 {
		s.b, s.vals = 32, viewAs[Rid](vals)[:s.count]
	} else {
		s.setBits(uint(b), sentinel)
		s.packed = wordsOf(vals, packedBytes(s.count, uint(b))/8)
	}
	var err error
	s.blocks(func(k int, vals []Rid) {
		for j, v := range vals {
			if (v < -1 || int64(v) >= int64(bound)) && err == nil {
				err = serr.New(serr.Internal, "lineage: sparse array value %d at slot %d is outside [-1, %d)", v, k+j, bound)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// wordsOf returns b as nw native-endian words: a view when b is exactly
// those words and aligned for them, else a zero-padded copy.
func wordsOf(b []byte, nw int) []uint64 {
	if len(b) == 8*nw {
		return viewAs[uint64](b)
	}
	out := make([]uint64, nw)
	copy(bytesOf(out), b)
	return out
}

// viewAs views b as native-endian slots of T, copying when b is not aligned
// for T.
func viewAs[T uint64 | Rid](b []byte) []T {
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
func bytesOf[T uint64 | Rid](v []T) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*int(unsafe.Sizeof(v[0])))
}
