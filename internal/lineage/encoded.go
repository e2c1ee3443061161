package lineage

// Compressed rid-set representations. Lineage memory grows linearly with
// capture cardinality when rid lists are raw []Rid slices; the encoded forms
// here shrink the common shapes — dense ranges from contiguous-morsel
// capture, near-sorted lists with small gaps, clustered sets — while staying
// queryable in place: tracing iterates the encoded bytes directly and never
// materializes a decompressed index (cf. "Compression and In-Situ Query
// Processing for Fine-Grained Array Lineage", Zhao & Krishnan).
//
// An encoded list is a sequence of self-contained chunks (format v2), each
//
//	tag byte | uvarint element count n | [uvarint body length] | body
//
// so two encoded lists concatenate into a valid encoded list. That is what
// makes the parallel merge compression-aware: partition-local lists encode
// independently and the merge concatenates their chunk bytes in partition
// order (MergeEncodedBySlot) without re-encoding — decode order reproduces
// serial append order exactly, because partitions cover disjoint, ordered rid
// ranges and merge in partition order.
//
// Every chunk's extent is known from its header, so skipping a chunk, sizing
// a list (ListLen) and tracing in situ (TraceInSitu) never read a payload:
// raw, range and bitmap bodies have a length their header fields imply, and
// the varint-stream kinds (gaps, delta, rle) record their body's byte length
// once they hold lenHeaderMin elements or more. Below that the length field
// is omitted — a join's thousands of 1–7-rid lists would pay a byte each for
// it — and the cursor delimits the body by walking at most lenHeaderMin-1
// varints. The decoder knows which layout it reads from n alone.
//
// Chunk encodings (chosen adaptively per list: the smallest wins, except that
// a bitmap must be clearly smaller, because it decodes slower; see
// bitmapMargin):
//
//   - range:  one contiguous ascending run; body is the uvarint start.
//   - gaps:   strictly ascending lists (every group-by backward list): uvarint
//     first value, then n-1 unsigned uvarint gaps. No zigzag: a gap below 128
//     is one byte where the signed form spends two from 64 up, which is what
//     pays for the length field.
//   - rle:    run-length: uvarint first start, then alternating uvarint run
//     length and uvarint gap to the next run. Strictly ascending lists only.
//   - bitmap: fixed-width bitmap over [base, base+8·nbytes); body is uvarint
//     base, uvarint nbytes, then the bitmap. Strictly ascending only.
//   - delta:  zigzag varints — absolute first value, then n-1 signed deltas.
//     Handles arbitrary (unsorted, duplicated) lists.
//   - raw:    4-byte little-endian rids; the incompressibility fallback that
//     bounds worst-case size at raw-array cost.
//
// Chunk bytes are persisted verbatim (internal/diskstore), so a layout change
// here is a segment format change: bump diskstore's segment magic with it.

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

const (
	chunkRaw byte = iota
	chunkRange
	chunkDelta
	chunkRLE
	chunkBitmap
	chunkGaps
)

// lenHeaderMin is the element count from which a gaps, delta or rle chunk
// carries its body's byte length (see the format comment above).
const lenHeaderMin = 16

// hasLenHeader reports whether a chunk of the given kind and element count
// records its body length.
func hasLenHeader(tag byte, n int) bool {
	return n >= lenHeaderMin && (tag == chunkGaps || tag == chunkDelta || tag == chunkRLE)
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// EncodedIndex is a compressed RidIndex: n encoded lists packed into one byte
// buffer behind an offset directory, in one of two forms.
//
//   - Dense (no presence bitmap): n+1 offsets, entry i's chunks live in
//     data[offs[i]:offs[i+1]], and an empty list occupies zero bytes.
//   - Directory: a presence bitmap over the n entries, set for the non-empty
//     ones, and offsets for those only — entry i's chunks are the rank(i)-th
//     range. It is the form of a forward index over a dimension table whose
//     rows mostly join nothing (4 bytes per empty entry become 1.5 bits).
//
// EncodedBuilder.Build keeps whichever directory is smaller (newEncodedIndex).
type EncodedIndex struct {
	n int
	presence
	offs []uint32
	data []byte
	card int
}

// Len returns the number of entries.
func (e *EncodedIndex) Len() int { return e.n }

// Cardinality returns the total number of rid elements across all lists.
func (e *EncodedIndex) Cardinality() int { return e.card }

// SizeBytes returns the memory footprint of the encoded payload plus the
// offset directory (the bytes-per-rid numerator in the compress experiment).
func (e *EncodedIndex) SizeBytes() int {
	return len(e.data) + 4*len(e.offs) + e.presence.sizeBytes()
}

// ListBytes returns entry i's raw chunk bytes (shared, read-only; empty for
// an absent entry of the directory form). Because chunks are
// self-contained, these bytes may be concatenated with another list's to
// form the encoded concatenation of the two lists.
func (e *EncodedIndex) ListBytes(i int) []byte {
	if e.words != nil {
		if !e.has(i) {
			return nil
		}
		i = e.before(i)
	}
	return e.data[e.offs[i]:e.offs[i+1]]
}

// ListLen returns entry i's element count by summing chunk headers; no
// payload is read (sub-lenHeaderMin varint chunks aside).
func (e *EncodedIndex) ListLen(i int) int { return chunksLen(e.ListBytes(i)) }

// chunksLen sums the header counts of a chunk sequence.
func chunksLen(b []byte) int {
	c := EncCursor{rest: b}
	total := 0
	for ch, ok := c.Next(); ok; ch, ok = c.Next() {
		total += ch.N
	}
	return total
}

// AppendList decodes entry i onto dst and returns it (the TraceOne shape:
// one entry at a time into a buffer the caller reuses, so there is no sizing
// walk — each chunk's header pre-grows dst by its own count).
func (e *EncodedIndex) AppendList(i int, dst []Rid) []Rid {
	return appendChunks(dst, e.ListBytes(i))
}

// AppendLists decodes entries src, in order, onto dst: the expansion behind
// every multi-seed decoding trace (Index.Trace, ParTrace, ParTraceFiltered).
// A header-only walk sizes the output, so dst grows at most once, and each
// chunk then decodes once, straight into its final slot: one pass over the
// seeds' bytes.
func (e *EncodedIndex) AppendLists(src []Rid, dst []Rid) []Rid {
	return e.appendEntries(slices.Grow(dst, e.listsLen(src)), src)
}

// listsLen sums the header counts of entries src.
func (e *EncodedIndex) listsLen(src []Rid) int {
	total := 0
	for _, i := range src {
		total += e.ListLen(int(i))
	}
	return total
}

// appendEntries decodes entries src, in order, onto dst (unsized: see
// AppendLists).
func (e *EncodedIndex) appendEntries(dst []Rid, src []Rid) []Rid {
	for _, i := range src {
		dst = appendChunks(dst, e.ListBytes(int(i)))
	}
	return dst
}

// appendChunks decodes the chunk sequence b onto dst: the one decode loop
// every expansion path runs.
func appendChunks(dst []Rid, b []byte) []Rid {
	c := EncCursor{rest: b}
	for ch, ok := c.Next(); ok; ch, ok = c.Next() {
		dst = ch.ExpandInto(dst)
	}
	return dst
}

// EncodedBuilder assembles an EncodedIndex one list at a time.
type EncodedBuilder struct {
	offs []uint32
	data []byte
	card int
}

// NewEncodedBuilder returns a builder with capacity hints for n lists.
func NewEncodedBuilder(n int) *EncodedBuilder {
	return &EncodedBuilder{offs: make([]uint32, 1, n+1)}
}

// checkEncodedSize makes payload growth past the uint32 offset ceiling loud:
// silent wraparound would corrupt every list boundary after the 4 GiB mark.
// Raw cost is 4 bytes/rid, so this only triggers past ~10^9 captured rids in
// one index — shard the capture (or prune directions) before that.
func checkEncodedSize(n int) {
	if uint64(n) > uint64(^uint32(0)) {
		panic("lineage: encoded index payload exceeds the 4 GiB uint32-offset ceiling; shard the capture")
	}
}

// Add encodes list as the next entry (appendEncodedList picks the encoding).
func (b *EncodedBuilder) Add(list []Rid) {
	b.data = appendEncodedList(b.data, list)
	checkEncodedSize(len(b.data))
	b.offs = append(b.offs, uint32(len(b.data)))
	b.card += len(list)
}

// Build finalizes the index. The builder must not be reused.
func (b *EncodedBuilder) Build() *EncodedIndex {
	return newEncodedIndex(b.offs, b.data, b.card)
}

// newEncodedIndex wraps a dense offset directory over len(offs)-1 entries
// and keeps whichever form is smaller: the dense one (4 bytes an entry) or
// the directory form (12 bytes per 64 entries for the presence bitmap and
// its rank, plus 4 bytes a non-empty entry). It is the one chooser every
// encoded index goes through: EncodedBuilder.Build and the partition merge.
func newEncodedIndex(offs []uint32, data []byte, card int) *EncodedIndex {
	n := len(offs) - 1
	present := 0
	for i := 0; i < n; i++ {
		if offs[i+1] != offs[i] {
			present++
		}
	}
	if presenceCost(n)+4*(present+1) >= 4*(n+1) {
		return &EncodedIndex{n: n, offs: offs, data: data, card: card}
	}
	return directoryIndex(offs, data, card, present)
}

// directoryIndex returns the directory form of the dense offset directory
// offs, present of whose entries are non-empty.
func directoryIndex(offs []uint32, data []byte, card, present int) *EncodedIndex {
	n := len(offs) - 1
	words := make([]uint64, (n+63)/64)
	dir := make([]uint32, 1, present+1)
	for i := 0; i < n; i++ {
		if offs[i+1] != offs[i] {
			words[i>>6] |= 1 << (i & 63)
			dir = append(dir, offs[i+1])
		}
	}
	p, _ := newPresence(words)
	return &EncodedIndex{n: n, presence: p, offs: dir, data: data, card: card}
}

// withLenHeader returns a varint-stream body's size plus the length field a
// chunk of n elements carries for it.
func withLenHeader(body, n int) int {
	if n >= lenHeaderMin {
		return body + uvarintLen(uint64(body))
	}
	return body
}

// bitmapMargin sets how much smaller than the best other candidate a bitmap
// chunk must be to win: by more than 1/bitmapMargin of it. A bitmap decodes
// slower per rid than one-byte gaps at every density (cursor_bench_test.go's
// kernel benches), and the two sizes cross at 1/8 density, where the largest
// group of a skewed group-by sits; so a list between 1/8 and 1/7 density
// spends up to 1/7 more bytes to decode as gaps.
const bitmapMargin = 8

// appendEncodedList appends list as one adaptively-chosen chunk. Empty lists
// append nothing (a zero-byte list decodes as empty).
func appendEncodedList(data []byte, list []Rid) []byte {
	n := len(list)
	if n == 0 {
		return data
	}
	// One analysis pass over an ascending list: exact gaps and RLE body sizes.
	// It stops at the first descent — only then is the zigzag size needed.
	ascending := true
	gapsSize := uvarintLen(uint64(list[0]))
	rleSize := gapsSize
	runs, runLen := 1, 1
	for i := 1; i < n; i++ {
		d := int64(list[i]) - int64(list[i-1])
		if d <= 0 {
			ascending = false
			break
		}
		gapsSize += uvarintLen(uint64(d))
		if d == 1 {
			runLen++
		} else {
			rleSize += uvarintLen(uint64(runLen)) + uvarintLen(uint64(d-1))
			runs++
			runLen = 1
		}
	}

	// body is the chosen encoding's byte size after the header, size the same
	// plus the length field the varint-stream kinds may carry.
	tag, body, size := chunkRaw, 4*n, 4*n
	switch {
	case ascending && runs == 1:
		tag = chunkRange
	case ascending:
		if s := withLenHeader(gapsSize, n); s <= size {
			tag, body, size = chunkGaps, gapsSize, s
		}
		rleSize += uvarintLen(uint64(runLen)) // close the last run
		if s := withLenHeader(rleSize, n); s <= size {
			tag, body, size = chunkRLE, rleSize, s
		}
		span := int64(list[n-1]) - int64(list[0]) + 1
		nb := (span + 7) / 8
		if bm := uvarintLen(uint64(list[0])) + uvarintLen(uint64(nb)) + int(nb); bitmapMargin*bm < (bitmapMargin-1)*size {
			tag = chunkBitmap
		}
	default:
		deltaSize := uvarintLen(zigzag(int64(list[0])))
		for i := 1; i < n; i++ {
			deltaSize += uvarintLen(zigzag(int64(list[i]) - int64(list[i-1])))
		}
		if s := withLenHeader(deltaSize, n); s <= size {
			tag, body = chunkDelta, deltaSize
		}
	}

	data = append(data, tag)
	data = binary.AppendUvarint(data, uint64(n))
	if hasLenHeader(tag, n) {
		data = binary.AppendUvarint(data, uint64(body))
	}
	switch tag {
	case chunkRange:
		data = binary.AppendUvarint(data, uint64(list[0]))
	case chunkRaw:
		for _, r := range list {
			data = binary.LittleEndian.AppendUint32(data, uint32(r))
		}
	case chunkGaps:
		data = binary.AppendUvarint(data, uint64(list[0]))
		for i := 1; i < n; i++ {
			data = binary.AppendUvarint(data, uint64(list[i]-list[i-1]))
		}
	case chunkDelta:
		data = binary.AppendUvarint(data, zigzag(int64(list[0])))
		for i := 1; i < n; i++ {
			data = binary.AppendUvarint(data, zigzag(int64(list[i])-int64(list[i-1])))
		}
	case chunkRLE:
		data = binary.AppendUvarint(data, uint64(list[0]))
		runLen := 1
		for i := 1; i < n; i++ {
			if list[i] == list[i-1]+1 {
				runLen++
				continue
			}
			data = binary.AppendUvarint(data, uint64(runLen))
			data = binary.AppendUvarint(data, uint64(list[i]-list[i-1]-1))
			runLen = 1
		}
		data = binary.AppendUvarint(data, uint64(runLen))
	case chunkBitmap:
		base := list[0]
		span := int64(list[n-1]) - int64(base) + 1
		nb := int((span + 7) / 8)
		data = binary.AppendUvarint(data, uint64(base))
		data = binary.AppendUvarint(data, uint64(nb))
		off := len(data)
		data = append(data, make([]byte, nb)...)
		for _, r := range list {
			bit := int(r - base)
			data[off+bit/8] |= 1 << (bit % 8)
		}
	}
	return data
}

// EncodeLists encodes a slice of rid lists (e.g. partition-local per-group
// lists) into an EncodedIndex.
func EncodeLists(lists [][]Rid) *EncodedIndex {
	b := NewEncodedBuilder(len(lists))
	for _, l := range lists {
		b.Add(l)
	}
	return b.Build()
}

// EncodeRidIndex encodes every list of a raw rid index.
func EncodeRidIndex(ix *RidIndex) *EncodedIndex { return EncodeLists(ix.lists) }

// DecodeRidIndex materializes the raw form (tests and debugging; the query
// path never calls this).
func DecodeRidIndex(e *EncodedIndex) *RidIndex {
	ix := NewRidIndex(e.Len())
	for i := 0; i < e.Len(); i++ {
		ix.lists[i] = e.AppendList(i, nil)
	}
	return ix
}

// EncodedArr is a compressed rid array (the 1-to-1 representation): maximal
// runs of sequential (arr[j] = v + j - start) or constant (repeated value,
// including the -1 "no match" filler) entries, random-accessed by binary
// search over run starts. Forward arrays of selections are long sequential
// and constant(-1) runs; forward arrays of aggregations over clustered keys
// are constant runs per group.
type EncodedArr struct {
	n      int
	starts []int32
	vals   []Rid
	seq    []bool
}

const (
	arrRunCost = 9 // 4 (start) + 4 (val) + 1 (kind) bytes per run
	rawRidCost = 4
)

// EncodeArr encodes arr, or returns nil when the run form is not smaller than
// the raw array (the adaptive fallback: interleaved values — and arrays too
// small for the run directory to pay off — stay raw).
func EncodeArr(arr []Rid) *EncodedArr {
	n := len(arr)
	if n == 0 {
		return nil
	}
	maxRuns := n * rawRidCost / arrRunCost
	return encodeArrRuns(arr, maxRuns)
}

// encodeArrRuns builds the run directory, abandoning (nil) once more than
// maxRuns runs accumulate.
func encodeArrRuns(arr []Rid, maxRuns int) *EncodedArr {
	n := len(arr)
	e := &EncodedArr{n: n}
	for i := 0; i < n; {
		end, v, seq := nextRun(arr, i)
		e.starts = append(e.starts, int32(i))
		e.vals = append(e.vals, v)
		e.seq = append(e.seq, seq)
		if len(e.starts) > maxRuns {
			return nil // incompressible: keep the raw array
		}
		i = end
	}
	return e
}

// nextRun returns the end of the run that starts at arr[i], its first value,
// and whether it is sequential (v, v+1, ...) rather than constant. A
// sequential run never starts at -1. It is the one run grammar: the run
// directory is built from it and EncodeForward sizes that directory with it.
func nextRun(arr []Rid, i int) (end int, v Rid, seq bool) {
	n := len(arr)
	start, v := i, arr[i]
	i++
	if i < n && arr[i] == v {
		for i < n && arr[i] == v {
			i++
		}
	} else if i < n && v >= 0 && arr[i] == v+1 {
		seq = true
		for i < n && arr[i] == v+Rid(i-start) {
			i++
		}
	}
	return i, v, seq
}

// Len returns the number of entries.
func (e *EncodedArr) Len() int { return e.n }

// SizeBytes returns the memory footprint of the run directory.
func (e *EncodedArr) SizeBytes() int { return len(e.starts) * arrRunCost }

// Get returns entry i.
func (e *EncodedArr) Get(i Rid) Rid {
	lo, hi := 0, len(e.starts)
	for lo < hi {
		mid := (lo + hi) / 2
		if e.starts[mid] <= int32(i) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	k := lo - 1
	if e.seq[k] {
		return e.vals[k] + Rid(int32(i)-e.starts[k])
	}
	return e.vals[k]
}

// Decode materializes the raw array (tests and debugging).
func (e *EncodedArr) Decode() []Rid {
	out := make([]Rid, e.n)
	for i := range out {
		out[i] = e.Get(Rid(i))
	}
	return out
}
