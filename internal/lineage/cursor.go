package lineage

// Chunk-cursor access to encoded lineage. This is the backend seam the trace
// kernels share: an encoded rid list is a sequence of self-contained chunks
// (see encoded.go), and a ChunkCursor walks them one at a time exposing
// count, bounds, and expansion — without ever materializing the whole list.
// Every chunk's byte extent comes from its header (format v2), so advancing
// the cursor never reads a payload; only sub-lenHeaderMin varint chunks are
// delimited by a (bounded) walk. Three trace strategies build on it:
//
//   - Expansion: every decoding caller runs the one chunk loop (appendChunks
//     → Chunk.ExpandInto) over the word-at-a-time kernels below — 8 payload
//     bytes per step for gaps chunks, decoded a run of one varint width at a
//     time, and 64-bit words for bitmaps. Multi-seed traces (Index.Trace,
//     ParTrace, ParTraceFiltered, via EncodedIndex.AppendLists) and
//     EncodedList.AppendTo first size the output exactly from the headers, so
//     each chunk decodes once into its final slot; one-entry probes
//     (TraceOne, and Compose/Invert through it) reuse a caller buffer and let
//     each chunk's header pre-grow it.
//   - In-situ trace (TraceInSitu / ParTraceInSitu): because chunks are
//     self-contained, the backward trace of a seed set is the byte
//     concatenation of the seeds' chunk bytes, and its element count is a sum
//     of headers — no payload is decoded or even scanned. The result stays
//     encoded (EncodedList) and moves ~1–2 bytes per rid instead of 4.
//   - In-situ intersection (IntersectEncoded): chunk pairs dispatch on their
//     encodings — range∩range is O(1) overlap arithmetic, bitmap∩bitmap is a
//     byte-wise AND — and only mismatched pairs fall back to expand-and-merge
//     over pooled scratch.
//
// The cursor and the kernels trust their bytes: an index built by the encoder
// is well-formed by construction, and bytes from outside the process pass
// ValidateEncoded (parts.go) before a cursor sees them.

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"smoke/internal/scratch"
)

// Chunk is one parsed chunk of an encoded list.
type Chunk struct {
	Tag   byte
	N     int // element count
	Start Rid // first rid (range/RLE start, bitmap base, first raw/gaps/delta element)
	// Payload is the per-kind body: raw = 4·N little-endian rids (including
	// the first), gaps/delta = the N-1 varints after the first value, RLE =
	// the run/gap varint stream, bitmap = the bitmap bytes, range = empty.
	Payload []byte
	// rawRids carries an in-memory list through the Chunk shape (RawCursor);
	// encoded raw chunks use Payload instead.
	rawRids []Rid
}

// ChunkCursor walks the chunks of one list. Implementations exist for the
// encoded byte form (EncCursor) and for raw rid arrays (RawCursor), so trace
// kernels written against the cursor work on either backend.
type ChunkCursor interface {
	// Next parses the next chunk, reporting false at the end of the list.
	Next() (Chunk, bool)
}

// EncCursor is a ChunkCursor over encoded chunk bytes (zero-copy: payloads
// alias the encoded buffer).
type EncCursor struct {
	rest []byte
}

// NewEncCursor returns a cursor over one encoded list's bytes (e.g.
// EncodedIndex.ListBytes or EncodedList.Data).
func NewEncCursor(b []byte) *EncCursor { return &EncCursor{rest: b} }

// Next parses the next chunk: the one parser of the chunk format. It reads
// header fields only — a varint-stream chunk's extent is its recorded body
// length — except below lenHeaderMin elements, where the body is delimited by
// walking its (at most lenHeaderMin-1) varints.
func (c *EncCursor) Next() (Chunk, bool) {
	b := c.rest
	if len(b) == 0 {
		return Chunk{}, false
	}
	tag := b[0]
	n64, k := binary.Uvarint(b[1:])
	b = b[1+k:]
	n := int(n64)
	ch := Chunk{Tag: tag, N: n}
	switch tag {
	case chunkRaw:
		ch.Start = Rid(binary.LittleEndian.Uint32(b))
		ch.Payload = b[:4*n]
		b = b[4*n:]
	case chunkRange:
		s, k := binary.Uvarint(b)
		ch.Start = Rid(s)
		b = b[k:]
	case chunkGaps, chunkDelta, chunkRLE:
		var body []byte
		if n >= lenHeaderMin {
			l, k := binary.Uvarint(b)
			body, b = b[k:k+int(l)], b[k+int(l):]
		} else {
			end := shortBodyLen(tag, n, b)
			body, b = b[:end], b[end:]
		}
		s, k := binary.Uvarint(body)
		if tag == chunkDelta {
			ch.Start = Rid(unzigzag(s))
		} else {
			ch.Start = Rid(s)
		}
		ch.Payload = body[k:]
	case chunkBitmap:
		base, k := binary.Uvarint(b)
		b = b[k:]
		nb, k := binary.Uvarint(b)
		b = b[k:]
		ch.Start = Rid(base)
		ch.Payload = b[:nb]
		b = b[nb:]
	}
	c.rest = b
	return ch, true
}

// shortBodyLen delimits the body of a varint-stream chunk too small to carry
// a length field: n varints for gaps/delta, the start plus the run/gap stream
// covering n elements for RLE.
func shortBodyLen(tag byte, n int, b []byte) int {
	end := 0
	if tag != chunkRLE {
		for ; n > 0; end++ {
			if b[end] < 0x80 {
				n--
			}
		}
		return end
	}
	_, end = binary.Uvarint(b)
	for rem := n; rem > 0; {
		l, k := binary.Uvarint(b[end:])
		end += k
		rem -= int(l)
		if rem > 0 {
			_, k := binary.Uvarint(b[end:])
			end += k
		}
	}
	return end
}

// RawCursor presents a raw rid array as a single-chunk cursor, so kernels
// written against ChunkCursor run on raw lists too.
type RawCursor struct {
	list []Rid
	done bool
}

// NewRawCursor returns a cursor over a raw rid list.
func NewRawCursor(list []Rid) *RawCursor { return &RawCursor{list: list} }

// Next returns the whole list as one raw-tagged chunk. Empty lists yield no
// chunks.
func (c *RawCursor) Next() (Chunk, bool) {
	if c.done || len(c.list) == 0 {
		return Chunk{}, false
	}
	c.done = true
	return Chunk{Tag: chunkRaw, N: len(c.list), Start: c.list[0], rawRids: c.list}, true
}

// Bounds returns the chunk's exact inclusive rid window when it is knowable
// without full decoding: range chunks by arithmetic, bitmap chunks by
// scanning for the last set byte. ok is false for raw, delta, and RLE
// chunks, whose extent requires decoding. The bounds must be exact — the
// intersection lockstep's advance rule relies on hi being the true last
// element, not an upper bound.
func (ch *Chunk) Bounds() (lo, hi Rid, ok bool) {
	switch ch.Tag {
	case chunkRange:
		return ch.Start, ch.Start + Rid(ch.N) - 1, true
	case chunkBitmap:
		p := ch.Payload
		i := len(p) - 1
		for i >= 0 && p[i] == 0 {
			i--
		}
		if i < 0 {
			return 0, 0, false // all-zero bitmap: no elements
		}
		return ch.Start, ch.Start + Rid(8*i+bits.Len8(p[i])-1), true
	}
	return 0, 0, false
}

// ExpandInto appends the chunk's rids to dst: one exact pre-grow (a no-op
// when the caller sized dst from the headers), then the per-kind kernel fills
// the chunk's slot with indexed writes — the decode every expansion path
// shares.
func (ch *Chunk) ExpandInto(dst []Rid) []Rid {
	n := ch.N
	if n == 0 {
		return dst
	}
	off := len(dst)
	dst = slices.Grow(dst, n)[:off+n]
	out := dst[off : off+n : off+n]
	switch ch.Tag {
	case chunkRaw:
		if ch.rawRids != nil {
			copy(out, ch.rawRids)
			break
		}
		p := ch.Payload[:4*n]
		for j := range out {
			out[j] = Rid(binary.LittleEndian.Uint32(p[4*j : 4*j+4]))
		}
	case chunkRange:
		fillRun(out, ch.Start)
	case chunkGaps:
		expandGaps(out, ch.Start, ch.Payload)
	case chunkDelta:
		expandDelta(out, ch.Start, ch.Payload)
	case chunkRLE:
		cur := ch.Start
		p := ch.Payload
		for j := 0; j < n; {
			l64, k := binary.Uvarint(p)
			p = p[k:]
			l := int(l64)
			fillRun(out[j:j+l], cur)
			j += l
			cur += Rid(l)
			if j < n {
				g, k := binary.Uvarint(p)
				p = p[k:]
				cur += Rid(g)
			}
		}
	case chunkBitmap:
		expandBitmap(out, ch.Start, ch.Payload)
	}
	return dst
}

// fillRun writes the contiguous run start, start+1, … over out.
func fillRun(out []Rid, start Rid) {
	for j := range out {
		out[j] = start + Rid(j)
	}
}

const (
	varintContBits = 0x8080808080808080
	twoByteRun     = 0x0080008000800080 // the continuation bits of 4 two-byte varints
)

// expandGaps decodes a gaps chunk: out[0] = first, then a running sum of
// len(out)-1 unsigned varint gaps. Each step loads 8 payload bytes and reads
// their continuation bits. None set means 8 one-byte gaps (a large group's
// list), and every second one set means 4 two-byte gaps (a small group's):
// either prefix-sums straight out of the register and advances a whole word.
// Any other word yields its leading run of one varint width: one-byte gaps
// (7 slots written unconditionally) or two-byte gaps (4 slots; the run is
// counted by matching the continuation bits against twoByteRun). The step
// keeps the run's slots, the last of which is the new running sum, and the
// next step overwrites the rest, which is why the loop needs 8 slots of room.
// Only varints of 3 bytes or more reach the generic decoder. The last few
// elements take the scalar path so the word load never reads past the
// payload.
func expandGaps(out []Rid, first Rid, p []byte) {
	out[0] = first
	prev := first
	j, n := 1, len(out)
	for j+8 <= n {
		w := binary.LittleEndian.Uint64(p)
		m := w & varintContBits
		o := out[j : j+8 : j+8]
		if m == 0 {
			prev += Rid(w & 0xff)
			o[0] = prev
			prev += Rid(w >> 8 & 0xff)
			o[1] = prev
			prev += Rid(w >> 16 & 0xff)
			o[2] = prev
			prev += Rid(w >> 24 & 0xff)
			o[3] = prev
			prev += Rid(w >> 32 & 0xff)
			o[4] = prev
			prev += Rid(w >> 40 & 0xff)
			o[5] = prev
			prev += Rid(w >> 48 & 0xff)
			o[6] = prev
			prev += Rid(w >> 56)
			o[7] = prev
			p = p[8:]
			j += 8
			continue
		}
		if m == twoByteRun {
			prev += Rid(w&0x7f | w>>1&0x3f80)
			o[0] = prev
			prev += Rid(w>>16&0x7f | w>>17&0x3f80)
			o[1] = prev
			prev += Rid(w>>32&0x7f | w>>33&0x3f80)
			o[2] = prev
			prev += Rid(w>>48&0x7f | w>>49&0x3f80)
			o[3] = prev
			p = p[8:]
			j += 4
			continue
		}
		if run := bits.TrailingZeros64(m) >> 3; run > 0 {
			s := prev + Rid(w&0xff)
			o[0] = s
			s += Rid(w >> 8 & 0xff)
			o[1] = s
			s += Rid(w >> 16 & 0xff)
			o[2] = s
			s += Rid(w >> 24 & 0xff)
			o[3] = s
			s += Rid(w >> 32 & 0xff)
			o[4] = s
			s += Rid(w >> 40 & 0xff)
			o[5] = s
			s += Rid(w >> 48 & 0xff)
			o[6] = s
			prev = o[run-1]
			p = p[run:]
			j += run
			continue
		}
		if run := bits.TrailingZeros64(m^twoByteRun) >> 4; run > 0 {
			s := prev + Rid(w&0x7f|w>>1&0x3f80)
			o[0] = s
			s += Rid(w>>16&0x7f | w>>17&0x3f80)
			o[1] = s
			s += Rid(w>>32&0x7f | w>>33&0x3f80)
			o[2] = s
			s += Rid(w>>48&0x7f | w>>49&0x3f80)
			o[3] = s
			prev = o[run-1]
			p = p[2*run:]
			j += run
			continue
		}
		g, k := binary.Uvarint(p)
		prev += Rid(g)
		o[0] = prev
		p = p[k:]
		j++
	}
	for ; j < n; j++ {
		var g uint64
		g, p = readUvarint(p)
		prev += Rid(g)
		out[j] = prev
	}
}

// expandDelta decodes a zigzag delta chunk (unsorted or duplicated lists — off
// the group-by trace path, so no word kernel).
func expandDelta(out []Rid, first Rid, p []byte) {
	out[0] = first
	prev := first
	for j := 1; j < len(out); j++ {
		var u uint64
		u, p = readUvarint(p)
		prev += Rid(unzigzag(u))
		out[j] = prev
	}
}

// readUvarint decodes one uvarint off the front of p with the 1- and 2-byte
// widths tried before the generic decoder, returning the value and the
// remaining bytes.
func readUvarint(p []byte) (uint64, []byte) {
	b0 := p[0]
	if b0 < 0x80 {
		return uint64(b0), p[1:]
	}
	if b1 := p[1]; b1 < 0x80 {
		return uint64(b0&0x7f) | uint64(b1)<<7, p[2:]
	}
	u, k := binary.Uvarint(p)
	return u, p[k:]
}

// expandBitmap decodes a bitmap chunk 64 bits at a time: one TrailingZeros64
// per set bit, nothing per clear one. The trailing partial word is
// zero-extended.
func expandBitmap(out []Rid, base Rid, p []byte) {
	j := 0
	for i := 0; i < len(p); i += 8 {
		var w uint64
		if i+8 <= len(p) {
			w = binary.LittleEndian.Uint64(p[i:])
		} else {
			var tail [8]byte
			copy(tail[:], p[i:])
			w = binary.LittleEndian.Uint64(tail[:])
		}
		b := base + Rid(8*i)
		for ; w != 0; w &= w - 1 {
			out[j] = b + Rid(bits.TrailingZeros64(w))
			j++
		}
	}
}

// EncodedList is a standalone encoded rid list: the result shape of the
// in-situ trace operations. Data is a valid chunk sequence (concatenable
// with any other encoded list); N is the element count.
type EncodedList struct {
	Data []byte
	N    int
}

// Len returns the element count.
func (l EncodedList) Len() int { return l.N }

// SizeBytes returns the encoded payload size.
func (l EncodedList) SizeBytes() int { return len(l.Data) }

// AppendTo decodes the list onto dst (one exact grow, see AppendLists).
func (l EncodedList) AppendTo(dst []Rid) []Rid {
	return appendChunks(slices.Grow(dst, l.N), l.Data)
}

// TraceInSitu evaluates the backward trace of src without decoding: the
// result is the byte-wise concatenation of the seed entries' chunk bytes,
// valid because chunks are self-contained. Decoding the result yields
// exactly the rids Trace would return, in the same order; only the
// representation differs — the trace moves encoded bytes (~1–2 per rid on
// dense lineage) instead of expanding to 4-byte rids, and counts them from the
// chunk headers alone.
func (e *EncodedIndex) TraceInSitu(src []Rid) EncodedList {
	total := 0
	for _, i := range src {
		total += len(e.ListBytes(int(i)))
	}
	data := make([]byte, 0, total)
	n := 0
	for _, i := range src {
		data = append(data, e.ListBytes(int(i))...)
		n += e.ListLen(int(i))
	}
	return EncodedList{Data: data, N: n}
}

// IntersectEncoded intersects two encoded rid lists in-situ, returning the
// encoded intersection. Both lists must be element-ascending (the invariant
// of backward lineage lists over contiguous capture). Chunk pairs dispatch
// on their encodings: range∩range computes the overlap in O(1) and emits a
// range chunk; bitmap∩bitmap ANDs the overlapping window byte-wise; every
// other pair expands into pooled scratch and merge-intersects.
func IntersectEncoded(a, b []byte) EncodedList {
	var out EncodedList
	ca, cb := EncCursor{rest: a}, EncCursor{rest: b}
	acur, aok := nextBounded(&ca)
	bcur, bok := nextBounded(&cb)
	for aok && bok {
		switch {
		case acur.hi < bcur.lo:
			acur.release()
			acur, aok = nextBounded(&ca)
		case bcur.hi < acur.lo:
			bcur.release()
			bcur, bok = nextBounded(&cb)
		default:
			intersectPair(&acur, &bcur, &out)
			// Only the chunk that ends first is exhausted; the other may
			// still overlap its peer's successor chunks.
			if acur.hi <= bcur.hi {
				acur.release()
				acur, aok = nextBounded(&ca)
			} else {
				bcur.release()
				bcur, bok = nextBounded(&cb)
			}
		}
	}
	if aok {
		acur.release()
	}
	if bok {
		bcur.release()
	}
	return out
}

// boundedChunk is a chunk with resolved exact bounds; chunks whose bounds
// require decoding (raw, delta, RLE) carry their expansion in pooled
// scratch until released.
type boundedChunk struct {
	ch     Chunk
	lo, hi Rid
	elems  []Rid // non-nil when the chunk was expanded (scratch-backed)
	buf    []Rid // the scratch buffer backing elems, returned on release
}

func (bc *boundedChunk) release() {
	if bc.buf != nil {
		scratch.PutRids(bc.buf)
		bc.buf, bc.elems = nil, nil
	}
}

// nextBounded pulls the next non-empty chunk and resolves its bounds,
// expanding (into pooled scratch) only the encodings that require it.
func nextBounded(c *EncCursor) (boundedChunk, bool) {
	for {
		ch, ok := c.Next()
		if !ok {
			return boundedChunk{}, false
		}
		if ch.N == 0 {
			continue
		}
		if lo, hi, ok := ch.Bounds(); ok {
			return boundedChunk{ch: ch, lo: lo, hi: hi}, true
		}
		buf := scratch.Rids(ch.N)
		elems := ch.ExpandInto(buf[:0])
		return boundedChunk{ch: ch, lo: elems[0], hi: elems[len(elems)-1], elems: elems, buf: buf}, true
	}
}

// intersectPair appends the intersection of two overlapping chunks to out.
func intersectPair(a, b *boundedChunk, out *EncodedList) {
	if a.elems == nil && b.elems == nil {
		if a.ch.Tag == chunkRange && b.ch.Tag == chunkRange {
			lo, hi := maxRid(a.lo, b.lo), minRid(a.hi, b.hi)
			n := int(hi-lo) + 1
			out.Data = append(out.Data, chunkRange)
			out.Data = binary.AppendUvarint(out.Data, uint64(n))
			out.Data = binary.AppendUvarint(out.Data, uint64(lo))
			out.N += n
			return
		}
		if a.ch.Tag == chunkBitmap && b.ch.Tag == chunkBitmap {
			intersectBitmaps(&a.ch, &b.ch, out)
			return
		}
	}
	// Generic: expand whichever sides aren't already expanded, merge-intersect.
	ae, be := a.elems, b.elems
	var bufA, bufB []Rid
	if ae == nil {
		bufA = scratch.Rids(a.ch.N)
		ae = a.ch.ExpandInto(bufA[:0])
	}
	if be == nil {
		bufB = scratch.Rids(b.ch.N)
		be = b.ch.ExpandInto(bufB[:0])
	}
	n := len(ae)
	if len(be) < n {
		n = len(be)
	}
	buf := scratch.Rids(n)
	m := 0
	i, j := 0, 0
	for i < len(ae) && j < len(be) {
		switch {
		case ae[i] < be[j]:
			i++
		case ae[i] > be[j]:
			j++
		default:
			buf[m] = ae[i]
			m++
			i++
			j++
		}
	}
	if m > 0 {
		out.Data = appendEncodedList(out.Data, buf[:m])
		out.N += m
	}
	scratch.PutRids(buf)
	if bufA != nil {
		scratch.PutRids(bufA)
	}
	if bufB != nil {
		scratch.PutRids(bufB)
	}
}

// intersectBitmaps ANDs the overlapping window of two bitmap chunks and
// emits the result as a bitmap chunk (count = popcount of the AND). The
// window is addressed on a's byte grid, so a's bytes are read directly and
// b's bits are gathered at the matching offset — a pure byte-AND when the
// bases are byte-aligned.
func intersectBitmaps(a, b *Chunk, out *EncodedList) {
	lo := maxRid(a.Start, b.Start)
	hi := minRid(a.Start+Rid(8*len(a.Payload)), b.Start+Rid(8*len(b.Payload))) - 1
	if hi < lo {
		return
	}
	aFirst := int(lo-a.Start) / 8
	aLast := int(hi-a.Start) / 8
	base := a.Start + Rid(8*aFirst)
	nb := aLast - aFirst + 1
	buf := make([]byte, nb)
	n := 0
	for i := 0; i < nb; i++ {
		w := a.Payload[aFirst+i] & bitmapByteAt(b.Payload, int(base-b.Start)+8*i)
		buf[i] = w
		n += bits.OnesCount8(w)
	}
	if n == 0 {
		return
	}
	out.Data = append(out.Data, chunkBitmap)
	out.Data = binary.AppendUvarint(out.Data, uint64(n))
	out.Data = binary.AppendUvarint(out.Data, uint64(base))
	out.Data = binary.AppendUvarint(out.Data, uint64(nb))
	out.Data = append(out.Data, buf...)
	out.N += n
}

// bitmapByteAt extracts the 8 bits of bm starting at bit offset off; bits
// outside the bitmap (including negative offsets) read as zero.
func bitmapByteAt(bm []byte, off int) byte {
	if off <= -8 || off >= 8*len(bm) {
		return 0
	}
	if off < 0 {
		return bm[0] << uint(-off)
	}
	i, s := off/8, off%8
	v := bm[i] >> uint(s)
	if s > 0 && i+1 < len(bm) {
		v |= bm[i+1] << uint(8-s)
	}
	return v
}

func minRid(a, b Rid) Rid {
	if a < b {
		return a
	}
	return b
}

func maxRid(a, b Rid) Rid {
	if a > b {
		return a
	}
	return b
}

// ArrCursor is a sequential-probe cursor over an EncodedArr: for
// non-decreasing probe sequences (the shape of forward traces over sorted
// seed rids, dense-forward materialization, and inversion scans) it advances
// a run pointer instead of binary-searching per lookup — amortized O(1) per
// probe versus O(log runs). A regressing probe falls back to binary search,
// so any probe order is correct.
type ArrCursor struct {
	e *EncodedArr
	k int
}

// Cursor returns a sequential-probe cursor positioned at the first run.
func (e *EncodedArr) Cursor() ArrCursor { return ArrCursor{e: e} }

// Get returns entry i (see ArrCursor).
func (c *ArrCursor) Get(i Rid) Rid {
	e := c.e
	k := c.k
	if int32(i) < e.starts[k] {
		return e.Get(i) // regressed probe: stateless binary search
	}
	starts := e.starts
	for k+1 < len(starts) && starts[k+1] <= int32(i) {
		k++
	}
	c.k = k
	if e.seq[k] {
		return e.vals[k] + Rid(int32(i)-e.starts[k])
	}
	return e.vals[k]
}
