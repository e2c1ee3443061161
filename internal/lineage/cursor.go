package lineage

// Chunk-cursor access to encoded lineage. An encoded rid list is a sequence of
// self-contained chunks (see encoded.go), and an EncCursor walks them one at
// a time exposing each chunk's count, start and payload — without ever
// materializing the whole list. Every chunk's byte extent comes from its
// header (format v2), so advancing the cursor never reads a payload; only
// sub-lenHeaderMin varint chunks are delimited by a (bounded) walk. Two trace
// strategies build on it:
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
//   - In-situ trace (TraceInSitu): because chunks are self-contained, the
//     backward trace of a seed set is the byte concatenation of the seeds'
//     chunk bytes, and its element count is a sum of headers — no payload is
//     decoded or even scanned. The result stays encoded (EncodedList) and
//     moves ~1–2 bytes per rid instead of 4.
//
// The cursor and the kernels trust their bytes: an index built by the encoder
// is well-formed by construction, and bytes from outside the process pass
// ValidateEncoded (parts.go) before a cursor sees them.

import (
	"encoding/binary"
	"math/bits"
	"slices"
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
}

// EncCursor walks the chunks of one encoded list (zero-copy: payloads alias
// the encoded buffer).
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
// in-situ trace (TraceInSitu). Data is a valid chunk sequence (concatenable
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
