package lineage

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"smoke/internal/serr"
)

// Persistence seam for the encoded representations. The disk tier
// (internal/diskstore) stores an encoded index exactly as it sits in memory —
// the offset directory and the chunk payload — so a segment loads by wrapping
// mmap-backed slices with FromParts and every cursor (EncCursor, ArrCursor,
// TraceInSitu) iterates the mapped bytes directly. Nothing decodes on load;
// the first trace faults in only the pages its seed lists touch.

// Parts exposes the encoded index's physical representation: the entry
// count, the presence bitmap (nil for the dense form), the offset directory
// (n+1 offsets, or one more than the bitmap's popcount), the chunk payload,
// and the total cardinality. The rank directory is derived (see
// EncodedIndexFromParts). The slices are the index's own storage — callers
// must treat them as read-only.
func (e *EncodedIndex) Parts() (n int, words []uint64, offs []uint32, data []byte, card int) {
	return e.n, e.words, e.offs, e.data, e.card
}

// EncodedIndexFromParts reassembles an EncodedIndex around externally owned
// storage (typically slices aliasing mmap-backed bytes). Only the directory
// is validated here: a presence bitmap, when there is one, has exactly one
// word per 64 entries and no bit set at or past n; the offsets number one
// more than the entries they cover (n, or the bitmap's popcount), start at
// zero, never decrease, and end exactly at len(data). Wrapping a segment
// therefore touches none of its chunk pages: that is what keeps a
// segment-backed view lazy. The chunk bytes themselves are trusted by every
// cursor; a caller that restores a whole result for arbitrary tracing runs
// Capture.Validate (ValidateEncoded) first.
func EncodedIndexFromParts(n int, words []uint64, offs []uint32, data []byte, card int) (*EncodedIndex, error) {
	if n < 0 {
		return nil, serr.New(serr.Internal, "lineage: encoded index has %d entries", n)
	}
	e := &EncodedIndex{n: n, offs: offs, data: data, card: card}
	entries := n
	if words != nil {
		var err error
		if e.presence, entries, err = presenceFromParts(words, n, "encoded index"); err != nil {
			return nil, err
		}
	}
	if len(offs) != entries+1 {
		return nil, serr.New(serr.Internal, "lineage: encoded index directory has %d offsets for %d entries",
			len(offs), entries)
	}
	if err := checkDirectory(offs, len(data)); err != nil {
		return nil, err
	}
	if card < 0 {
		return nil, serr.New(serr.Internal, "lineage: encoded index cardinality %d is negative", card)
	}
	return e, nil
}

func checkDirectory(offs []uint32, dataLen int) error {
	if len(offs) == 0 {
		return serr.New(serr.Internal, "lineage: encoded index has an empty offset directory")
	}
	if offs[0] != 0 {
		return serr.New(serr.Internal, "lineage: encoded index directory starts at %d, want 0", offs[0])
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			return serr.New(serr.Internal, "lineage: encoded index directory decreases at entry %d", i)
		}
	}
	if got := int(offs[len(offs)-1]); got != dataLen {
		return serr.New(serr.Internal, "lineage: encoded index directory ends at %d, payload is %d bytes", got, dataLen)
	}
	return nil
}

// ValidateEncoded checks that (offs, data) is a well-formed encoded index
// over a relation of bound rows and returns its cardinality (offs as Parts
// returns it: in the directory form it covers the present entries only): the
// directory is sound and every entry is a sequence of well-formed v2 chunks —
// a known tag, a positive count, a body that ends inside the entry, body
// contents that decode to exactly the header count (varint count for
// gaps/delta, run sum for RLE, popcount for bitmaps), and rids in [0, bound).
// Bytes it accepts decode without a panic to rids that address a row;
// EncCursor and the expansion kernels assume nothing less. The walk reads
// headers only, except for those per-kind content checks, which cost one pass
// over the body; range and bitmap chunks are bounded from their headers (and a
// bitmap's last byte), the varint kinds by the sum that pass already walks.
func ValidateEncoded(offs []uint32, data []byte, bound int) (card int, err error) {
	if err := checkDirectory(offs, len(data)); err != nil {
		return 0, err
	}
	for i := 0; i+1 < len(offs); i++ {
		n, err := validateChunks(data[offs[i]:offs[i+1]], bound)
		if err != nil {
			return 0, serr.New(serr.Internal, "lineage: encoded index entry %d: %v", i, err)
		}
		card += n
	}
	return card, nil
}

// validateChunks validates one entry's chunk sequence and returns its element
// count. It mirrors EncCursor.Next field for field, with every read checked.
func validateChunks(b []byte, bound int) (int, error) {
	lim := uint64(min(max(bound, 0), math.MaxInt32))
	total := 0
	for len(b) > 0 {
		tag := b[0]
		if tag > chunkGaps {
			return 0, fmt.Errorf("unknown chunk tag %d", tag)
		}
		n64, k := binary.Uvarint(b[1:])
		if k <= 0 || n64 == 0 || n64 > math.MaxInt32 {
			return 0, fmt.Errorf("chunk count missing or out of range")
		}
		b = b[1+k:]
		n := int(n64)
		var bodyLen int
		var hi uint64 // the chunk's largest rid
		switch tag {
		case chunkRaw:
			bodyLen = 4 * n
			for i := 0; i < bodyLen && bodyLen <= len(b); i += 4 {
				hi = max(hi, uint64(binary.LittleEndian.Uint32(b[i:])))
			}
		case chunkRange:
			s, k := binary.Uvarint(b)
			if k <= 0 || s > math.MaxInt32 || s+n64-1 > math.MaxInt32 {
				return 0, fmt.Errorf("range chunk start missing or past the rid domain")
			}
			bodyLen = k
			hi = s + n64 - 1
		case chunkBitmap:
			base, k1 := binary.Uvarint(b)
			if k1 <= 0 {
				return 0, fmt.Errorf("bitmap chunk base missing")
			}
			nb, k2 := binary.Uvarint(b[k1:])
			if k2 <= 0 || nb > uint64(len(b)) || base > math.MaxInt32 || base+8*nb > math.MaxInt32+8 {
				return 0, fmt.Errorf("bitmap chunk length missing or out of range")
			}
			bodyLen = k1 + k2 + int(nb)
			if bodyLen <= len(b) {
				bm := b[k1+k2 : bodyLen]
				if popcount(bm) != n {
					return 0, fmt.Errorf("bitmap chunk holds a different number of bits than its count %d", n)
				}
				hi = base + uint64(lastSetBit(bm))
			}
		default: // the varint-stream kinds
			body := b
			if n >= lenHeaderMin {
				l, k := binary.Uvarint(b)
				if k <= 0 || l > uint64(len(b)-k) {
					return 0, fmt.Errorf("chunk body length missing or past the entry")
				}
				b = b[k:]
				body = b[:l]
			}
			end, last, ok := varintBodyLen(tag, n, body)
			if !ok || (n >= lenHeaderMin && end != len(body)) {
				return 0, fmt.Errorf("chunk body does not hold exactly %d elements", n)
			}
			bodyLen, hi = end, last
		}
		if bodyLen > len(b) {
			return 0, fmt.Errorf("chunk body runs past the entry")
		}
		if hi >= lim {
			return 0, fmt.Errorf("chunk rids reach %d, past the %d rows they index", hi, bound)
		}
		b = b[bodyLen:]
		total += n
	}
	return total, nil
}

// varintBodyLen walks the body of a gaps, delta or RLE chunk of n elements
// with every varint checked, returning the bytes it spans and the chunk's
// largest rid — math.MaxUint64 once an element leaves the rid domain (a
// negative delta sum, or a sum past 64 bits).
func varintBodyLen(tag byte, n int, body []byte) (end int, hi uint64, ok bool) {
	next := func() (uint64, bool) {
		u, k := binary.Uvarint(body[end:])
		end += k
		return u, k > 0
	}
	first, ok := next()
	if !ok {
		return 0, 0, false
	}
	switch tag {
	case chunkGaps:
		hi = first
		for ; n > 1; n-- {
			g, ok := next()
			if !ok {
				return 0, 0, false
			}
			hi = satAdd(hi, g)
		}
	case chunkDelta:
		v := unzigzag(first)
		hi = ridDomain(v)
		for ; n > 1; n-- {
			u, ok := next()
			if !ok {
				return 0, 0, false
			}
			v += unzigzag(u)
			hi = max(hi, ridDomain(v))
		}
	default: // chunkRLE: the start, then alternating run lengths and gaps
		cur := first
		for rem := uint64(n); rem > 0; {
			l, ok := next()
			if !ok || l == 0 || l > rem {
				return 0, 0, false
			}
			hi = satAdd(cur, l-1)
			cur = satAdd(cur, l)
			if rem -= l; rem > 0 {
				g, ok := next()
				if !ok {
					return 0, 0, false
				}
				cur = satAdd(cur, g)
			}
		}
	}
	return end, hi, true
}

// satAdd is a + b, saturating at math.MaxUint64.
func satAdd(a, b uint64) uint64 {
	if s := a + b; s >= a {
		return s
	}
	return math.MaxUint64
}

// ridDomain maps a signed running value to its unsigned rid, with every
// negative one past the domain.
func ridDomain(v int64) uint64 {
	if v < 0 {
		return math.MaxUint64
	}
	return uint64(v)
}

// lastSetBit returns the index of the highest set bit of a bitmap that has
// one.
func lastSetBit(bm []byte) int {
	i := len(bm) - 1
	for bm[i] == 0 {
		i--
	}
	return 8*i + bits.Len8(bm[i]) - 1
}

func popcount(b []byte) int {
	n := 0
	for ; len(b) >= 8; b = b[8:] {
		n += bits.OnesCount64(binary.LittleEndian.Uint64(b))
	}
	for _, c := range b {
		n += bits.OnesCount8(c)
	}
	return n
}

// Validate runs ValidateEncoded over every encoded rid index of the capture
// and checks each against its recorded cardinality: the full-restore check
// for a capture whose chunk bytes came from outside the process. Each index is
// bounded by the rows its rids address: a forward index by the outRows output
// rows, a backward index over rel by baseRows[rel] (by the rid type alone when
// rel has no recorded row count).
func (c *Capture) Validate(outRows int, baseRows map[string]int) error {
	check := func(rel string, ix *Index, bound int) error {
		if ix.Kind != EncodedMany {
			return nil
		}
		card, err := ValidateEncoded(ix.Enc.offs, ix.Enc.data, bound)
		if err == nil && card != ix.Enc.card {
			err = serr.New(serr.Internal, "lineage: encoded index holds %d rids, its directory says %d", card, ix.Enc.card)
		}
		if err != nil {
			return fmt.Errorf("index of %q: %w", rel, err)
		}
		return nil
	}
	for rel, ix := range c.backward {
		bound, ok := baseRows[rel]
		if !ok {
			bound = math.MaxInt32
		}
		if err := check(rel, ix, bound); err != nil {
			return err
		}
	}
	for rel, ix := range c.forward {
		if err := check(rel, ix, outRows); err != nil {
			return err
		}
	}
	return nil
}

// Parts exposes the run directory of the encoded array: entry count, run
// starts, run values, and the sequential/constant flag per run. The slices
// are the array's own storage — callers must treat them as read-only.
func (e *EncodedArr) Parts() (n int, starts []int32, vals []Rid, seq []bool) {
	return e.n, e.starts, e.vals, e.seq
}

// EncodedArrFromParts reassembles an EncodedArr around externally owned
// storage. The run directory is validated: the three slices must be the same
// non-zero length, starts must begin at 0 and strictly increase, and every
// start must fall inside [0, n) — Get binary-searches this directory, so a
// malformed one would misresolve or crash every probe. Every value a run
// yields must be -1 or in [0, bound), where bound is the number of target
// records the values index; a sequential run never yields -1.
func EncodedArrFromParts(n int, starts []int32, vals []Rid, seq []bool, bound int) (*EncodedArr, error) {
	if n <= 0 {
		return nil, serr.New(serr.Internal, "lineage: encoded array has %d entries", n)
	}
	if len(starts) == 0 || len(starts) != len(vals) || len(starts) != len(seq) {
		return nil, serr.New(serr.Internal, "lineage: encoded array run directory is ragged (%d starts, %d vals, %d flags)",
			len(starts), len(vals), len(seq))
	}
	if starts[0] != 0 {
		return nil, serr.New(serr.Internal, "lineage: encoded array first run starts at %d, want 0", starts[0])
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] <= starts[i-1] {
			return nil, serr.New(serr.Internal, "lineage: encoded array run starts not strictly increasing at run %d", i)
		}
	}
	if int(starts[len(starts)-1]) >= n {
		return nil, serr.New(serr.Internal, "lineage: encoded array run start %d past entry count %d", starts[len(starts)-1], n)
	}
	for k, v := range vals {
		hi := int64(v) // the run's largest value
		if seq[k] {
			end := n
			if k+1 < len(starts) {
				end = int(starts[k+1])
			}
			hi += int64(end) - int64(starts[k]) - 1
		}
		if v < -1 || (seq[k] && v < 0) || hi >= int64(bound) {
			return nil, serr.New(serr.Internal, "lineage: encoded array run %d yields values outside [-1, %d)", k, bound)
		}
	}
	return &EncodedArr{n: n, starts: starts, vals: vals, seq: seq}, nil
}

// CheckSeeds validates trace seeds against the index's entry count. Out-of-
// range or negative seeds would index the offset directory (or rid array)
// unchecked and panic deep inside a cursor, so every trace boundary — the
// Capture query methods and the exec trace operator — rejects them up front
// as a structured Invalid error (HTTP 400), not a handler panic (500).
func (ix *Index) CheckSeeds(src []Rid) error {
	n := Rid(ix.Len())
	for _, r := range src {
		if r < 0 || r >= n {
			return serr.New(serr.Invalid, "lineage: trace seed rid %d out of range [0, %d)", r, n)
		}
	}
	return nil
}
