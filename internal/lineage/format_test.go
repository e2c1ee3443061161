package lineage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"smoke/internal/pool"
	"smoke/internal/serr"
)

// Chunk format v2: the byte layout, the decode kernels' edges, and the
// validator that stands between outside bytes and the trusting cursor.

// TestChunkLayoutGolden pins the v2 bytes of one tiny list per chunk kind,
// plus the smallest gaps chunk that carries a body length. A diff here is a
// format change: bump diskstore's segment magic with it.
func TestChunkLayoutGolden(t *testing.T) {
	hundreds := make([]Rid, lenHeaderMin)
	wantHundreds := []byte{chunkGaps, lenHeaderMin, lenHeaderMin, 0}
	for i := range hundreds {
		hundreds[i] = Rid(100 * i)
		if i > 0 {
			wantHundreds = append(wantHundreds, 100)
		}
	}
	cases := []struct {
		name string
		list []Rid
		want []byte
	}{
		{"range", []Rid{10, 11, 12, 13}, []byte{chunkRange, 4, 10}},
		{"gaps", []Rid{5, 200, 1000}, []byte{chunkGaps, 3, 5, 0xC3, 0x01, 0xA0, 0x06}},
		{"rle", []Rid{7, 8, 9, 20, 21}, []byte{chunkRLE, 5, 7, 3, 10, 2}},
		{"bitmap", []Rid{3, 4, 6, 7, 8, 10, 11, 12}, []byte{chunkBitmap, 8, 3, 2, 0xBB, 0x03}},
		{"delta", []Rid{9, 2, 5}, []byte{chunkDelta, 3, 18, 13, 6}},
		{"raw", []Rid{1 << 30, 5, 1 << 29}, []byte{chunkRaw, 3, 0, 0, 0, 0x40, 5, 0, 0, 0, 0, 0, 0, 0x20}},
		{"gaps+len", hundreds, wantHundreds},
	}
	for _, c := range cases {
		got := appendEncodedList(nil, c.list)
		if !bytes.Equal(got, c.want) {
			t.Errorf("%s: encoded % x, want % x", c.name, got, c.want)
		}
		if dec := (EncodedList{Data: c.want, N: len(c.list)}).AppendTo(nil); !reflect.DeepEqual(dec, c.list) {
			t.Errorf("%s: golden bytes decode to %v, want %v", c.name, dec, c.list)
		}
	}
}

// kindLists builds, per chunk kind, a generator of n-element lists that the
// adaptive chooser encodes as that kind once n is past the tiny sizes where
// everything collapses to range or raw.
var kindLists = map[byte]func(n int, rng *rand.Rand) []Rid{
	chunkRange: func(n int, _ *rand.Rand) []Rid {
		return ascendingBy(n, 40, func(int) Rid { return 1 })
	},
	chunkGaps: func(n int, rng *rand.Rand) []Rid {
		// Gap widths straddle the 1→2→3-byte varint boundaries.
		widths := []Rid{2, 127, 128, 129, 300, 16383, 16384, 16385}
		return ascendingBy(n, 3, func(int) Rid { return widths[rng.Intn(len(widths))] })
	},
	chunkRLE: func(n int, _ *rand.Rand) []Rid {
		return ascendingBy(n, 9, func(i int) Rid {
			if i%6 == 0 {
				return 5000
			}
			return 1
		})
	},
	chunkBitmap: func(n int, rng *rand.Rand) []Rid {
		return ascendingBy(n, 77, func(int) Rid { return Rid(2 + rng.Intn(2)) })
	},
	chunkDelta: func(n int, rng *rand.Rand) []Rid {
		l := make([]Rid, n)
		cur := Rid(50_000)
		for i := range l {
			l[i] = cur
			cur += Rid(rng.Intn(400) - 200) // signed, duplicates included
		}
		return l
	},
	chunkRaw: func(n int, rng *rand.Rand) []Rid {
		l := make([]Rid, n)
		for i := range l {
			l[i] = Rid(rng.Int31())
		}
		return l
	},
}

func ascendingBy(n int, first Rid, gap func(i int) Rid) []Rid {
	l := make([]Rid, n)
	cur := first
	for i := range l {
		l[i] = cur
		cur += gap(i + 1)
	}
	return l
}

// decodeEveryWay decodes one encoded entry through each decoding surface and
// fails unless all agree with want.
func decodeEveryWay(t *testing.T, what string, enc []byte, want []Rid) {
	t.Helper()
	e := &EncodedIndex{n: 1, offs: []uint32{0, uint32(len(enc))}, data: enc, card: len(want)}
	check := func(how string, got []Rid) {
		t.Helper()
		if len(got) == 0 && len(want) == 0 {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s decoded %v, want %v", what, how, got, want)
		}
	}
	check("AppendList", e.AppendList(0, nil))
	check("AppendLists", e.AppendLists([]Rid{0}, nil))
	check("AppendTo", EncodedList{Data: enc, N: len(want)}.AppendTo(nil))
	check("AppendList onto a prefix", e.AppendList(0, []Rid{-7})[1:])
	if got := e.ListLen(0); got != len(want) {
		t.Fatalf("%s: ListLen = %d, want %d", what, got, len(want))
	}
	bound := math.MaxInt32
	if len(want) > 0 {
		bound = int(slices.Max(want)) + 1
	}
	if card, err := ValidateEncoded(e.offs, e.data, bound); err != nil || card != len(want) {
		t.Fatalf("%s: ValidateEncoded over %d rows = %d, %v; want %d, nil", what, bound, card, err, len(want))
	}
	if len(want) > 0 {
		if _, err := ValidateEncoded(e.offs, e.data, bound-1); !isInternal(err) {
			t.Fatalf("%s: ValidateEncoded over %d rows, one short of the largest rid: %v, want an Internal error", what, bound-1, err)
		}
	}
}

// TestChunkKindsRoundTripAndConcat is the format's property test: for every
// kind and every size around the kernels' 8-wide window and the length-header
// threshold, decode(encode(l)) == l and decode(a‖b) == decode(a)+decode(b).
func TestChunkKindsRoundTripAndConcat(t *testing.T) {
	sizes := []int{1, 2, 7, 8, 9, lenHeaderMin - 1, lenHeaderMin, lenHeaderMin + 1, 24, 25, 100, 1000}
	for kind, gen := range kindLists {
		rng := rand.New(rand.NewSource(int64(kind) + 1))
		var prev []Rid
		var prevEnc []byte
		for _, n := range sizes {
			list := gen(n, rng)
			enc := appendEncodedList(nil, list)
			what := fmt.Sprintf("kind %d n=%d", kind, n)
			if n >= 9 && enc[0] != kind {
				t.Fatalf("%s: chooser picked kind %d", what, enc[0])
			}
			if got := hasLenHeader(enc[0], n); got != (n >= lenHeaderMin && (kind == chunkGaps || kind == chunkDelta || kind == chunkRLE)) {
				t.Fatalf("%s: hasLenHeader = %v", what, got)
			}
			decodeEveryWay(t, what, enc, list)
			// Concatenation with the previous size's list: chunks are
			// self-contained, so the bytes just append.
			both := append(append([]byte(nil), prevEnc...), enc...)
			decodeEveryWay(t, what+" after its predecessor", both, append(append([]Rid(nil), prev...), list...))
			prev, prevEnc = list, enc
		}
	}
}

// Unsorted and duplicated lists have no ascending encoding to fall into:
// they must come out as zigzag delta or raw, whatever their size.
func TestUnsortedListsPickDeltaOrRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 7, 8, 9, lenHeaderMin - 1, lenHeaderMin, lenHeaderMin + 1, 300} {
		for _, gen := range []func(int, *rand.Rand) []Rid{kindLists[chunkDelta], kindLists[chunkRaw]} {
			list := gen(n, rng)
			list[n-1] = list[0] // a duplicate, and a descent unless n == 1
			enc := appendEncodedList(nil, list)
			if enc[0] != chunkDelta && enc[0] != chunkRaw {
				t.Fatalf("n=%d: non-ascending list encoded as kind %d", n, enc[0])
			}
			decodeEveryWay(t, fmt.Sprintf("unsorted n=%d", n), enc, list)
		}
	}
}

// The chooser weighs decode cost: a bitmap decodes slower per rid than
// one-byte gaps, so it wins only when clearly smaller. A list at 13% density
// (the skewed group-by's largest group: its bitmap is a few percent smaller)
// is gaps, one at 30% is a bitmap, and every list the smallest-wins rule gave
// a range or RLE chunk keeps it. No chosen chunk is more than 8/7 the size of
// the smallest candidate.
func TestChunkChooserWeighsDecodeCost(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	atDensity := func(n int, d float64) []Rid {
		var list []Rid
		for r := Rid(500); len(list) < n; r++ {
			if rng.Float64() < d {
				list = append(list, r)
			}
		}
		return list
	}
	for _, c := range []struct {
		density float64
		want    byte
	}{{0.13, chunkGaps}, {0.30, chunkBitmap}} {
		list := atDensity(4000, c.density)
		sizes := candidateSizes(list)
		if c.want == chunkGaps && sizes[chunkBitmap] >= sizes[chunkGaps] {
			t.Fatalf("density %.2f: the bitmap (%d B) is not smaller than gaps (%d B); the case tests nothing", c.density, sizes[chunkBitmap], sizes[chunkGaps])
		}
		if got := appendEncodedList(nil, list)[0]; got != c.want {
			t.Fatalf("density %.2f: chose kind %d, want %d (candidate sizes %v)", c.density, got, c.want, sizes)
		}
	}
	var lists [][]Rid
	for _, d := range []float64{0.01, 0.05, 0.1, 0.125, 0.13, 0.14, 0.15, 0.2, 0.3, 0.6, 0.95, 1} {
		for _, n := range []int{2, 9, lenHeaderMin, 100, 3000} {
			lists = append(lists, atDensity(n, d))
		}
	}
	for _, n := range []int{9, lenHeaderMin, 100, 1000} {
		lists = append(lists, kindLists[chunkRLE](n, rng), kindLists[chunkRange](n, rng))
	}
	for _, list := range lists {
		sizes := candidateSizes(list)
		smallest := chunkRaw
		for _, kind := range []byte{chunkGaps, chunkRLE, chunkRange, chunkBitmap} {
			if s, ok := sizes[kind]; ok && s < sizes[smallest] {
				smallest = kind
			}
		}
		enc := appendEncodedList(nil, list)
		what := fmt.Sprintf("%d rids over [%d, %d]", len(list), list[0], list[len(list)-1])
		if got := len(enc); 7*got > 8*sizes[smallest] {
			t.Fatalf("%s: chose kind %d of %d B, more than 8/7 of the smallest candidate (kind %d, %d B)", what, enc[0], got, smallest, sizes[smallest])
		}
		if (smallest == chunkRange || smallest == chunkRLE) && enc[0] != smallest {
			t.Fatalf("%s: chose kind %d where the smallest candidate is kind %d", what, enc[0], smallest)
		}
		decodeEveryWay(t, what, enc, list)
	}
}

// candidateSizes encodes a strictly ascending list as every chunk kind that
// can hold it, by the format comment's definitions, and returns each chunk's
// byte size.
func candidateSizes(list []Rid) map[byte]int {
	n := len(list)
	head := 1 + len(appendUvarint(nil, uint64(n)))
	withLen := func(body []byte) int {
		if n >= lenHeaderMin {
			return head + len(appendUvarint(nil, uint64(len(body)))) + len(body)
		}
		return head + len(body)
	}
	rle := appendUvarint(nil, uint64(list[0]))
	run := 1
	for i := 1; i < n; i++ {
		if list[i] == list[i-1]+1 {
			run++
			continue
		}
		rle = appendUvarint(appendUvarint(rle, uint64(run)), uint64(list[i]-list[i-1]-1))
		run = 1
	}
	rle = appendUvarint(rle, uint64(run))
	sizes := map[byte]int{
		chunkRaw:    head + 4*n,
		chunkGaps:   len(appendGapsChunk(list)),
		chunkRLE:    withLen(rle),
		chunkBitmap: len(appendBitmapChunk(list, list[0], int(list[n-1]-list[0])/8+1)),
	}
	if run == n {
		sizes[chunkRange] = head + len(appendUvarint(nil, uint64(list[0])))
	}
	return sizes
}

// The gaps kernel reads 8 payload bytes at a time: every mix of varint widths
// must decode the same whether a varint starts, straddles or ends a window,
// and whether the payload ends inside one.
func TestGapsKernelWindowEdges(t *testing.T) {
	widths := []Rid{1, 127, 128, 16383, 16384, 2097151, 2097152}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(40)
		// Runs of one width (the 8×1-byte and 4×2-byte fast paths) broken by
		// single gaps of another.
		run, other := widths[rng.Intn(len(widths))], widths[rng.Intn(len(widths))]
		breakAt := 1 + rng.Intn(n)
		list := ascendingBy(n, Rid(rng.Intn(300)), func(i int) Rid {
			if i%breakAt == 0 {
				return other
			}
			return run
		})
		enc := appendGapsChunk(list)
		decodeEveryWay(t, fmt.Sprintf("trial %d (n=%d run=%d other=%d every %d)", trial, n, run, other, breakAt), enc, list)
	}
}

// appendGapsChunk encodes an ascending list as a gaps chunk regardless of what
// the chooser would pick (RLE wins on unit gaps, range on a single run).
func appendGapsChunk(list []Rid) []byte {
	body := []byte{}
	prev := Rid(0)
	for _, r := range list {
		body = appendUvarint(body, uint64(r-prev))
		prev = r
	}
	enc := appendUvarint([]byte{chunkGaps}, uint64(len(list)))
	if len(list) >= lenHeaderMin {
		enc = appendUvarint(enc, uint64(len(body)))
	}
	return append(enc, body...)
}

func appendUvarint(b []byte, v uint64) []byte {
	for ; v >= 0x80; v >>= 7 {
		b = append(b, byte(v)|0x80)
	}
	return append(b, byte(v))
}

// The bitmap kernel reads 64-bit words: bitmaps one byte short of, exactly
// at, and one byte past a word boundary, with the last bit set in each.
func TestBitmapKernelWordEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, nb := range []int{1, 7, 8, 9, 63, 64, 65} {
		var list []Rid
		base := Rid(1000)
		for bit := 0; bit < 8*nb; bit++ {
			if bit == 0 || bit == 8*nb-1 || rng.Intn(3) == 0 {
				list = append(list, base+Rid(bit))
			}
		}
		decodeEveryWay(t, fmt.Sprintf("bitmap of %d bytes", nb), appendBitmapChunk(list, base, nb), list)
	}
}

// appendBitmapChunk encodes an ascending list as a bitmap chunk of nb bytes
// over [base, base+8·nb), whatever the chooser would pick.
func appendBitmapChunk(list []Rid, base Rid, nb int) []byte {
	enc := appendUvarint([]byte{chunkBitmap}, uint64(len(list)))
	enc = appendUvarint(enc, uint64(base))
	enc = appendUvarint(enc, uint64(nb))
	bm := make([]byte, nb)
	for _, r := range list {
		bm[(r-base)/8] |= 1 << ((r - base) % 8)
	}
	return append(enc, bm...)
}

// In-situ traces count and concatenate from headers alone; decoding them must
// equal the expanding trace, serial or parallel, on merged (multi-chunk) lists.
func TestTraceInSituMatchesTraceOnMergedLists(t *testing.T) {
	const groups, rows = 40, 6000
	rng := rand.New(rand.NewSource(17))
	key := make([]int, rows)
	for i := range key {
		key[i] = int(float64(groups) * rng.Float64() * rng.Float64()) // skewed
	}
	pl := pool.New(4)
	defer pl.Close()
	for _, parts := range []int{1, 2, 4} {
		local := make([]*EncodedIndex, parts)
		slotMaps := make([][]Rid, parts)
		full := NewRidIndex(groups)
		for p := range local {
			part := NewRidIndex(groups)
			for r := p * rows / parts; r < (p+1)*rows/parts; r++ {
				part.Append(key[r], Rid(r))
				full.Append(key[r], Rid(r))
			}
			local[p] = EncodeRidIndex(part)
			slotMaps[p] = benchSeeds(groups)
		}
		enc := MergeEncodedBySlot(local, slotMaps, groups)
		ix, raw := NewEncodedMany(enc), NewOneToMany(full)
		seeds := []Rid{0, 5, 5, groups - 1, 17, 3, 0}
		want := raw.Trace(seeds)
		is := enc.TraceInSitu(seeds)
		if is.N != len(want) {
			t.Fatalf("%d chunks per list: in-situ trace counts %d rids from the headers, want %d", parts, is.N, len(want))
		}
		if got := is.AppendTo(nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d chunks per list: decoded in-situ trace differs from the raw trace", parts)
		}
		for _, workers := range []int{1, 2, 4} {
			what := fmt.Sprintf("%d chunks per list, %d workers", parts, workers)
			if got := ParTrace(ix, seeds, workers, pl); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: ParTrace differs from the raw trace", what)
			}
			keep := func(r Rid) bool { return r%3 != 0 }
			var wantKept []Rid
			for _, r := range want {
				if keep(r) {
					wantKept = append(wantKept, r)
				}
			}
			if got := ParTraceFiltered(ix, seeds, keep, workers, pl); !reflect.DeepEqual(got, wantKept) {
				t.Fatalf("%s: ParTraceFiltered differs from the filtered raw trace", what)
			}
		}
	}
}

// chunkSeeds is one well-formed chunk of each kind (with and without a body
// length), then chunks that steer the word kernels down each of their paths:
// the fuzz corpus, and the starting points of the mutation test.
func chunkSeeds() [][]byte {
	rng := rand.New(rand.NewSource(19))
	var seeds [][]byte
	for _, kind := range []byte{chunkRaw, chunkRange, chunkDelta, chunkRLE, chunkBitmap, chunkGaps} {
		for _, n := range []int{9, lenHeaderMin + 5} {
			seeds = append(seeds, appendEncodedList(nil, kindLists[kind](n, rng)))
		}
	}
	// Gaps chunks mixing 1-, 2-, 3- and 5-byte varints: 8-wide one-byte
	// words, shorter one- and two-byte runs, 4 two-byte gaps in one word, and
	// the longer varints that only the generic decoder reads.
	const b1, b2, b3, b5 = 3, 300, 20_000, 1 << 28
	for _, widths := range [][]Rid{
		{b1, b1, b1, b1, b1, b1, b1, b1, b2, b2, b2, b2, b1, b1, b1, b3, b2, b1, b5, b1, b1, b2, b2, b2, b1},
		{b2, b1, b2, b2, b1, b1, b2, b2, b2, b3, b3, b1, b2, b1, b1, b1, b1, b1, b1, b1, b2, b5, b2, b2, b2, b2, b2, b1, b3, b1},
		{b1, b2, b1, b2, b1, b2, b1, b2, b1, b2, b1, b2, b1, b2, b1, b2},
	} {
		seeds = append(seeds, appendGapsChunk(ascendingBy(len(widths), 7, func(i int) Rid { return widths[i-1] })))
	}
	// Bitmaps of two 64-bit words holding 7, 8, 9, 16 and 17 bits each
	// (either side of 8 and 16 positions per word, where a kernel that
	// writes a word's positions in blocks changes path), then a partial
	// tail word of 3 bytes.
	for _, k := range []int{7, 8, 9, 16, 17} {
		const base = 40
		var list []Rid
		for word := 0; word < 2; word++ {
			for _, bit := range rng.Perm(64)[:k] {
				list = append(list, base+Rid(64*word+bit))
			}
		}
		list = append(list, base+128, base+131, base+147)
		slices.Sort(list)
		seeds = append(seeds, appendBitmapChunk(list, base, 19))
	}
	return seeds
}

// naiveDecode is the oracle the word kernels answer to: it decodes validated
// chunk bytes by the format comment's definitions alone — one binary.Uvarint
// per varint, one bit test per bitmap bit — sharing no code with the cursor.
func naiveDecode(b []byte) []Rid {
	var out []Rid
	uvarint := func() uint64 {
		u, k := binary.Uvarint(b)
		b = b[k:]
		return u
	}
	for len(b) > 0 {
		tag := b[0]
		b = b[1:]
		n := int(uvarint())
		if n >= lenHeaderMin && (tag == chunkGaps || tag == chunkDelta || tag == chunkRLE) {
			uvarint() // the body length
		}
		switch tag {
		case chunkRaw:
			for i := 0; i < n; i++ {
				out = append(out, Rid(binary.LittleEndian.Uint32(b)))
				b = b[4:]
			}
		case chunkRange:
			start := Rid(uvarint())
			for i := 0; i < n; i++ {
				out = append(out, start+Rid(i))
			}
		case chunkGaps:
			cur := Rid(uvarint())
			out = append(out, cur)
			for i := 1; i < n; i++ {
				cur += Rid(uvarint())
				out = append(out, cur)
			}
		case chunkDelta:
			cur := Rid(unzigzag(uvarint()))
			out = append(out, cur)
			for i := 1; i < n; i++ {
				cur += Rid(unzigzag(uvarint()))
				out = append(out, cur)
			}
		case chunkRLE:
			cur := Rid(uvarint())
			for left := n; ; {
				run := int(uvarint())
				for i := 0; i < run; i++ {
					out = append(out, cur)
					cur++
				}
				if left -= run; left == 0 {
					break
				}
				cur += Rid(uvarint())
			}
		case chunkBitmap:
			base := Rid(uvarint())
			nb := int(uvarint())
			for bit := 0; bit < 8*nb; bit++ {
				if b[bit/8]&(1<<(bit%8)) != 0 {
					out = append(out, base+Rid(bit))
				}
			}
			b = b[nb:]
		}
	}
	return out
}

// checkAcceptedBytesDecode is the contract between ValidateEncoded and the
// trusting cursor: bytes it accepts decode, without a panic, to exactly the
// rids the naive oracle reads from them, as many as the validator counted,
// and the validator's row bound is exact: it accepts one row past the largest
// rid and rejects the bound at it.
func checkAcceptedBytesDecode(t *testing.T, data []byte) {
	offs := []uint32{0, uint32(len(data))}
	card, err := ValidateEncoded(offs, data, math.MaxInt32)
	if err != nil || card > 1<<20 {
		// A range or RLE chunk states millions of rids in a few bytes; they
		// are well-formed, just too large to expand once per fuzz input.
		return
	}
	e, err := EncodedIndexFromParts(1, nil, offs, data, card)
	if err != nil {
		t.Fatalf("validated bytes % x rejected by EncodedIndexFromParts: %v", data, err)
	}
	if got := e.ListLen(0); got != card {
		t.Fatalf("bytes % x: ListLen = %d, validator counted %d", data, got, card)
	}
	want := naiveDecode(data)
	if len(want) != card {
		t.Fatalf("bytes % x: the oracle decoded %d rids, validator counted %d", data, len(want), card)
	}
	if len(want) > 0 {
		if lo := slices.Min(want); lo < 0 {
			t.Fatalf("bytes % x: validated rid %d is negative", data, lo)
		}
		hi := int(slices.Max(want))
		if _, err := ValidateEncoded(offs, data, hi+1); err != nil {
			t.Fatalf("bytes % x: rejected over %d rows, one past the largest rid: %v", data, hi+1, err)
		}
		if _, err := ValidateEncoded(offs, data, hi); err == nil {
			t.Fatalf("bytes % x: accepted over %d rows, which its largest rid reaches", data, hi)
		}
	}
	if got := e.AppendLists([]Rid{0}, nil); !slices.Equal(got, want) {
		t.Fatalf("bytes % x: AppendLists decoded %v, the oracle %v", data, got, want)
	}
	if got := e.AppendList(0, []Rid{-7}); !slices.Equal(got[1:], want) {
		t.Fatalf("bytes % x: AppendList onto a prefix decoded %v, the oracle %v", data, got[1:], want)
	}
	is := e.TraceInSitu([]Rid{0, 0})
	if got := is.AppendTo(nil); is.N != 2*card || !slices.Equal(got, append(slices.Clone(want), want...)) {
		t.Fatalf("bytes % x: in-situ trace of the entry twice decoded %v (count %d), want the oracle's rids twice", data, got, is.N)
	}
}

func FuzzEncodedChunks(f *testing.F) {
	for _, s := range chunkSeeds() {
		f.Add(s)
	}
	f.Fuzz(checkAcceptedBytesDecode)
}

// Truncations and single-byte corruptions of well-formed chunks — lying
// counts, lengths and bitmaps among them — are rejected with a structured
// error or decode cleanly; none panics. (The fuzz target explores further;
// this runs on every `go test`.)
func TestValidateEncodedRejectsHostileBytes(t *testing.T) {
	rejected := 0
	for _, seed := range chunkSeeds() {
		for cut := 1; cut < len(seed); cut++ {
			if _, err := ValidateEncoded([]uint32{0, uint32(cut)}, seed[:cut], math.MaxInt32); err == nil {
				t.Fatalf("chunk % x truncated to %d bytes validated", seed, cut)
			}
		}
		for i := range seed {
			for _, v := range []byte{0, 1, 0x7f, 0x80, 0xff, seed[i] + 1, seed[i] ^ 0x80} {
				mut := append([]byte(nil), seed...)
				mut[i] = v
				if _, err := ValidateEncoded([]uint32{0, uint32(len(mut))}, mut, math.MaxInt32); err != nil {
					rejected++
				}
				checkAcceptedBytesDecode(t, mut)
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no corruption was rejected")
	}
	for _, offs := range [][]uint32{{}, {1, 3}, {0, 2, 1, 3}, {0, 2}} {
		if _, err := ValidateEncoded(offs, []byte{chunkRange, 1, 0}, math.MaxInt32); err == nil {
			t.Fatalf("directory %v over a 3-byte payload validated", offs)
		}
	}
}

// isInternal reports whether err is a structured Internal error.
func isInternal(err error) bool {
	var e *serr.E
	return errors.As(err, &e) && e.Kind == serr.Internal
}

func TestCaptureValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	b := NewEncodedBuilder(3)
	b.Add(kindLists[chunkGaps](50, rng))
	b.Add(nil)
	b.Add(kindLists[chunkBitmap](50, rng))
	e := b.Build()
	c := NewCapture()
	c.SetBackward("t", NewEncodedMany(e))
	c.SetForward("t", NewOneToOne([]Rid{0, -1, 2}))
	rows := int(slices.Max(NewEncodedMany(e).Trace([]Rid{0, 1, 2}))) + 1
	if err := c.Validate(3, map[string]int{"t": rows}); err != nil {
		t.Fatalf("well-formed capture: %v", err)
	}
	if err := c.Validate(3, map[string]int{"t": rows - 1}); !isInternal(err) {
		t.Fatalf("capture whose backward rids reach past its base table: %v, want an Internal error", err)
	}
	n, words, offs, data, card := e.Parts()
	lying, _ := EncodedIndexFromParts(n, words, offs, data, card+1)
	c.SetBackward("t", NewEncodedMany(lying))
	if err := c.Validate(3, nil); err == nil {
		t.Fatal("capture whose directory overstates its cardinality validated")
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0x10 // one bitmap bit: popcount no longer matches
	flipped, _ := EncodedIndexFromParts(n, words, offs, bad, card)
	c.SetBackward("t", NewEncodedMany(flipped))
	if err := c.Validate(3, nil); err == nil {
		t.Fatal("capture with a flipped bitmap bit validated")
	}
}
