package lineage

import (
	"math/rand"
	"sort"
	"testing"

	"smoke/internal/datagen"
)

// Microbenchmarks for the chunk-cursor trace kernels: decode-expansion vs
// in-situ byte concatenation, and the sequential EncodedArr cursor vs
// per-probe binary search.

// benchEncIndex builds a group-by-shaped backward index: groups groups, each
// holding the dense strided rid list a clustered aggregation captures.
func benchEncIndex(groups, perGroup int) *EncodedIndex {
	b := NewEncodedBuilder(groups)
	list := make([]Rid, perGroup)
	for g := 0; g < groups; g++ {
		for j := range list {
			list[j] = Rid(g*perGroup + j)
		}
		b.Add(list)
	}
	return b.Build()
}

func benchSeeds(groups int) []Rid {
	src := make([]Rid, groups)
	for i := range src {
		src[i] = Rid(i)
	}
	return src
}

func BenchmarkEncodedTraceDecode(b *testing.B) {
	b.ReportAllocs()
	e := benchEncIndex(1000, 1000)
	ix := NewEncodedMany(e)
	src := benchSeeds(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ix.Trace(src)
	}
}

func BenchmarkEncodedTraceInSitu(b *testing.B) {
	b.ReportAllocs()
	e := benchEncIndex(1000, 1000)
	src := benchSeeds(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.TraceInSitu(src)
	}
}

// Raw baseline for the same trace: the cost the encoded paths compete with.
func BenchmarkRawTrace(b *testing.B) {
	b.ReportAllocs()
	const groups, perGroup = 1000, 1000
	ix := NewRidIndex(groups)
	for g := 0; g < groups; g++ {
		list := make([]Rid, perGroup)
		for j := range list {
			list[j] = Rid(g*perGroup + j)
		}
		ix.SetList(g, list)
	}
	raw := NewOneToMany(ix)
	src := benchSeeds(groups)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = raw.Trace(src)
	}
}

func benchSelArr(n int) *EncodedArr {
	arr := make([]Rid, n)
	out := Rid(0)
	for i := range arr {
		if (i/1000)%2 == 0 {
			arr[i] = out
			out++
		} else {
			arr[i] = -1
		}
	}
	return EncodeArr(arr)
}

func BenchmarkEncodedArrGetBinarySearch(b *testing.B) {
	b.ReportAllocs()
	const n = 1_000_000
	e := benchSelArr(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink Rid
		for j := 0; j < n; j += 10 {
			sink += e.Get(Rid(j))
		}
		_ = sink
	}
}

func BenchmarkEncodedArrCursorSequential(b *testing.B) {
	b.ReportAllocs()
	const n = 1_000_000
	e := benchSelArr(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := e.Cursor()
		var sink Rid
		for j := 0; j < n; j += 10 {
			sink += c.Get(Rid(j))
		}
		_ = sink
	}
}

// The skewed trace the claims benchmark times (capture-olap): a 300k-row,
// 1000-group θ=1 group-by captured by two workers, so every backward list is
// two chunks (the MergeEncodedBySlot shape), traced from the 4 largest groups
// plus every tenth group of the remaining size order — head, middle and tail
// of the skew in one seed set, ~110k rids.
func benchZipfTrace() (raw *Index, enc *EncodedIndex, seeds []Rid, rids int) {
	const rows, groups, parts = 300_000, 1000, 2
	zs := datagen.Zipf("zipf", 1.0, rows, groups, 2).Cols[1].Ints
	full := NewRidIndex(groups)
	local := make([]*EncodedIndex, parts)
	slotMaps := make([][]Rid, parts)
	for p := range local {
		part := NewRidIndex(groups)
		for r := p * rows / parts; r < (p+1)*rows/parts; r++ {
			part.Append(int(zs[r]-1), Rid(r))
			full.Append(int(zs[r]-1), Rid(r))
		}
		local[p] = EncodeRidIndex(part)
		slotMaps[p] = benchSeeds(groups)
	}
	enc = MergeEncodedBySlot(local, slotMaps, groups)

	order := benchSeeds(groups)
	sort.SliceStable(order, func(a, b int) bool { return len(full.List(int(order[a]))) > len(full.List(int(order[b]))) })
	seeds = append(seeds, order[:4]...)
	for rk := 4; rk < groups; rk += 10 {
		seeds = append(seeds, order[rk])
	}
	for _, s := range seeds {
		rids += len(full.List(int(s)))
	}
	return NewOneToMany(full), enc, seeds, rids
}

func benchTraceRate(b *testing.B, rids int, trace func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace()
	}
	b.ReportMetric(float64(rids)*float64(b.N)/b.Elapsed().Seconds(), "rids/s")
}

func BenchmarkTraceZipfRaw(b *testing.B) {
	raw, _, seeds, rids := benchZipfTrace()
	benchTraceRate(b, rids, func() { _ = raw.Trace(seeds) })
}

func BenchmarkTraceZipfEncoded(b *testing.B) {
	_, enc, seeds, rids := benchZipfTrace()
	ix := NewEncodedMany(enc)
	benchTraceRate(b, rids, func() { _ = ix.Trace(seeds) })
}

func BenchmarkTraceZipfInSitu(b *testing.B) {
	_, enc, seeds, rids := benchZipfTrace()
	benchTraceRate(b, rids, func() { _ = enc.TraceInSitu(seeds) })
}

// Kernel benches: one chunk of kernelRids rids decoded into a pre-sized
// buffer (the AppendLists shape), reported per rid so the chunk chooser's
// break-even between a gaps and a bitmap chunk can be read off directly.
const kernelRids = 1 << 15

func benchExpand(b *testing.B, enc []byte, n int) {
	ch, _ := NewEncCursor(enc).Next()
	if ch.N != n {
		b.Fatalf("chunk holds %d rids, want %d", ch.N, n)
	}
	dst := make([]Rid, 0, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = ch.ExpandInto(dst[:0])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/rid")
}

// BenchmarkExpandGaps decodes gaps chunks of one-byte gaps (a large group at
// ~13% density), two-byte gaps (a tail group) and a mix with mean gap 100
// (73% one-byte, the rest mostly two-byte, a few three-byte).
func BenchmarkExpandGaps(b *testing.B) {
	for _, c := range []struct {
		name string
		gap  func(rng *rand.Rand) Rid
	}{
		{"1B", func(rng *rand.Rand) Rid { return Rid(1 + rng.Intn(14)) }},
		{"2B", func(rng *rand.Rand) Rid { return Rid(128 + rng.Intn(1000)) }},
		{"mixed", func(rng *rand.Rand) Rid { return Rid(1 + rng.ExpFloat64()*100) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			list := ascendingBy(kernelRids, 0, func(int) Rid { return c.gap(rng) })
			benchExpand(b, appendGapsChunk(list), kernelRids)
		})
	}
}

// BenchmarkExpandBitmap decodes bitmap chunks whose bits are set at 5, 13, 30
// and 60% density.
func BenchmarkExpandBitmap(b *testing.B) {
	for _, c := range []struct {
		name    string
		density float64
	}{{"d05", 0.05}, {"d13", 0.13}, {"d30", 0.30}, {"d60", 0.60}} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var list []Rid
			for r := Rid(0); len(list) < kernelRids; r++ {
				if rng.Float64() < c.density {
					list = append(list, r)
				}
			}
			benchExpand(b, appendBitmapChunk(list, 0, int(list[len(list)-1])/8+1), kernelRids)
		})
	}
}
