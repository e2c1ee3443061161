package lineage

import (
	"math/bits"

	"smoke/internal/serr"
)

// presence is a bitmap over a form's entries plus its rank directory: the
// half that the two forms storing only their present entries share — the
// bitmap form of SparseArr (records that map to a group) and the directory
// form of EncodedIndex (entries whose rid list is non-empty). A lookup is one
// word load, one popcount and one rank load.
type presence struct {
	words []uint64 // bit i set: entry i is present; nil when every entry is
	rank  []uint32 // rank[w] = present entries in words[:w]; nil without words
}

// presenceCostPerWord is what a presence bitmap costs per 64 entries: the
// word and its rank directory entry.
const presenceCostPerWord = 8 + 4

// presenceCost returns the bytes of a presence bitmap over n entries.
func presenceCost(n int) int { return presenceCostPerWord * ((n + 63) / 64) }

// newPresence derives the rank directory of words and returns the presence
// with its number of present entries.
func newPresence(words []uint64) (presence, int) {
	rank := make([]uint32, len(words))
	total := 0
	for w, x := range words {
		rank[w] = uint32(total)
		total += bits.OnesCount64(x)
	}
	return presence{words: words, rank: rank}, total
}

// has reports whether entry i is present.
func (p *presence) has(i int) bool { return p.words[uint(i)>>6]&(1<<(uint(i)&63)) != 0 }

// before returns the number of present entries before entry i: a present
// entry's position among them. It stays small enough to inline into the
// capturing kernels' per-row store (SparseArr.Set).
func (p *presence) before(i int) int {
	w := uint(i) >> 6
	return int(p.rank[w]) + bits.OnesCount64(p.words[w]&(1<<(uint(i)&63)-1))
}

// sizeBytes returns the bitmap's and rank directory's footprint.
func (p *presence) sizeBytes() int { return 8*len(p.words) + 4*len(p.rank) }

// presenceFromParts validates a persisted bitmap over n entries — one word
// per 64 entries and no bit set at or past n — and derives its rank
// directory.
func presenceFromParts(words []uint64, n int, what string) (presence, int, error) {
	if len(words) != (n+63)/64 {
		return presence{}, 0, serr.New(serr.Internal, "lineage: %s over %d entries has %d bitmap words, want %d",
			what, n, len(words), (n+63)/64)
	}
	if tail := n & 63; tail != 0 && words[len(words)-1]>>tail != 0 {
		return presence{}, 0, serr.New(serr.Internal, "lineage: %s bitmap sets a bit past entry count %d", what, n)
	}
	p, present := newPresence(words)
	return p, present, nil
}
