// Package lineage implements the paper's lineage index representations
// (§3.1): rid arrays for 1-to-1 operator relationships and rid indexes
// (inverted indexes of rid arrays) for 1-to-N relationships, plus the
// partition order and directory of the data-skipping optimization (§4.2),
// index composition for multi-operator propagation (§3.3), and the Capture
// container that maps a query's output to its per-base-relation backward and
// forward indexes.
package lineage

// Rid is a record id: the position of a record within its relation.
// 32 bits halves index memory traffic relative to int; every workload in the
// paper (up to 123.5M records) fits comfortably.
type Rid = int32

// Growth policy (§3.1, following folly::fbvector): rid arrays are initialized
// to 10 elements and grow by 1.5× on overflow. Array resizing dominates
// lineage capture cost, which is why cardinality statistics that preallocate
// exact sizes reduce overhead by up to 60% in the paper; the explicit policy
// here preserves that effect.
const (
	initialCap   = 10
	growthFactor = 1.5
)

// AppendRid appends r to s under the paper's growth policy and returns the
// (possibly reallocated) slice. It deliberately bypasses Go's built-in append
// growth so that preallocation experiments measure the same resizing behavior
// the paper describes.
func AppendRid(s []Rid, r Rid) []Rid {
	if len(s) == cap(s) {
		s = grow(s)
	}
	return append(s, r)
}

func grow(s []Rid) []Rid {
	newCap := initialCap
	if c := cap(s); c > 0 {
		newCap = c + c/2 // 1.5x
		if newCap == c {
			newCap = c + 1
		}
	}
	ns := make([]Rid, len(s), newCap)
	copy(ns, s)
	return ns
}
