// Package scratch provides pooled, size-classed transient buffers for the
// engine's morsel kernels. The hot paths — selection bitmaps, group-by batch
// probes, encoded-trace expansion — need short-lived per-partition scratch
// whose lifetime ends inside one kernel call; allocating it per morsel is
// what made workers=4 lose to workers=1 on allocation-bound workloads.
// Buffers are recycled through sync.Pool in power-of-two size classes, so a
// steady-state bench loop reaches zero allocations per morsel.
//
// Contract: a Put'd buffer must not be referenced afterwards, and buffers
// that escape into results (lineage arrays, output relations) are never
// pooled — only scratch whose contents are fully consumed before the kernel
// returns.
package scratch

import (
	"math/bits"
	"sync"
	"unsafe"
)

// size classes: 1<<6 .. 1<<24 elements; requests outside the classed range
// allocate directly and are dropped on Put.
const (
	minClassBits = 6
	maxClassBits = 24
)

func classFor(n int) int {
	if n <= 0 {
		n = 1
	}
	c := bits.Len(uint(n - 1)) // ceil(log2(n))
	if c < minClassBits {
		c = minClassBits
	}
	return c
}

// pools recycles []T buffers by size class. It holds a pointer to a
// buffer's first element, which an interface stores without allocating (a
// slice header would be boxed on every Put), and the class restores the
// capacity.
type pools[T any] struct {
	byClass [maxClassBits + 1]sync.Pool
}

func (p *pools[T]) get(n int) []T {
	class := classFor(n)
	if class > maxClassBits {
		return make([]T, n)
	}
	if v := p.byClass[class].Get(); v != nil {
		return unsafe.Slice(v.(*T), 1<<class)[:n]
	}
	return make([]T, n, 1<<class)
}

// put admits only exact power-of-two capacities inside the classed range
// (anything else would poison its size class). The range checks run before
// the shift so a zero capacity cannot produce a negative shift.
func (p *pools[T]) put(b []T) {
	c := bits.Len(uint(cap(b))) - 1
	if c < minClassBits || c > maxClassBits || cap(b) != 1<<c {
		return
	}
	p.byClass[c].Put(&b[:1][0])
}

var (
	wordPools pools[uint64]
	ridPools  pools[int32]
	intPools  pools[int64]
)

// Words returns a []uint64 with length exactly n. Contents are undefined;
// callers must fully overwrite (bitmap kernels write every word under
// KernSet).
func Words(n int) []uint64 { return wordPools.get(n) }

// PutWords recycles a buffer obtained from Words.
func PutWords(b []uint64) { wordPools.put(b) }

// Rids returns an []int32 scratch buffer with length exactly n (rid and
// group-slot batches). Contents are undefined.
func Rids(n int) []int32 { return ridPools.get(n) }

// PutRids recycles a buffer obtained from Rids.
func PutRids(b []int32) { ridPools.put(b) }

// Ints returns an []int64 scratch buffer with length exactly n (group-by key
// batches). Contents are undefined.
func Ints(n int) []int64 { return intPools.get(n) }

// PutInts recycles a buffer obtained from Ints.
func PutInts(b []int64) { intPools.put(b) }
