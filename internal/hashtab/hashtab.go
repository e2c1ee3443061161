// Package hashtab provides an open-addressing int64→int32 hash table used by
// the hash-based physical operators (group-by aggregation, hash joins, set
// operations). The engine's hash tables are on the critical path of both
// query execution and lineage capture — Smoke reuses them for capture
// (principle P4) — so they avoid the allocation and hashing overheads of
// Go's generic map in exchange for a fixed key type: operator key columns are
// either int64 values or dictionary codes.
//
// Probe loops reslice the key/value/occupied arrays to a shared power-of-two
// length and index with i & uint64(n-1): the compiler proves every access in
// bounds and drops the checks from the inner loop. The batched entry points
// (GetOrPutBatch, GetBatch) amortize the per-row call and the hash
// computation over whole morsel batches — the group-by kernels hand the
// table hundreds of keys at a time instead of one.
package hashtab

import "smoke/internal/scratch"

// Map is an open-addressing linear-probing hash table from int64 keys to
// int32 values. The zero value is not usable; call New.
//
// Concurrency: methods that insert (Put, GetOrPut, GetOrPutBatch, grow) are
// single-writer. Get and GetBatch are pure reads and may run concurrently
// from many goroutines against a frozen table — the parallel join probe
// depends on this, so batch scratch is pooled per call, never stored on the
// Map.
type Map struct {
	keys     []int64
	vals     []int32
	occupied []bool
	size     int
	maxLoad  int
}

// New returns a map pre-sized for the given number of entries.
func New(capacityHint int) *Map {
	n := 16
	for n < capacityHint*2 {
		n <<= 1
	}
	return &Map{
		keys:     make([]int64, n),
		vals:     make([]int32, n),
		occupied: make([]bool, n),
		maxLoad:  n * 7 / 10,
	}
}

// hash is the splitmix64 finalizer: cheap and well-distributed for both
// sequential keys (orderkeys) and dictionary codes.
func hash(k int64) uint64 {
	x := uint64(k)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Len returns the number of entries.
func (m *Map) Len() int { return m.size }

// Get returns the value stored under key.
func (m *Map) Get(key int64) (int32, bool) {
	n := uint64(len(m.keys))
	keys, vals, occ := m.keys[:n], m.vals[:n], m.occupied[:n]
	i := hash(key) & (n - 1)
	for occ[i] {
		if keys[i] == key {
			return vals[i], true
		}
		i = (i + 1) & (n - 1)
	}
	return 0, false
}

// Put stores val under key, replacing any existing value.
func (m *Map) Put(key int64, val int32) {
	if m.size >= m.maxLoad {
		m.grow(m.size + 1)
	}
	n := uint64(len(m.keys))
	keys, vals, occ := m.keys[:n], m.vals[:n], m.occupied[:n]
	i := hash(key) & (n - 1)
	for occ[i] {
		if keys[i] == key {
			vals[i] = val
			return
		}
		i = (i + 1) & (n - 1)
	}
	occ[i] = true
	keys[i] = key
	vals[i] = val
	m.size++
}

// GetOrPut returns the existing value for key, or stores val and reports
// inserted = true. This is the single-probe path group-by build loops use:
// one hash computation covers both the lookup and the insert.
func (m *Map) GetOrPut(key int64, val int32) (existing int32, inserted bool) {
	if m.size >= m.maxLoad {
		m.grow(m.size + 1)
	}
	n := uint64(len(m.keys))
	keys, vals, occ := m.keys[:n], m.vals[:n], m.occupied[:n]
	i := hash(key) & (n - 1)
	for occ[i] {
		if keys[i] == key {
			return vals[i], false
		}
		i = (i + 1) & (n - 1)
	}
	occ[i] = true
	keys[i] = key
	vals[i] = val
	m.size++
	return val, true
}

// GetOrPutBatch resolves keys[j] to slots[j] for a whole batch, inserting
// misses. A miss calls onNew(j, key) — in batch order, which is input-row
// order — and stores its return value, so group ids are assigned exactly as
// the row-at-a-time loop would assign them (the determinism contract of the
// parallel merge depends on discovery order). Hashing runs as its own tight
// loop over the batch before any probing, and capacity is reserved up front,
// in one resize, so the probe loop never rehashes mid-batch.
func (m *Map) GetOrPutBatch(keys []int64, slots []int32, onNew func(j int, key int64) int32) {
	if need := m.size + len(keys); need > m.maxLoad {
		m.grow(need)
	}
	hs := hashBatch(keys)
	n := uint64(len(m.keys))
	tk, tv, occ := m.keys[:n], m.vals[:n], m.occupied[:n]
	for j, k := range keys {
		i := hs[j] & (n - 1)
		for {
			if !occ[i] {
				v := onNew(j, k)
				occ[i] = true
				tk[i] = k
				tv[i] = v
				m.size++
				slots[j] = v
				break
			}
			if tk[i] == k {
				slots[j] = tv[i]
				break
			}
			i = (i + 1) & (n - 1)
		}
	}
	scratch.PutWords(hs)
}

// GetBatch resolves keys[j] to slots[j] for a whole batch of keys that are
// all present (the Defer second-pass shape: every key was inserted by the
// aggregation pass). Missing keys write -1.
func (m *Map) GetBatch(keys []int64, slots []int32) {
	hs := hashBatch(keys)
	n := uint64(len(m.keys))
	tk, tv, occ := m.keys[:n], m.vals[:n], m.occupied[:n]
	for j, k := range keys {
		i := hs[j] & (n - 1)
		slots[j] = -1
		for occ[i] {
			if tk[i] == k {
				slots[j] = tv[i]
				break
			}
			i = (i + 1) & (n - 1)
		}
	}
	scratch.PutWords(hs)
}

// hashBatch returns a pooled buffer holding the hashes of keys. The caller
// returns it with scratch.PutWords once probing finishes. Pooled (not cached
// on the Map) so concurrent GetBatch probes of a shared table never share
// scratch.
func hashBatch(keys []int64) []uint64 {
	hs := scratch.Words(len(keys))
	for j, k := range keys {
		hs[j] = hash(k)
	}
	return hs
}

// grow rehashes into the smallest doubling of the table whose load bound
// covers need entries: the size repeated doubling would reach, in one
// allocation.
func (m *Map) grow(need int) {
	oldKeys, oldVals, oldOcc := m.keys, m.vals, m.occupied
	n := len(m.keys) * 2
	for n*7/10 < need {
		n <<= 1
	}
	m.keys = make([]int64, n)
	m.vals = make([]int32, n)
	m.occupied = make([]bool, n)
	m.maxLoad = n * 7 / 10
	m.size = 0
	for i, occ := range oldOcc {
		if occ {
			m.putFresh(oldKeys[i], oldVals[i])
		}
	}
}

// putFresh inserts a key known to be absent (rehash path).
func (m *Map) putFresh(key int64, val int32) {
	n := uint64(len(m.keys))
	keys, occ := m.keys[:n], m.occupied[:n]
	i := hash(key) & (n - 1)
	for occ[i] {
		i = (i + 1) & (n - 1)
	}
	occ[i] = true
	keys[i] = key
	m.vals[i] = val
	m.size++
}

// Range calls f for every entry, in unspecified order.
func (m *Map) Range(f func(key int64, val int32)) {
	for i, occ := range m.occupied {
		if occ {
			f(m.keys[i], m.vals[i])
		}
	}
}
