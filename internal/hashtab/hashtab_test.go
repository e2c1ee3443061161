package hashtab

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	m := New(0)
	if m.Len() != 0 {
		t.Fatalf("Len = %d", m.Len())
	}
	if _, ok := m.Get(42); ok {
		t.Fatal("Get on empty map should miss")
	}
}

func TestPutGet(t *testing.T) {
	m := New(4)
	m.Put(1, 10)
	m.Put(2, 20)
	m.Put(1, 11) // overwrite
	if v, ok := m.Get(1); !ok || v != 11 {
		t.Fatalf("Get(1) = %d, %v", v, ok)
	}
	if v, ok := m.Get(2); !ok || v != 20 {
		t.Fatalf("Get(2) = %d, %v", v, ok)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestGetOrPut(t *testing.T) {
	m := New(4)
	v, inserted := m.GetOrPut(5, 50)
	if !inserted || v != 50 {
		t.Fatalf("first GetOrPut = %d, %v", v, inserted)
	}
	v, inserted = m.GetOrPut(5, 99)
	if inserted || v != 50 {
		t.Fatalf("second GetOrPut = %d, %v; must return existing", v, inserted)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestGrowthPreservesEntries(t *testing.T) {
	m := New(2)
	n := 10000
	for i := 0; i < n; i++ {
		m.Put(int64(i*7), int32(i))
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	for i := 0; i < n; i++ {
		if v, ok := m.Get(int64(i * 7)); !ok || v != int32(i) {
			t.Fatalf("Get(%d) = %d, %v", i*7, v, ok)
		}
	}
}

func TestNegativeAndExtremeKeys(t *testing.T) {
	m := New(4)
	keys := []int64{-1, 0, 1, -1 << 62, 1<<62 - 1}
	for i, k := range keys {
		m.Put(k, int32(i))
	}
	for i, k := range keys {
		if v, ok := m.Get(k); !ok || v != int32(i) {
			t.Fatalf("Get(%d) = %d, %v", k, v, ok)
		}
	}
}

func TestRangeVisitsAll(t *testing.T) {
	m := New(4)
	want := map[int64]int32{3: 30, 9: 90, 27: 270}
	for k, v := range want {
		m.Put(k, v)
	}
	got := map[int64]int32{}
	m.Range(func(k int64, v int32) { got[k] = v })
	if len(got) != len(want) {
		t.Fatalf("Range visited %d entries", len(got))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range got[%d] = %d, want %d", k, got[k], v)
		}
	}
}

func TestAgainstStdlibMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(0)
		ref := map[int64]int32{}
		for i := 0; i < 3000; i++ {
			k := int64(rng.Intn(500)) - 250
			v := int32(rng.Intn(1 << 20))
			if rng.Intn(2) == 0 {
				m.Put(k, v)
				ref[k] = v
			} else {
				got, insertedGot := m.GetOrPut(k, v)
				want, exists := ref[k]
				if !exists {
					ref[k] = v
					want = v
				}
				if got != want || insertedGot == exists {
					return false
				}
			}
		}
		if m.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			if got, ok := m.Get(k); !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// A batch that overflows the table resizes it once, straight to its final
// size, instead of doubling through tables it then discards: New(64) holds
// 128 slots, and 512 new keys need 1,024.
func TestGetOrPutBatchGrowsOnce(t *testing.T) {
	keys := make([]int64, 512)
	for j := range keys {
		keys[j] = int64(7 * j)
	}
	slots := make([]int32, len(keys))
	onNew := func(j int, _ int64) int32 { return int32(j) }
	var m *Map
	allocs := testing.AllocsPerRun(20, func() {
		m = New(64)
		m.GetOrPutBatch(keys, slots, onNew)
	})
	// New allocates the map and its three arrays; the resize three more.
	if allocs > 7 {
		t.Errorf("New(64) + one 512-key batch: %v allocations, want <= 7", allocs)
	}
	if len(m.keys) != 1024 || m.Len() != len(keys) {
		t.Errorf("table has %d slots and %d entries, want 1024 and %d", len(m.keys), m.Len(), len(keys))
	}
	for j, k := range keys {
		if v, ok := m.Get(k); !ok || v != int32(j) || slots[j] != int32(j) {
			t.Fatalf("key %d: Get = %d, %v; slot %d", k, v, ok, slots[j])
		}
	}
}
