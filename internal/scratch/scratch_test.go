package scratch

import "testing"

func TestBuffersHaveRequestedLength(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 512, 4096, 100_000} {
		w := Words(n)
		if len(w) != n {
			t.Fatalf("Words(%d) len = %d", n, len(w))
		}
		PutWords(w)
		r := Rids(n)
		if len(r) != n {
			t.Fatalf("Rids(%d) len = %d", n, len(r))
		}
		PutRids(r)
		iv := Ints(n)
		if len(iv) != n {
			t.Fatalf("Ints(%d) len = %d", n, len(iv))
		}
		PutInts(iv)
	}
}

func TestPutRejectsOddCapacities(t *testing.T) {
	// Non-power-of-two capacities must not enter the pool: a later Get would
	// return a buffer from the wrong size class. Put must simply drop them.
	PutRids(make([]int32, 100)) // cap 100, not a power of two
	PutRids(nil)
	r := Rids(64)
	if len(r) != 64 {
		t.Fatalf("len = %d after odd-capacity Put", len(r))
	}
	PutRids(r)
}

func TestReuseRoundTrip(t *testing.T) {
	// A returned buffer may be reused by the next same-class request; either
	// way the request contract (exact length, usable contents) must hold.
	a := Rids(1000)
	for i := range a {
		a[i] = int32(i)
	}
	PutRids(a)
	b := Rids(900)
	if len(b) != 900 {
		t.Fatalf("len = %d", len(b))
	}
	for i := range b {
		b[i] = -7 // must be writable over its whole length
	}
	PutRids(b)
}

// BenchmarkPooledMorselScratch pins the point of the pool: steady-state
// morsel kernels reacquire their scratch with zero allocations.
func BenchmarkPooledMorselScratch(b *testing.B) {
	b.ReportAllocs()
	const morsel = 4096
	// Warm the classes once so steady state is measured.
	PutWords(Words(morsel / 64))
	PutRids(Rids(morsel))
	PutInts(Ints(morsel))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := Words(morsel / 64)
		r := Rids(morsel)
		iv := Ints(morsel)
		w[0], r[0], iv[0] = 1, 1, 1
		PutWords(w)
		PutRids(r)
		PutInts(iv)
	}
}

// unpooledSink keeps the unpooled buffers live: a make whose slice never
// escapes is stack-allocated or dropped, and the baseline would read 0
// allocs/op.
var unpooledSink struct {
	w  []uint64
	r  []int32
	iv []int64
}

// BenchmarkUnpooledMorselScratch is the baseline the pool is measured
// against: the same three morsel buffers, freshly allocated each time.
func BenchmarkUnpooledMorselScratch(b *testing.B) {
	b.ReportAllocs()
	const morsel = 4096
	for i := 0; i < b.N; i++ {
		w := make([]uint64, morsel/64)
		r := make([]int32, morsel)
		iv := make([]int64, morsel)
		w[0], r[0], iv[0] = 1, 1, 1
		unpooledSink.w, unpooledSink.r, unpooledSink.iv = w, r, iv
	}
}
