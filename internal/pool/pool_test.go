package pool

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestSplitCoversRange(t *testing.T) {
	for _, tc := range []struct{ n, parts int }{
		{0, 4}, {1, 4}, {3, 4}, {4, 4}, {10, 3}, {100, 8}, {7, 1}, {5, 0},
	} {
		rs := Split(tc.n, tc.parts)
		next := 0
		for i, r := range rs {
			if r.Part != i {
				t.Fatalf("Split(%d,%d): part %d has id %d", tc.n, tc.parts, i, r.Part)
			}
			if r.Lo != next {
				t.Fatalf("Split(%d,%d): gap at %d", tc.n, tc.parts, r.Lo)
			}
			if r.Hi < r.Lo {
				t.Fatalf("Split(%d,%d): inverted range %+v", tc.n, tc.parts, r)
			}
			next = r.Hi
		}
		if next != tc.n {
			t.Fatalf("Split(%d,%d): covers [0,%d)", tc.n, tc.parts, next)
		}
		if tc.parts >= 1 && len(rs) > tc.parts {
			t.Fatalf("Split(%d,%d): %d ranges", tc.n, tc.parts, len(rs))
		}
	}
}

func TestNilPoolRunsSerially(t *testing.T) {
	var p *Pool
	var order []int
	p.RunRanges(10, 4, func(part, lo, hi int) { order = append(order, part) })
	for i, v := range order {
		if v != i {
			t.Fatalf("nil pool ran parts out of order: %v", order)
		}
	}
}

func TestRunRangesVisitsEveryRow(t *testing.T) {
	p := New(4)
	defer p.Close()
	seen := make([]int32, 1000)
	p.RunRanges(len(seen), 8, func(part, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("row %d visited %d times", i, c)
		}
	}
}

func TestCloseReleasesWorkersAndStaysUsable(t *testing.T) {
	p := New(3)
	var n atomic.Int32
	p.RunRanges(100, 3, func(part, lo, hi int) { n.Add(int32(hi - lo)) })
	p.Close()
	p.Close() // idempotent
	// After Close, RunRanges still completes — inline on the caller.
	p.RunRanges(100, 3, func(part, lo, hi int) { n.Add(int32(hi - lo)) })
	if n.Load() != 200 {
		t.Fatalf("visited %d rows, want 200", n.Load())
	}
	var nilPool *Pool
	nilPool.Close() // nil-safe
	New(2).Close()  // close before first use
}

// Close racing in-flight RunRanges must not panic ("send on closed
// channel"): the channel close is deferred to the last active run, and runs
// observing a closed pool fall back to inline execution.
func TestCloseDuringRunRanges(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		p := New(2)
		var wg sync.WaitGroup
		var total atomic.Int64
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.RunRanges(200, 4, func(part, lo, hi int) {
					total.Add(int64(hi - lo))
				})
			}()
		}
		p.Close() // races the submissions above
		wg.Wait()
		if total.Load() != 4*200 {
			t.Fatalf("trial %d: visited %d rows, want %d", trial, total.Load(), 4*200)
		}
	}
}

// Fair-share dispatch: with several active runs, the scheduler hands out one
// task per run per cycle (round-robin), so a late-arriving query is not
// queued behind an earlier query's entire backlog. This drives takeLocked
// directly — the scheduling decision is deterministic even though worker
// execution is not.
func TestFairShareDispatchOrder(t *testing.T) {
	p := New(1)
	defer p.Close()
	var order []string
	mk := func(label string, n int) *runQ {
		var wg sync.WaitGroup
		wg.Add(n)
		return &runQ{
			kernel: func(part, lo, hi int) { order = append(order, label) },
			ranges: Split(n, n),
			wg:     &wg,
		}
	}
	// Enqueue directly (bypassing submit so no workers race the test).
	a, b := mk("a", 3), mk("b", 2)
	p.runs = append(p.runs, a, b)
	p.pending = len(a.ranges) + len(b.ranges)
	for p.pending > 0 {
		q, r := p.takeLocked()
		q.kernel(r.Part, r.Lo, r.Hi)
		q.wg.Done()
	}
	want := []string{"a", "b", "a", "b", "a"}
	if len(order) != len(want) {
		t.Fatalf("dispatched %d tasks, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v (round-robin across runs)", order, want)
		}
	}
	if len(p.runs) != 0 {
		t.Fatalf("%d exhausted runs left in ring", len(p.runs))
	}
}

// A late-arriving run must complete even while an earlier run with a much
// larger backlog is in flight (end-to-end fairness smoke under -race).
func TestLateRunProgressesUnderLoad(t *testing.T) {
	p := New(2)
	defer p.Close()
	var big, small atomic.Int32
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p.RunRanges(4000, 8, func(part, lo, hi int) { big.Add(int32(hi - lo)) })
	}()
	go func() {
		defer wg.Done()
		p.RunRanges(40, 8, func(part, lo, hi int) { small.Add(int32(hi - lo)) })
	}()
	wg.Wait()
	if big.Load() != 4000 || small.Load() != 40 {
		t.Fatalf("big=%d small=%d, want 4000/40", big.Load(), small.Load())
	}
}

// Concurrent RunRanges calls from many goroutines must all complete (the
// caller always runs one partition itself, so a busy pool cannot deadlock).
func TestConcurrentRunRanges(t *testing.T) {
	p := New(2)
	defer p.Close()
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.RunRanges(100, 4, func(part, lo, hi int) {
				total.Add(int64(hi - lo))
			})
		}()
	}
	wg.Wait()
	if total.Load() != 16*100 {
		t.Fatalf("total rows %d, want %d", total.Load(), 16*100)
	}
}
