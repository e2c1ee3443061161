package difftest

import (
	"math/rand"
	"testing"
)

// TestDifferentialLineageEquivalence is the archetype gate: randomized SPJA
// queries must produce element-identical lineage (and equal output) under
// serial, morsel-parallel, Inject, Defer, and compressed capture.
func TestDifferentialLineageEquivalence(t *testing.T) {
	seeds := []int64{1, 42, 2026}
	queries := 8
	if testing.Short() {
		seeds = seeds[:1]
		queries = 4
	}
	for _, seed := range seeds {
		if err := Check(seed, queries); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMultiBlockDifferentialEquivalence is the plan-layer gate: randomized
// multi-block plans (fusible star blocks with HAVING/ORDER BY/LIMIT residue,
// aggregations over joins over grouped subqueries, group-bys over M:N joins
// and over set unions)
// plus fixed multi-block SQL queries must be element-identical across
// fused/generic lowering × serial/par3 × Inject/Defer × raw/compressed.
func TestMultiBlockDifferentialEquivalence(t *testing.T) {
	seeds := []int64{3, 77, 2027}
	plans := 6
	if testing.Short() {
		seeds = seeds[:1]
		plans = 3
	}
	for _, seed := range seeds {
		if err := CheckMultiBlock(seed, plans); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTraceDifferentialEquivalence is the consuming-query gate: randomized
// backward/forward trace-then-aggregate plans (bound and unbound, rid- and
// predicate-seeded, duplicate seeds included) must be element-identical
// across fused/generic × serial/par3 × Inject/Defer × raw/compressed, and
// the plan path must match the pre-plan serial consuming path exactly.
func TestTraceDifferentialEquivalence(t *testing.T) {
	seeds := []int64{5, 91, 2028}
	queries := 10
	if testing.Short() {
		seeds = seeds[:1]
		queries = 5
	}
	for _, seed := range seeds {
		if err := CheckTrace(seed, queries); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStrategyDifferentialEquivalence is the trace-strategy gate: eager,
// lazy, and hybrid capture (× serial/par3 × raw/compressed) must answer
// rid-seeded and predicate-seeded traces element-identically on randomized
// SPJA plans — the lazy re-execution path and the hybrid directional split
// are indistinguishable from the captured indexes they replace.
func TestStrategyDifferentialEquivalence(t *testing.T) {
	seeds := []int64{9, 53, 2029}
	queries := 6
	if testing.Short() {
		seeds = seeds[:1]
		queries = 3
	}
	for _, seed := range seeds {
		if err := CheckStrategies(seed, queries); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStrategyVariantsCoverTheMatrix pins the strategy matrix: 3 strategies
// × 2 parallelism levels × 2 representations.
func TestStrategyVariantsCoverTheMatrix(t *testing.T) {
	vs := StrategyVariants()
	if len(vs) != 12 {
		t.Fatalf("got %d strategy variants, want 12", len(vs))
	}
	seen := map[string]bool{}
	for _, v := range vs {
		if seen[v.Name] {
			t.Fatalf("duplicate variant %q", v.Name)
		}
		seen[v.Name] = true
	}
	for _, want := range []string{
		"eager/serial/raw", "lazy/par3/compressed", "hybrid/par3/raw",
		"lazy/serial/raw", "hybrid/serial/compressed",
	} {
		if !seen[want] {
			t.Fatalf("missing variant %q", want)
		}
	}
}

// TestPlanVariantsCoverTheMatrix pins the multi-block matrix: 2 lowerings ×
// 2 parallelism levels × 2 modes × 2 representations, reference first.
func TestPlanVariantsCoverTheMatrix(t *testing.T) {
	vs := PlanVariants(nil)
	if len(vs) != 16 {
		t.Fatalf("got %d plan variants, want 16", len(vs))
	}
	if vs[0].Name != "generic/serial/inject/raw" {
		t.Fatalf("reference variant is %q", vs[0].Name)
	}
	seen := map[string]bool{}
	for _, v := range vs {
		if seen[v.Name] {
			t.Fatalf("duplicate variant %q", v.Name)
		}
		seen[v.Name] = true
	}
	for _, want := range []string{
		"generic/par3/defer/compressed", "fused/serial/inject/raw",
		"fused/par3/inject/compressed", "fused/par3/defer/raw",
	} {
		if !seen[want] {
			t.Fatalf("missing variant %q", want)
		}
	}
}

// TestVariantsCoverTheMatrix pins the configuration matrix: 2 modes × 2
// parallelism levels × 2 representations, reference first.
func TestVariantsCoverTheMatrix(t *testing.T) {
	vs := Variants()
	if len(vs) != 8 {
		t.Fatalf("got %d variants, want 8", len(vs))
	}
	if vs[0].Name != "serial/inject/raw" {
		t.Fatalf("reference variant is %q", vs[0].Name)
	}
	seen := map[string]bool{}
	for _, v := range vs {
		if seen[v.Name] {
			t.Fatalf("duplicate variant %q", v.Name)
		}
		seen[v.Name] = true
	}
	for _, want := range []string{
		"serial/inject/raw", "serial/inject/compressed",
		"serial/defer/raw", "serial/defer/compressed",
		"par3/inject/raw", "par3/inject/compressed",
		"par3/defer/raw", "par3/defer/compressed",
	} {
		if !seen[want] {
			t.Fatalf("missing variant %q", want)
		}
	}
}

// TestGenDatasetDeterministic pins seeded reproducibility: the harness must
// generate identical data for identical seeds (failure reports reference the
// seed, so replays have to reproduce the exact session).
func TestGenDatasetDeterministic(t *testing.T) {
	r1 := newSeeded(7)
	r2 := newSeeded(7)
	d1 := GenDataset(r1)
	defer d1.DB.Close()
	d2 := GenDataset(r2)
	defer d2.DB.Close()
	if d1.FactN != d2.FactN || d1.DimN != d2.DimN {
		t.Fatalf("sizes differ: (%d,%d) vs (%d,%d)", d1.DimN, d1.FactN, d2.DimN, d2.FactN)
	}
	for i := 0; i < d1.FactN; i++ {
		if d1.Fact.Cols[0].Ints[i] != d2.Fact.Cols[0].Ints[i] {
			t.Fatalf("fact.k[%d] differs", i)
		}
	}
}

func newSeeded(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestRestartDifferentialEquivalence is the out-of-core gate: captured
// results persisted to a data dir, reopened in a fresh process-equivalent,
// must answer backward/forward traces element-identically to pre-restart —
// raw and compressed captures both (the disk tier stores the encoded chunk
// representation either way).
func TestRestartDifferentialEquivalence(t *testing.T) {
	seeds := []int64{5, 99}
	queries := 4
	if testing.Short() {
		seeds = seeds[:1]
		queries = 2
	}
	for _, seed := range seeds {
		if err := CheckRestart(t.TempDir(), seed, queries); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedDifferentialEquivalence is the horizontal-scaling gate:
// randomized scatterable SPJA queries and bound backward/forward traces must
// answer element-identically through a sharded coordinator (shards 1, 2, 4 ×
// eager/lazy/hybrid × raw/compressed) as through a single node, end to end
// over the HTTP API.
func TestShardedDifferentialEquivalence(t *testing.T) {
	seeds := []int64{11, 2030}
	queries := 3
	if testing.Short() {
		seeds = seeds[:1]
		queries = 2
	}
	for _, seed := range seeds {
		if err := CheckSharded(seed, queries); err != nil {
			t.Fatal(err)
		}
	}
}

// TestForwardScatterDifferentialEquivalence is the BT+FT rule's gate: a
// capture-off COUNT group-by over a bound trace, rewritten to count through
// a sibling view's forward index, must be element-identical to the hash
// group-by at workers 1/2/4 over raw and compressed views and siblings —
// resident, and restored from a disk store with their plans attached — and
// every sibling or query shape the rule must refuse keeps the hash path.
func TestForwardScatterDifferentialEquivalence(t *testing.T) {
	// Seed 13's view filter passes no row: every view and trace is empty.
	seeds := []int64{57, 2030, 13}
	queries := 12
	if testing.Short() {
		seeds = seeds[:1]
		queries = 6
	}
	for _, seed := range seeds {
		if err := CheckForwardScatter(t.TempDir(), seed, queries); err != nil {
			t.Fatal(err)
		}
	}
}
