package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func TestPercentileAndTenBeyondRule(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // unsorted on purpose
	}
	s := sorted(xs)
	if got := percentile(s, 50); got != 100 {
		t.Errorf("p50 of 1..200 = %v, want 100", got)
	}
	if got := percentile(s, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
	if b := beyond(200, 95); b != 10 {
		t.Errorf("beyond(200, 95) = %d, want 10", b)
	}
	if _, err := tailPercentile(s, 95, "x"); err != nil {
		t.Errorf("200 samples support p95: %v", err)
	}
	if _, err := tailPercentile(s[:199], 95, "x"); err == nil {
		t.Error("199 samples leave 9 beyond p95; want an error")
	}
	if _, err := tailPercentile(s, 99, "x"); err == nil {
		t.Error("200 samples leave 2 beyond p99; want an error")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// which the driver uses for its spread check.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	if got, want := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}), 1.0; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// Stratum 0 has ratios 2, 3, 1 (median 2); stratum 1 has 8: geomean 4.
	ps := []pair{{2, 1, 0}, {9, 3, 0}, {4, 4, 0}, {16, 2, 1}}
	if got := stratifiedRatio(ps); math.Abs(got-4) > 1e-12 {
		t.Errorf("stratifiedRatio = %v, want 4", got)
	}
	w := &windowStats{windowS: 4.5}
	for sec, n := range []int{10, 10, 0, 10} { // a stalled third second
		for i := 0; i < n; i++ {
			w.samples = append(w.samples, sample{ok: true, at: float64(sec) + 0.5})
		}
	}
	if got := w.throughput(); got != 10 {
		t.Errorf("throughput = %v, want the median second's 10", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Req: 1, Layer: "client", Name: "op", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Req: 1, Layer: "server", Name: "h", StartNS: 10, EndNS: 70},
		{ID: 3, Parent: 2, Req: 1, Layer: "exec", Name: "a", StartNS: 10, EndNS: 40},
		{ID: 4, Parent: 2, Req: 1, Layer: "exec", Name: "b", StartNS: 30, EndNS: 60},  // overlaps a by 10
		{ID: 5, Parent: 1, Req: 1, Layer: "json", Name: "m", StartNS: 90, EndNS: 130}, // reaches past its parent
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 60 - 10, 2: 60 - 50, 3: 30, 4: 30, 5: 40}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	shares := layerShares(spans, "op")
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("layer shares sum to %v, want 1", total)
	}

	rec := &recorder{spans: []span{
		{ID: 1, StartNS: 1000, EndNS: 1100},
		{ID: 2, Parent: 1, StartNS: 5000, EndNS: 5040},
		{ID: 3, Parent: 2, StartNS: 5010, EndNS: 5020},
	}}
	rec.rebase(1, 1)
	if s := rec.spans[1]; s.StartNS != 1000 || s.EndNS != 1040 || !s.Replay {
		t.Errorf("rebased child = %+v, want [1000,1040] replay", s)
	}
	if s := rec.spans[2]; s.StartNS != 1010 || s.EndNS != 1020 {
		t.Errorf("rebased grandchild = %+v, want [1010,1020]", s)
	}
}

func TestScriptsAreSeeded(t *testing.T) {
	sz := xfSizesFor("tiny")
	gen := func(seed int64) ([][2]int, []xfSession) {
		s := newXFScript(seed, sz)
		rng := s.clientRNG(0)
		var out []xfSession
		for i := 0; i < 20; i++ {
			out = append(out, s.session(rng))
		}
		return s.windows, out
	}
	w1, s1 := gen(7)
	w2, s2 := gen(7)
	w3, s3 := gen(8)
	if !reflect.DeepEqual(w1, w2) || !reflect.DeepEqual(s1, s2) {
		t.Error("same seed produced different xfilter scripts")
	}
	if reflect.DeepEqual(w1, w3) && reflect.DeepEqual(s1, s3) {
		t.Error("different seeds produced the same xfilter script")
	}

	counts := [][]int64{make([]int64, 100), make([]int64, 100)}
	for i := range counts[0] {
		counts[0][i], counts[1][i] = int64(1000/(i+1)), 10
	}
	ssz := sweepSizesFor("tiny")
	a, b, c := genSweepScript(7, ssz, counts), genSweepScript(7, ssz, counts), genSweepScript(8, ssz, counts)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different sweep scripts")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced the same sweep script")
	}
	if len(a) != ssz.steps {
		t.Errorf("sweep script has %d steps, want %d", len(a), ssz.steps)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest checks that BENCHMARK.json is exactly what the metric tables
// render, and that the tables respect the driver's limits.
func TestManifest(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, manifestJSON()) {
		t.Error("BENCHMARK.json differs from `benchmark -manifest`; regenerate it")
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q breaks the driver's naming rule", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if _, ok := runners[w.Name]; !ok {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	var setup bool
	for _, d := range endToEnd {
		check(d.Name)
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end needs setup_s in s, lower better")
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q breaks the driver's unit rule", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayer {
		check(d.Name)
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("counts outside the driver's limits: %d workloads, %d end-to-end, %d per-layer", len(workloads), len(endToEnd), len(perLayer))
	}
}

// TestSmokeAllWorkloads runs every workload at tiny size for one
// second, untraced and traced, and requires the emitted metric names to be
// exactly the declared ones, with no failed op and a result line that
// round-trips through JSON.
func TestSmokeAllWorkloads(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name, defs := w.Name+"/end-to-end", endToEnd
			if traced {
				name, defs = w.Name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := config{workload: w.Name, seed: 3, seconds: 1, trace: traced, size: "tiny", outDir: out}
				res, _, err := runWorkload(cfg)
				if errors.Is(err, errShortTail) {
					// A machine several times slower than the sandbox (or -race):
					// the names are what is under test, so give it the time.
					cfg.seconds = 6
					res, _, err = runWorkload(cfg)
				}
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("emitted %d metrics, declared %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("declared metric %s was not emitted", d.Name)
						continue
					}
					if m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v %q, want a finite value in %q", d.Name, m.Value, m.Unit, d.Unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v; the driver needs it above 0", d.Name, m.Value)
					}
				}
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				var back map[string]any
				if err := json.Unmarshal(line, &back); err != nil || len(back) != 4 {
					t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", back)
				}
				if traced {
					if _, err := os.Stat(out + "/" + w.Name + ".trace.jsonl"); err != nil {
						t.Errorf("traced run wrote no span file: %v", err)
					}
				}
			})
		}
	}
}
