package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"smoke/internal/lineage"
	"smoke/internal/serverclient"
	"smoke/internal/storage"
)

// budgetMS is the paper's interactive budget: an answer later than this
// counts as a miss in within_budget_frac.
const budgetMS = 150.0

// workers sizes every engine in the benchmark for the 2-core sandbox:
// clients + workers never exceed nproc by more than the closed loop idles.
const workers = 2

// opClass names one timing population. base/trace are what a user runs;
// the *None/*Enc/*Lazy twins are the same op against the capture-free, the
// compressed and the re-executing representation, and exist to form the
// three claim ratios inside one process.
type opClass uint8

const (
	clsBase opClass = iota
	clsBaseNone
	clsBaseEnc
	clsTrace
	clsTraceEnc
	clsTraceLazy
	clsSessionCreate
	clsSessionClose
	numClasses
)

var classNames = [numClasses]string{
	"base", "base_none", "base_enc", "trace", "trace_enc", "trace_lazy", "session_create", "session_close",
}

func (c opClass) String() string { return classNames[c] }

// sample is one completed op of the timed window.
type sample struct {
	class opClass
	ms    float64
	ok    bool    // answered, and the answer matched its precomputed digest
	at    float64 // seconds from the window's start to the op's completion
}

// pair is one numerator/denominator measurement of a claim ratio: the two
// ran back to back in one process (one session, one cycle), so machine drift
// cancels inside the pair. stratum groups pairs of one kind (for the HTTP
// workloads, the brushed view) so a ratio does not move with the mix.
type pair struct {
	num, den float64
	stratum  int
}

// windowStats is what a workload's timed window hands to the shared
// end-to-end arithmetic.
type windowStats struct {
	start   time.Time
	samples []sample
	windowS float64 // measured length of the window
	capture []pair  // captured base / capture-free base
	rerun   []pair  // eager trace / re-execution
	encoded []pair  // trace on the compressed capture / on the raw one
	// Counted for the traced run's server.* metrics.
	rejected429 int
	cachedBase  [2]int // cached, total — base ops
	cachedTrace [2]int // cached, total — trace ops
}

func newWindow() *windowStats { return &windowStats{start: time.Now()} }

func (w *windowStats) add(class opClass, ms float64, ok bool) {
	w.samples = append(w.samples, sample{class: class, ms: ms, ok: ok, at: time.Since(w.start).Seconds()})
}

// merge appends a later window (an extension, or another client's share of
// the same window when sameClock is set).
func (w *windowStats) merge(o *windowStats, sameClock bool) {
	for _, s := range o.samples {
		if !sameClock {
			s.at += w.windowS
		}
		w.samples = append(w.samples, s)
	}
	if !sameClock {
		w.windowS += o.windowS
	}
	w.capture, w.rerun, w.encoded = append(w.capture, o.capture...), append(w.rerun, o.rerun...), append(w.encoded, o.encoded...)
	w.rejected429 += o.rejected429
	for i := 0; i < 2; i++ {
		w.cachedBase[i] += o.cachedBase[i]
		w.cachedTrace[i] += o.cachedTrace[i]
	}
}

func (w *windowStats) byClass(c opClass) []float64 {
	var out []float64
	for _, s := range w.samples {
		if s.class == c && s.ok {
			out = append(out, s.ms)
		}
	}
	return out
}

func (w *windowStats) counts() (attempted, failed, within int) {
	for _, s := range w.samples {
		attempted++
		if !s.ok {
			failed++
		} else if s.ms <= budgetMS {
			within++
		}
	}
	return
}

// supportsTails reports whether both reported p95s have their ten samples
// beyond.
func (w *windowStats) supportsTails() bool {
	return beyond(len(w.byClass(clsBase)), 95) >= minBeyond && beyond(len(w.byClass(clsTrace)), 95) >= minBeyond
}

// maxStretch caps how far a window may be extended, as a multiple of the
// requested length.
const maxStretch = 2.5

// timedWindow measures for dur. On a machine so slow (or so stalled) that
// the window ends without the samples a p95 needs, it keeps measuring in
// half-window steps, up to maxStretch windows, rather than fail the run or
// print an unsupported tail.
func timedWindow(dur time.Duration, run func(time.Duration) (*windowStats, error)) (*windowStats, error) {
	w, err := run(dur)
	for err == nil && !w.supportsTails() && w.windowS < maxStretch*dur.Seconds() {
		var more *windowStats
		if more, err = run(dur / 2); err == nil {
			w.merge(more, false)
		}
	}
	return w, err
}

// throughput is the median, over the window's whole seconds, of correct ops
// completed in that second: one multi-second stall of the sandbox then costs
// the slices it covers, not the whole number.
func (w *windowStats) throughput() float64 {
	n := int(w.windowS)
	if n < 3 {
		_, failed, _ := w.counts()
		return float64(len(w.samples)-failed) / w.windowS
	}
	slices := make([]float64, n)
	for _, s := range w.samples {
		if i := int(s.at); s.ok && i < n {
			slices[i]++
		}
	}
	return median(slices)
}

// stratifiedRatio is the geometric mean, over strata, of the median of
// num/den within the stratum; 0 when there is no pair.
func stratifiedRatio(ps []pair) float64 {
	by := map[int][]float64{}
	for _, p := range ps {
		if p.den > 0 && p.num > 0 {
			by[p.stratum] = append(by[p.stratum], p.num/p.den)
		}
	}
	if len(by) == 0 {
		return 0
	}
	logSum := 0.0
	for _, rs := range by {
		logSum += math.Log(median(rs))
	}
	return math.Exp(logSum / float64(len(by)))
}

// endToEndMetrics turns a window into the declared end-to-end metrics.
func endToEndMetrics(w *windowStats, setupS, bytesPerRid float64) (map[string]float64, error) {
	attempted, _, within := w.counts()
	if attempted == 0 {
		return nil, fmt.Errorf("timed window completed no op")
	}
	base, trace := sorted(w.byClass(clsBase)), sorted(w.byClass(clsTrace))
	if len(base) == 0 || len(trace) == 0 {
		return nil, fmt.Errorf("timed window has %d base and %d trace samples; need both", len(base), len(trace))
	}
	baseP95, err := tailPercentile(base, 95, "base")
	if err != nil {
		return nil, err
	}
	traceP95, err := tailPercentile(trace, 95, "trace")
	if err != nil {
		return nil, err
	}
	m := map[string]float64{
		"setup_s":                setupS,
		"ops_per_s":              w.throughput(),
		"base_p50_ms":            percentile(base, 50),
		"base_p95_ms":            baseP95,
		"trace_p50_ms":           percentile(trace, 50),
		"trace_p95_ms":           traceP95,
		"capture_overhead_ratio": stratifiedRatio(w.capture),
		"trace_vs_rerun_ratio":   stratifiedRatio(w.rerun),
		"encoded_vs_raw_ratio":   stratifiedRatio(w.encoded),
		"within_budget_frac":     float64(within) / float64(attempted),
		"lineage_bytes_per_rid":  bytesPerRid,
		"peak_rss_mb":            peakRSSMiB(),
	}
	for _, k := range []string{"capture_overhead_ratio", "trace_vs_rerun_ratio", "encoded_vs_raw_ratio"} {
		if m[k] <= 0 {
			return nil, fmt.Errorf("%s has no pair in the window", k)
		}
	}
	return m, nil
}

// ---- digests ---------------------------------------------------------------

// digestRelation is an FNV-64a over a result's shape and every cell, so
// equal digests mean element-identical output: ints by value, floats by bit
// pattern (last ulp included), strings by bytes, in row order.
func digestRelation(rel *storage.Relation) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(rel.N))
	put(uint64(len(rel.Schema)))
	for i := 0; i < rel.N; i++ {
		for c, f := range rel.Schema {
			switch f.Type {
			case storage.TInt:
				put(uint64(rel.Cols[c].Ints[i]))
			case storage.TFloat:
				put(math.Float64bits(rel.Cols[c].Floats[i]))
			default:
				h.Write([]byte(rel.Cols[c].Strs[i]))
				put(0)
			}
		}
	}
	return h.Sum64()
}

// digestServed is digestRelation over a decoded HTTP result; a cell whose Go
// type does not match its declared column type poisons the digest.
func digestServed(res *serverclient.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(res.N))
	put(uint64(len(res.Columns)))
	for _, row := range res.Rows {
		for _, cell := range row {
			switch v := cell.(type) {
			case int64:
				put(uint64(v))
			case float64:
				put(math.Float64bits(v))
			case string:
				h.Write([]byte(v))
				put(0)
			default:
				put(0xdeadbeef)
			}
		}
	}
	return h.Sum64()
}

func digestRids(rids []lineage.Rid) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, r := range rids {
		binary.LittleEndian.PutUint32(b[:], uint32(r))
		h.Write(b[:])
	}
	return h.Sum64() ^ uint64(len(rids))
}

// captureEdges counts the lineage edges a capture holds: the summed
// cardinality of its backward indexes (each edge is also held once forward).
func captureEdges(c *lineage.Capture) int64 {
	var n int64
	for _, rel := range c.Relations() {
		ix, err := c.BackwardIndex(rel)
		if err != nil {
			continue // forward-only relation
		}
		switch ix.Kind {
		case lineage.OneToOne:
			n += int64(len(ix.Arr))
		case lineage.OneToMany:
			n += int64(ix.Many.Cardinality())
		case lineage.EncodedOne:
			n += int64(ix.EncArr.Len())
		default:
			n += int64(ix.Enc.Cardinality())
		}
	}
	return n
}

// ---- seeded choice ---------------------------------------------------------

// zipfCDF is the cumulative distribution of P(k) ∝ 1/(k+1)^theta over
// k ∈ [0, n).
func zipfCDF(n int, theta float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), theta)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

func pickCDF(rng *rand.Rand, cdf []float64) int {
	u := rng.Float64()
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ---- process and machine ---------------------------------------------------

// peakRSSMiB reads VmHWM, the process's resident-set high-water mark. Each
// workload runs in its own process, so this is that workload's peak alone.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, _ := strconv.ParseFloat(fields[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// spinSink keeps calibrate's loop observable so the compiler cannot drop it.
var spinSink atomic.Uint64

// calibrate times a fixed integer loop. Run before and after the window, the
// relative difference says whether the machine itself changed speed while
// the workload was being measured.
func calibrate() float64 {
	best := math.MaxFloat64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 4_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink.Add(x)
		if d := time.Since(t0).Seconds(); d < best {
			best = d
		}
	}
	return best
}

// runtimeProbe brackets a window with the Go runtime's own counters.
type runtimeProbe struct {
	ms    runtime.MemStats
	cpu   float64
	calib float64
}

func startRuntimeProbe() *runtimeProbe {
	p := &runtimeProbe{calib: calibrate()}
	runtime.GC()
	runtime.ReadMemStats(&p.ms)
	p.cpu = cpuSeconds()
	return p
}

// finish returns the runtime.* layer metrics for a window of ops operations
// (goroutines_leaked is filled by the caller, after teardown).
func (p *runtimeProbe) finish(ops int) map[string]float64 {
	cpu := cpuSeconds() - p.cpu
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	calib := calibrate()
	n := math.Max(float64(ops), 1)
	return map[string]float64{
		"runtime.alloc_bytes_per_op": float64(after.TotalAlloc-p.ms.TotalAlloc) / n,
		"runtime.mallocs_per_op":     float64(after.Mallocs-p.ms.Mallocs) / n,
		"runtime.gc_cycles":          float64(after.NumGC - p.ms.NumGC),
		"runtime.gc_pause_ms":        float64(after.PauseTotalNs-p.ms.PauseTotalNs) / 1e6,
		"runtime.cpu_s_per_kop":      cpu / n * 1000,
		"runtime.calib_drift":        math.Abs(calib-p.calib) / p.calib,
	}
}

// setupReps is how many times a run sets itself up; setup_s is the median,
// so one slow fsync or page-cache miss does not decide it.
const setupReps = 3

// medianSetup runs build setupReps times, discarding all but the last
// result, and returns the median wall time in seconds.
func medianSetup(build func() error, discard func()) (float64, error) {
	var secs []float64
	for rep := 0; rep < setupReps; rep++ {
		if rep > 0 {
			discard()
		}
		runtime.GC()
		var err error
		secs = append(secs, timeMS(func() { err = build() })/1000)
		if err != nil {
			return 0, err
		}
	}
	return median(secs), nil
}

// bySizeDesc returns the indexes of counts ordered from the largest count to
// the smallest (ties by index): the group-size order the scripts pick bars,
// bands and seed sets from.
func bySizeDesc(counts []int64) []int {
	order := make([]int, len(counts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return counts[order[a]] > counts[order[b]] })
	return order
}

// settleGoroutines waits briefly for goroutines that are already exiting
// (closed keep-alive connections, a drained flusher) and returns the count.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50 && n > want; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// environment is recorded in every output file so a number can be traced
// back to the machine and commit that produced it.
type environment struct {
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Size       string   `json:"size"`
	Unstable   []string `json:"unstable"`
}

func currentEnv(cfg config) environment {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Seed: cfg.seed, Seconds: cfg.seconds, Size: cfg.size, Unstable: []string{},
	}
}

// timeMS runs fn once and returns its wall time in milliseconds.
func timeMS(fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// medianMS runs fn reps times and returns the median wall time.
func medianMS(reps int, fn func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = timeMS(fn)
	}
	return median(xs)
}
