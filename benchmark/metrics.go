package main

import (
	"encoding/json"
	"sort"
)

// metricDef is one declared metric, in the shape BENCHMARK.json lists it.
// Bound is only written for end-to-end metrics.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
}

type workloadDef struct{ Name, Why string }

// runSeconds is the timed window the driver passes as --seconds; the
// committed BENCHMARK.json carries the same number.
const runSeconds = 12

// workloads are the five closed-loop workloads. Later issues refer to them
// by these names.
var workloads = []workloadDef{
	{"xfilter-http", "capture-once/trace-per-brush crossfilter sessions over HTTP: small traces, so server, serverclient, sql and plan do most of the work; fits the retention budget"},
	{"xfilter-churn", "same script on a disk store with a 1.5-session memory budget and no cache: every retention demotes, traces meet views, promotions and the lazy tier while the flusher writes"},
	{"xfilter-shard2", "same script through the 2-shard scatter/gather coordinator: each metric's ratio to xfilter-http is the coordinator tax"},
	{"capture-olap", "in-process TPC-H Q1/Q3/Q10/Q12 and two group-bys cycling none/inject/inject+compress: exec, ops and lineage capture+encode do the work, server and sql none"},
	{"trace-sweep", "in-process seeded trace script cycling raw/compressed/lazy captures of a skewed and a dense group-by: the lineage read side, where an encoding or lazy-path change shows"},
}

// endToEnd are the metrics a user of the system would see. Every workload
// reports every one of them (README.md says what each means per workload).
// Bounds come from ten-seed calibration runs on the 2-core sandbox; README.md
// ("Bounds") has the spreads they were set from.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"base_p50_ms", "ms", "lower", 0.25},
	{"base_p95_ms", "ms", "lower", 0.25},
	{"trace_p50_ms", "ms", "lower", 0.25},
	{"trace_p95_ms", "ms", "lower", 0.25},
	{"capture_overhead_ratio", "x", "lower", 0.25},
	{"trace_vs_rerun_ratio", "x", "lower", 0.25},
	{"encoded_vs_raw_ratio", "x", "lower", 0.20},
	{"within_budget_frac", "frac", "higher", 0.02},
	{"lineage_bytes_per_rid", "B", "lower", 0.02},
	{"peak_rss_mb", "MiB", "lower", 0.20},
}

// perLayer are the single-layer metrics of the traced run. Layers are this
// repository's packages; README.md records which end-to-end metric each one
// should move and on which workload.
var perLayer = []metricDef{
	{"serverclient.overhead_ms", "ms", "lower", 0},
	{"serverclient.req_bytes_per_op", "B", "lower", 0},
	{"serverclient.resp_bytes_per_op", "B", "lower", 0},

	{"server.handler_base_ms", "ms", "lower", 0},
	{"server.handler_trace_ms", "ms", "lower", 0},
	{"server.self_base_ms", "ms", "lower", 0},
	{"server.self_trace_ms", "ms", "lower", 0},
	{"server.session_create_ms", "ms", "lower", 0},
	{"server.session_close_ms", "ms", "lower", 0},
	{"server.ingest_ms", "ms", "lower", 0},
	{"server.cache_hit_rate", "frac", "higher", 0},
	{"server.contention_ms", "ms", "lower", 0},
	{"server.rejected_429", "count", "lower", 0},
	{"server.retained_bytes_per_session", "B", "lower", 0},

	{"server.demotes", "count", "lower", 0},
	{"server.promotes", "count", "lower", 0},
	{"server.views", "count", "higher", 0},
	{"server.insitu_traces", "count", "higher", 0},
	{"server.insitu_share", "frac", "higher", 0},
	{"server.lazy_fallbacks", "count", "lower", 0},
	{"server.write_behind", "count", "higher", 0},
	{"server.flusher_queue_depth_max", "count", "lower", 0},
	{"server.flush_errors", "count", "lower", 0},

	{"sql.parse_ms", "ms", "lower", 0},
	{"sql.lower_ms", "ms", "lower", 0},

	{"plan.optimize_ms", "ms", "lower", 0},
	{"plan.fingerprint_ms", "ms", "lower", 0},
	{"plan.rules_fired", "count", "lower", 0},

	{"core.run_ms", "ms", "lower", 0},
	{"core.trace_eager_ms", "ms", "lower", 0},
	{"core.trace_lazy_ms", "ms", "lower", 0},
	{"core.consume_ms", "ms", "lower", 0},
	{"core.restore_view_ms", "ms", "lower", 0},
	{"core.restore_result_ms", "ms", "lower", 0},
	{"core.result_mem_bytes", "B", "lower", 0},

	{"exec.run_none_ms", "ms", "lower", 0},
	{"exec.run_inject_ms", "ms", "lower", 0},
	{"exec.run_compress_ms", "ms", "lower", 0},
	{"exec.capture_self_ms", "ms", "lower", 0},
	{"exec.tpch_q1_none_ms", "ms", "lower", 0},
	{"exec.tpch_q1_inject_ms", "ms", "lower", 0},
	{"exec.tpch_q3_none_ms", "ms", "lower", 0},
	{"exec.tpch_q3_inject_ms", "ms", "lower", 0},
	{"exec.tpch_q10_none_ms", "ms", "lower", 0},
	{"exec.tpch_q10_inject_ms", "ms", "lower", 0},
	{"exec.tpch_q12_none_ms", "ms", "lower", 0},
	{"exec.tpch_q12_inject_ms", "ms", "lower", 0},
	{"exec.trace_rids_ms", "ms", "lower", 0},
	{"exec.rows_per_s", "1/s", "higher", 0},

	{"ops.select_none_ms", "ms", "lower", 0},
	{"ops.select_inject_ms", "ms", "lower", 0},
	{"ops.hashagg_none_ms", "ms", "lower", 0},
	{"ops.hashagg_inject_ms", "ms", "lower", 0},
	{"ops.hashagg_defer_ms", "ms", "lower", 0},
	{"ops.joinpkfk_none_ms", "ms", "lower", 0},
	{"ops.joinpkfk_inject_ms", "ms", "lower", 0},

	{"lineage.encode_ms", "ms", "lower", 0},
	{"lineage.raw_bytes", "B", "lower", 0},
	{"lineage.encoded_bytes", "B", "lower", 0},
	{"lineage.edges", "count", "lower", 0},
	{"lineage.backward_raw_ms", "ms", "lower", 0},
	{"lineage.backward_insitu_ms", "ms", "lower", 0},
	{"lineage.backward_decode_ms", "ms", "lower", 0},
	{"lineage.forward_raw_ms", "ms", "lower", 0},
	{"lineage.forward_encoded_ms", "ms", "lower", 0},
	{"lineage.traced_rids_per_s", "1/s", "higher", 0},

	{"pool.speedup_w2_none", "x", "higher", 0},
	{"pool.speedup_w2_inject", "x", "higher", 0},

	{"diskstore.put_result_ms", "ms", "lower", 0},
	{"diskstore.publish_ms", "ms", "lower", 0},
	{"diskstore.load_result_ms", "ms", "lower", 0},
	{"diskstore.put_table_ms", "ms", "lower", 0},
	{"diskstore.segment_bytes", "B", "lower", 0},
	{"diskstore.write_amp", "x", "lower", 0},

	{"shard.handler_base_ms", "ms", "lower", 0},
	{"shard.handler_trace_ms", "ms", "lower", 0},
	{"shard.overhead_base_ratio", "x", "lower", 0},
	{"shard.overhead_trace_ratio", "x", "lower", 0},
	{"shard.calls_per_request", "count", "lower", 0},
	{"shard.scatters", "count", "lower", 0},
	{"shard.proxied", "count", "higher", 0},
	{"shard.merged_traces", "count", "lower", 0},
	{"shard.shard_errors", "count", "lower", 0},
	{"shard.ingest_ms", "ms", "lower", 0},

	{"runtime.alloc_bytes_per_op", "B", "lower", 0},
	{"runtime.mallocs_per_op", "count", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.cpu_s_per_kop", "s", "lower", 0},
	{"runtime.goroutines_leaked", "count", "lower", 0},
	{"runtime.calib_drift", "frac", "lower", 0},

	{"trace.overhead_frac", "frac", "lower", 0},
	{"trace.coverage_frac", "frac", "higher", 0},
}

// manifestJSON renders BENCHMARK.json from the tables above, so the
// committed file and the names the runner emits cannot drift apart
// (benchmark_test.go compares the two).
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type pl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []pl     `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl(w))
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e(d))
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, pl{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // a literal struct of strings and numbers always marshals
	}
	return append(out, '\n')
}

// sortedKeys returns m's keys in order, for stable reports.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
