package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// spec is BENCHMARK.json: the contract between this driver, the code
// that claims gains against it, and the harness that runs it. The driver
// reads it for the regression bounds (-compare) and the tests assert
// that every name the driver emits is listed there.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(repo string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(repo, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// metricDef names one metric the driver emits, with its unit.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are measured over HTTP with tracing off, one value per
// workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics come from the traced in-process run; the prefix is the
// module (internal/<layer>) whose public functions the spans wrap.
var perLayerMetrics = []metricDef{
	{"snapshot.build_ms", "ms"},
	{"snapshot.open_ms", "ms"},
	{"snapshot.bytes_per_poi", "B"},
	{"grid.build_ms", "ms"},
	{"core.index_build_ms", "ms"},
	{"core.plan_build_ms", "ms"},
	{"core.soi_p50_us", "us"},
	{"core.soi_p95_us", "us"},
	{"core.filter_share", "ratio"},
	{"core.refine_share", "ratio"},
	{"core.cells_popped_per_query", "count"},
	{"core.segments_seen_ratio", "ratio"},
	{"core.mass_cache_hit_ratio", "ratio"},
	{"core.allocs_per_query", "count"},
	{"core.bytes_per_query", "B"},
	{"engine.do_hit_p50_us", "us"},
	{"engine.do_miss_overhead_us", "us"},
	{"engine.result_cache_hit_ratio", "ratio"},
	{"server.streets_overhead_us", "us"},
	{"server.resp_bytes_p50", "B"},
	{"server.describe_p50_ms", "ms"},
	{"server.routes_p50_ms", "ms"},
	{"server.trajsoi_p50_ms", "ms"},
	{"diversify.photo_index_build_ms", "ms"},
	{"diversify.summary_p50_us", "us"},
	{"diversify.cells_pruned_ratio", "ratio"},
	{"traj.graph_build_ms", "ms"},
	{"traj.matcher_build_ms", "ms"},
	{"traj.routes_p50_us", "us"},
	{"traj.routes_p95_us", "us"},
	{"traj.interest_fold_share", "ratio"},
	{"traj.expansions_per_query", "count"},
	{"traj.pruned_ratio", "ratio"},
	{"traj.routes_allocs_per_query", "count"},
	{"traj.trajsoi_p50_us", "us"},
	{"traj.matched_ratio", "ratio"},
	{"ingest.add_batch_us", "us"},
	{"ingest.publish_p50_ms", "ms"},
	{"ingest.compact_ms", "ms"},
	{"ingest.epochs_live_peak", "count"},
	{"shard.partition_ms", "ms"},
	{"shard.topk_p50_us", "us"},
	{"shard.evaluated_ratio", "ratio"},
	{"shard.allocs_per_query", "count"},
	{"shard.inproc_vs_single_ratio", "ratio"},
	{"remote.topk_p50_us", "us"},
	{"remote.hop_p50_us", "us"},
	{"remote.serve_p50_us", "us"},
	{"remote.wire_p50_us", "us"},
	{"remote.bytes_per_hop", "B"},
	{"remote.attempts_per_call", "ratio"},
	{"remote.hedges_per_call", "ratio"},
	{"remote.vs_single_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// metricValue is one reported number; the JSON form is the contract's.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the single JSON object a workload run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult pairs measured values with the units of defs and refuses a
// value the driver forgot to produce, so a missing metric fails the run
// instead of silently shrinking the report.
func newResult(defs []metricDef, values map[string]float64, attempted, failed int) (result, error) {
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return r, nil
}
