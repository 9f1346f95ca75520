package main

import (
	"fmt"

	"sita/internal/catalog"
	"sita/internal/core"
	"sita/internal/experiment"
)

// The five workloads, in the order a full run measures them.
var workloads = []string{"paper-sweep", "cells-direct", "cells-engine", "simd-hit", "simd-miss"}

// metricSpec names one metric as BENCHMARK.json lists it.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// workloadScoped marks a per-layer metric read from the workload's own
	// traced repetition; a workload that never reaches the layer reports 0.
	// The rest are timed once per traced run, by calling the layer directly.
	workloadScoped bool
	// moves names the end-to-end metrics and workloads a change in this
	// per-layer metric should move, as "metric@workload"; empty for the
	// metrics that describe the benchmark itself.
	moves []string
}

// endToEnd lists the metrics a user of the program sees. Every workload
// reports each of them, at reference speed (speed.go). An operation is one
// cold sweep (paper-sweep), one pass over every cell (cells-*), or one round
// of HTTP requests, one per catalog policy, each from send to its last body
// byte (simd-*). The tail,
// bench.op_p90_ms, repeats too poorly on a shared machine to be bounded, so
// it is a per-layer metric.
var endToEnd = []metricSpec{
	{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

// The simulation cells. Direct cells are oblivious policies that server.Run
// routes to the direct recurrence; engine cells need the event heap
// (state-reading policies, processor sharing, TAGS).
var (
	directCells = []string{"random-h2", "round-robin-h2", "sita-u-fair-h2", "random-h32", "sita-e-full-h32"}
	engineCells = []string{"lwl-h2", "lwl-h128", "shortest-queue-h32", "central-queue-h32",
		"sita-u-fair-grouped-h8", "ps-sita-u-fair-h2", "tags-h2"}
)

// designProbes are the core.NewDesign calls the probe child times.
var designProbes = []struct {
	name    string
	variant core.Variant
	hosts   int
}{
	{"sita-e-h2", core.SITAE, 2},
	{"sita-u-opt-h2", core.SITAUOpt, 2},
	{"sita-u-fair-h2", core.SITAUFair, 2},
	{"sita-u-fair-h8", core.SITAUFair, 8},
}

// promCounters maps simd's Prometheus counters to per-layer metric names.
var promCounters = map[string]string{
	"simd_simulations_total":           "service.simulations",
	"simd_cache_hits_total":            "service.cache_hits",
	"simd_cache_misses_total":          "service.cache_misses",
	"simd_cache_joins_total":           "service.cache_joins",
	"simd_rejected_total":              "service.rejected",
	"simd_deadline_total":              "service.deadline",
	"simd_streamcache_evictions_total": "service.streamcache_evictions",
	"simd_engine_allocs_total":         "service.engine_allocs",
}

// perLayer lists the per-layer metrics of a traced run, layer by layer,
// each with the end-to-end metrics it should move.
func perLayer() []metricSpec {
	var out []metricSpec
	var moves []string
	add := func(unit, better string, scoped bool, names ...string) {
		for _, n := range names {
			out = append(out, metricSpec{Name: n, Unit: unit, Better: better, workloadScoped: scoped, moves: moves})
		}
	}
	sweep := "op_p50_ms@paper-sweep"
	miss := []string{"op_p50_ms@simd-miss"}

	moves = []string{sweep}
	for _, id := range experiment.IDs() {
		add("ms", "lower", false, "experiment."+id+"_ms")
	}
	add("ms", "lower", false, "experiment.render_ms")

	// Cutoff search and trace generation run in the sweep, in every miss
	// and in the cells' set-up, never in their passes.
	moves = append([]string{sweep, "setup_s@cells-direct", "setup_s@cells-engine"}, miss...)
	for _, h := range []int{4, 6, 8} {
		add("ms", "lower", false, fmt.Sprintf("queueing.optimal_cutoffs_ms.h%d", h))
	}
	for _, d := range designProbes {
		add("ms", "lower", false, "core.design_ms."+d.name)
	}
	add("ns/job", "lower", false, "trace.generate_ns_per_job")

	moves = append([]string{sweep}, miss...)
	add("ns/job", "lower", false, "streamcache.generate_ns_per_job")
	add("ns", "lower", false, "streamcache.hit_ns")
	add("count", "lower", true, "streamcache.generations", "streamcache.misses", "streamcache.evictions")
	add("count", "higher", true, "streamcache.hits")

	for _, c := range directCells {
		moves = []string{"op_p50_ms@cells-direct"}
		add("ns/job", "lower", false, "server.ns_per_job."+c)
		add("count", "lower", false, "server.allocs_per_run."+c)
	}
	for _, c := range engineCells {
		layer := "server"
		if c == "tags-h2" {
			layer = "tags"
		}
		moves = []string{"op_p50_ms@cells-engine", sweep}
		add("ns/job", "lower", false, layer+".ns_per_job."+c)
		add("count", "lower", false, layer+".allocs_per_run."+c)
	}
	moves = []string{"op_p50_ms@cells-direct", "op_p50_ms@cells-engine"}
	add("count", "higher", true, "server.direct_cells")
	moves = []string{"op_p50_ms@cells-engine", "op_p50_ms@simd-miss"}
	add("count", "lower", true, "sim.pool_acquires", "sim.pool_news")

	moves = []string{"op_p50_ms@simd-hit"}
	add("ns", "lower", false, "service.cache_hit_ns")
	add("us", "lower", false, "service.encode_us")
	moves = miss
	add("ms", "lower", false, "workload.load_ms")
	for _, p := range catalog.PolicyNames() {
		add("ms", "lower", false, "catalog.build_ms."+p)
	}
	moves = []string{"op_p50_ms@simd-hit", "op_p50_ms@simd-miss"}
	for _, prom := range sortedKeys(promCounters) {
		better := "lower"
		if prom == "simd_cache_hits_total" || prom == "simd_cache_joins_total" {
			better = "higher"
		}
		add("count", better, true, promCounters[prom])
	}

	moves = []string{"op_p50_ms@paper-sweep", "op_p50_ms@cells-engine", "op_p50_ms@simd-miss"}
	add("MiB", "lower", true, "go.peak_rss_mb", "go.alloc_mb")
	add("count", "lower", true, "go.gc_cycles")

	moves = nil
	add("ms", "lower", true, "loadgen.lag_p99_ms")
	add("req/s", "higher", true, "loadgen.slo_rps")
	add("ms", "lower", true, "bench.op_p90_ms")
	add("%", "lower", true, "bench.tracing_overhead_pct")
	// Every run measures these beside the end-to-end metrics: wall time as
	// it was, and the reference task's time that scales it (speed.go).
	add("ms", "lower", false, "bench.wall_op_p50_ms")
	add("s", "lower", false, "bench.wall_setup_s")
	add("ms", "lower", false, "bench.ref_ms")
	return out
}
