package main

import (
	"fmt"
	"io"
	"math"
)

// metricDef names one reported metric and its unit. The lists below
// are the benchmark's catalogue; BENCHMARK.json declares the same
// names (checked by TestCatalogueMatchesBenchmarkJSON), and README.md
// gives each one's definition per workload.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"grid_wall_s", "s"},
	{"sim_minst_per_s", "Minst/s"},
	{"job_cold_p50_ms", "ms"},
	{"job_cold_p90_ms", "ms"},
	{"job_warm_p50_ms", "ms"},
	{"job_warm_p90_ms", "ms"},
	{"explore_p50_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
}

// serveKinds suffix the serve.* per-layer latencies.
var serveKinds = []string{"cold", "warm"}

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"funcsim.build_ms", "ms"},
		{"funcsim.muops_per_s", "Muops/s"},
		{"tracecache.misses", "count"},
		{"tracecache.hits", "count"},
		{"tracecache.uops", "count"},
		{"pipeline.cell_ms_p50", "ms"},
		{"pipeline.cell_ms_max", "ms"},
		{"pipeline.host_ns_per_cycle", "ns"},
		{"pipeline.host_ns_per_inst", "ns"},
		{"pipeline.sim_cycles", "count"},
		{"pipeline.sim_insts", "count"},
		{"grid.worker_busy_share", "share"},
		{"grid.tail_ms", "ms"},
	}
	for _, span := range []string{"submit", "wait", "results", "queue", "coalesce", "cache", "simulate", "total", "transport"} {
		for _, k := range serveKinds {
			defs = append(defs, metricDef{"serve." + span + "_ms_p50." + k, "ms"})
		}
	}
	for _, k := range serveKinds {
		defs = append(defs, metricDef{"serve.unaccounted_share." + k, "share"})
	}
	defs = append(defs,
		metricDef{"serve.sims", "count"},
		metricDef{"serve.cache_hits", "count"},
		metricDef{"serve.coalesced", "count"},
		metricDef{"serve.rejected", "count"},
		metricDef{"serve.cache_hit_ratio", "share"},
		metricDef{"serve.cache_hit_ratio_base", "count"},
		metricDef{"explore.prefilter_ms", "ms"},
		metricDef{"explore.evaluate_ms", "ms"},
		metricDef{"explore.frontier_ms", "ms"},
		metricDef{"explore.points_evaluated", "count"},
		metricDef{"explore.points_pruned", "count"},
		metricDef{"explore.frontier_size", "count"},
		metricDef{"trace.overhead_share", "share"},
	)
	return defs
}()

// metricValue is one reported figure in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's figures by name.
type report map[string]float64

// emit returns the result-line metrics for the given catalogue: every
// name present, a layer the workload does not exercise reading 0.
func (r report) emit(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := r[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out
}

// print writes the human-readable table of the given catalogue.
func (r report) print(w io.Writer, defs []metricDef, notes map[string]string) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.4f %-8s %s\n", d.Name, r[d.Name], d.Unit, notes[d.Name])
	}
}
