package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The two tables below are the
// single source of the names and units the benchmark prints; a test
// checks them against BENCHMARK.json.
type metricDef struct {
	Name string
	Unit string
	// On lists the workloads whose traced run measures a per-layer
	// metric; elsewhere it is reported as 0 and listed as not on the
	// workload's path. Empty means every workload.
	On []string
}

// endToEnd are the metrics of every untraced run, on every workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s"},
	{Name: "throughput_per_s", Unit: "1/s"},
	{Name: "short_p50_ms", Unit: "ms"},
	{Name: "short_tail_ms", Unit: "ms"},
	{Name: "long_p50_ms", Unit: "ms"},
	{Name: "rss_mb", Unit: "MiB"},
}

var (
	onFig8  = []string{"fig8_cold"}
	onServe = []string{"serve_warm"}
	onMC    = []string{"mc_1e6"}
	onHTTP  = []string{"serve_warm", "mc_1e6"}
	onSweep = []string{"fig8_cold", "serve_warm"}
)

// httpCalls are the vos.Remote calls the workloads make, by the name
// clientCall gives them.
var httpCalls = []string{
	"submit_sweep", "sweep_events", "sweep_status", "sweep_results",
	"submit_mc", "mc_events", "mc_status", "mc_results",
}

// httpRoutes are the node routes the workloads reach, by the name
// routeKey gives them.
var httpRoutes = []string{
	"POST_v1_sweeps", "GET_v1_sweeps_id", "GET_v1_sweeps_id_events", "GET_v1_sweeps_id_results",
	"POST_v1_mc", "GET_v1_mc_id", "GET_v1_mc_id_events", "GET_v1_mc_id_results",
}

// mcKernels are the apps Monte Carlo kernels the traced run times.
var mcKernels = []string{"fir", "blur", "sobel", "kmeans"}

// perLayer are the metrics of every traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{Name: "synth.prepare_ms", Unit: "ms", On: onFig8},
		{Name: "charz.run_triad_ms", Unit: "ms", On: onFig8},
		{Name: "charz.run_group_ms", Unit: "ms", On: onFig8},
		{Name: "charz.ns_per_pattern_point", Unit: "ns", On: onFig8},
		{Name: "engine.pool_efficiency", Unit: "ratio", On: onFig8},
		{Name: "engine.points_executed.long", Unit: "count", On: onSweep},
		{Name: "engine.points_executed.short", Unit: "count", On: onSweep},
		{Name: "engine.grouped_points.long", Unit: "count", On: onSweep},
		{Name: "engine.grouped_points.short", Unit: "count", On: onSweep},
		{Name: "engine.point_codec_us", Unit: "us", On: onSweep},
		{Name: "vos.local_results_ms", Unit: "ms", On: onFig8},
		{Name: "engine.cache_hit_ratio", Unit: "ratio", On: onServe},
		{Name: "vos.http_calls_per_op", Unit: "count", On: onHTTP},
	}
	for _, c := range httpCalls {
		defs = append(defs, metricDef{Name: "vos.http_client_ms." + c, Unit: "ms", On: onHTTP})
	}
	defs = append(defs, metricDef{Name: "vos.retries", Unit: "count", On: onHTTP})
	for _, r := range httpRoutes {
		defs = append(defs, metricDef{Name: "httpapi.handler_ms." + r, Unit: "ms", On: onHTTP})
	}
	defs = append(defs,
		metricDef{Name: "httpapi.wait_ms", Unit: "ms", On: onHTTP},
		metricDef{Name: "cluster.shard_rpcs_per_long_op", Unit: "count", On: onServe},
		metricDef{Name: "cluster.shard_rpc_ms", Unit: "ms", On: onServe},
		metricDef{Name: "cluster.peer_fills", Unit: "count", On: onServe},
		metricDef{Name: "cluster.breaker_open", Unit: "count", On: onServe},
		metricDef{Name: "cluster.not_ready_at_start", Unit: "count", On: onHTTP},
		metricDef{Name: "cluster.not_ready_probes", Unit: "count", On: onHTTP},
		metricDef{Name: "journal.appends_per_op", Unit: "count", On: onHTTP},
		metricDef{Name: "journal.bytes_per_op", Unit: "B", On: onHTTP},
		metricDef{Name: "model.calibrate_ms", Unit: "ms", On: onMC},
	)
	for _, k := range mcKernels {
		defs = append(defs, metricDef{Name: "apps.ns_per_sample." + k, Unit: "ns", On: onMC})
	}
	defs = append(defs,
		metricDef{Name: "engine.mc_reps_executed.long", Unit: "count", On: onMC},
		metricDef{Name: "engine.mc_reps_executed.short", Unit: "count", On: onMC},
		metricDef{Name: "runtime.alloc_kb_per_op.long", Unit: "KiB"},
		metricDef{Name: "runtime.alloc_kb_per_op.short", Unit: "KiB"},
		metricDef{Name: "runtime.gc_cpu_share", Unit: "ratio"},
	)
	for _, m := range endToEnd {
		defs = append(defs, metricDef{Name: "trace.overhead." + m.Name, Unit: m.Unit})
	}
	return defs
}

// applies reports whether a per-layer metric is measured on a workload.
func (m metricDef) applies(workload string) bool {
	if len(m.On) == 0 {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailSamples is how many samples must lie beyond the reported tail.
const tailSamples = 10

// tail returns the sample at the highest nearest-rank percentile that
// leaves at least tailSamples samples beyond it — the 11th-largest
// sample — together with that percentile. With too few samples for any
// percentile to qualify it returns the maximum, at percentile 100.
func tail(xs []float64) (value, percentile float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n <= tailSamples {
		return s[n-1], 100
	}
	k := n - tailSamples // 1-based rank of the tail sample
	return s[k-1], 100 * float64(k) / float64(n)
}

// mean returns the arithmetic mean of xs; 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// finite maps NaN and ±Inf to 0, so every printed value is a JSON number.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
