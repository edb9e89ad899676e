package main

import (
	"math"
	"sort"
)

// metricDef is one row of the benchmark's metric tables. The same
// tables are written out as BENCHMARK.json (the smoke test holds the
// two in step), so the program is the single source of names, units
// and bounds.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the base median an end-to-end metric may
	// worsen by before -compare calls it a regression. Per-layer
	// metrics carry none.
	Bound float64
}

// endToEnd are the metrics a user of the simulator sees, reported by
// the timed pass (tracing off) of every workload. Each is a median over
// the run's units (passes or repetitions); setup_s over the repeated
// set-ups.
//
// The bounds are sized to the machine class the benchmark is gated on,
// not to the code: a 2-vCPU sandbox whose host speed drifts by 10-20%
// over tens of seconds (ten runs of one commit spread by up to 19% on
// throughput), and seed-to-seed differences of a few percent in bytes
// per user. On a quiet machine the same metrics repeat to 2-3%.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "req/s", "higher", 0.25},
	{"heap_live_bytes_per_user", "B", "lower", 0.15},
}

// perLayer are the traced pass's metrics. Host times are measured on
// every workload (a layer a workload never enters on its own is
// replayed directly over that workload's tape); model counts and
// ratios may legitimately read zero where a mechanism is off.
// Simulated quantities carry a model_ unit so they are never mistaken
// for host time.
var perLayer = []metricDef{
	// Set-up stages: move setup_s on every workload.
	{"workload.stream_us_per_user", "us", "lower", 0},
	{"cachegen.content_build_s", "s", "lower", 0},
	{"fleet.new_s", "s", "lower", 0},
	{"scenario.compile_ms", "ms", "lower", 0},
	// Open-loop driver libraries: move throughput_rps on day_replay only.
	{"modeltime.schedule_ns_per_arrival", "ns", "lower", 0},
	{"loadgen.materialize_ns_per_event", "ns", "lower", 0},
	{"autoscale.step_ns", "ns", "lower", 0},
	// Routing.
	{"placement.modulo_shardof_ns", "ns", "lower", 0},
	{"placement.ring_shardof_ns", "ns", "lower", 0},
	// Fleet: queue hop, round trip, serve time by outcome, control plane.
	{"fleet.submit_ns", "ns", "lower", 0},
	{"fleet.do_rtt_p50_us", "us", "lower", 0},
	{"fleet.do_rtt_p99_us", "us", "lower", 0},
	{"fleet.serve_us_hit", "us", "lower", 0},
	{"fleet.serve_us_miss", "us", "lower", 0},
	{"fleet.drain_ms_total", "ms", "lower", 0},
	{"fleet.drain_calls", "count", "lower", 0},
	{"fleet.resize_ms_total", "ms", "lower", 0},
	{"fleet.resize_us_per_moved_user", "us", "lower", 0},
	// The cache a request lands in.
	{"pocketsearch.query_hit_ns", "ns", "lower", 0},
	{"pocketsearch.query_miss_ns", "ns", "lower", 0},
	{"pocketsearch.query_miss_allocs", "allocs", "lower", 0},
	{"hashtable.lookup_ns", "ns", "lower", 0},
	{"hashtable.put_ns", "ns", "lower", 0},
	{"resultdb.get_ns", "ns", "lower", 0},
	{"resultdb.put_ns", "ns", "lower", 0},
	// The miss path.
	{"engine.search_ns", "ns", "lower", 0},
	{"engine.search_allocs", "allocs", "lower", 0},
	{"faults.plan_miss_ns", "ns", "lower", 0},
	{"faults.plan_hedged_ns", "ns", "lower", 0},
	{"faults.plan_hedged_allocs", "allocs", "lower", 0},
	{"backend.price_ns_inorder", "ns", "lower", 0},
	{"backend.price_ns_outoforder", "ns", "lower", 0},
	{"radio.exchange_cost_ns", "ns", "lower", 0},
	{"device.network_request_ns", "ns", "lower", 0},
	// Per-response bookkeeping.
	{"energy.counter_add_ns", "ns", "lower", 0},
	{"loadgen.observe_ns", "ns", "lower", 0},
	// The open-loop driver under pacing: due-based latency.
	{"driver.sched_lag_max_ms", "ms", "lower", 0},
	{"driver.due_p50_us", "us", "lower", 0},
	{"driver.due_p99_us", "us", "lower", 0},
	{"driver.slo_miss_frac_10ms", "ratio", "lower", 0},
	{"driver.failed_frac", "ratio", "lower", 0},
	// Process context for every row above.
	{"runtime.cpu_us_per_req", "us", "lower", 0},
	{"runtime.allocs_per_req", "allocs", "lower", 0},
	{"runtime.alloc_bytes_per_req", "B", "lower", 0},
	{"runtime.gc_cpu_frac", "ratio", "lower", 0},
	{"runtime.gc_pause_p99_us", "us", "lower", 0},
	{"runtime.heap_live_mb", "MB", "lower", 0},
	{"runtime.attributed_frac", "ratio", "higher", 0},
	{"runtime.faults_backend_frac", "ratio", "lower", 0},
	{"runtime.trace_overhead_frac", "ratio", "lower", 0},
	// Model outputs: must not move under any host-speed change.
	{"fleet.personal_hits", "count", "higher", 0},
	{"fleet.community_hits", "count", "higher", 0},
	{"fleet.cloud_misses", "count", "lower", 0},
	{"fleet.degraded", "count", "lower", 0},
	{"fleet.unavailable", "count", "lower", 0},
	{"faults.retries", "count", "lower", 0},
	{"faults.clones_launched", "count", "lower", 0},
	{"faults.wasted_attempts", "count", "lower", 0},
	{"backend.rejected", "count", "lower", 0},
	{"backend.utilization", "ratio", "lower", 0},
	{"fleet.resizes", "count", "lower", 0},
	{"fleet.migrated_users", "count", "lower", 0},
	{"autoscale.actions", "count", "lower", 0},
	{"energy.per_answered_j", "model_J", "lower", 0},
	{"model.latency_p50_ms", "model_ms", "lower", 0},
	{"model.latency_p99_ms", "model_ms", "lower", 0},
}

// measurement is one reported metric: the median of its raw samples
// with the quartiles beside it.
type measurement struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Q1    float64   `json:"q1"`
	Q3    float64   `json:"q3"`
	Raw   []float64 `json:"raw,omitempty"`
}

// summarize reduces raw samples to their median and quartiles.
func summarize(unit string, raw []float64) measurement {
	q1, med, q3 := quartiles(raw)
	return measurement{Value: med, Unit: unit, Q1: q1, Q3: q3, Raw: raw}
}

// single wraps one directly measured value.
func single(unit string, v float64) measurement {
	return measurement{Value: v, Unit: unit, Q1: v, Q3: v}
}

// spread is the inter-quartile distance as a share of the median — the
// steadiness figure the benchmark contract bounds.
func (m measurement) spread() float64 {
	if m.Value == 0 {
		return 0
	}
	return math.Abs(m.Q3-m.Q1) / math.Abs(m.Value)
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(values, n=4) (the exclusive method), so spreads
// computed here match the ones the benchmark contract is judged by.
// Fewer than two samples have no spread: all three are the sample.
func quartiles(values []float64) (q1, q2, q3 float64) {
	n := len(values)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return values[0], values[0], values[0]
	}
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
