// Package loadgen drives a fleet (internal/fleet) with calibrated
// load and measures it, the way the milvus-benchmark and ReqBench
// style harnesses measure a serving system:
//
//   - Open loop: requests arrive on a model-timestamped schedule drawn
//     from internal/modeltime — homogeneous Poisson at a target QPS, a
//     diurnal rate curve with the same total arrivals, or per-user
//     renewal processes weighted by workload class — replayed against
//     the fleet regardless of how fast it keeps up: overload shows up
//     as queue sheds and wall-latency inflation, never as a silently
//     slowed-down generator.
//   - Closed loop: K concurrent simulated users each replay their own
//     workload stream (internal/workload cursor) and wait for each
//     response before issuing the next query, reusing the replay
//     harness's per-user outcome accounting so fleet hit rates are
//     directly comparable with the paper's Figure 17 numbers. With a
//     Pacer configured the user also "thinks" for their modeled
//     response time (wall-compressed), which changes concurrency and
//     wall timing but — by construction — no per-user outcome.
//
// Both record per-request latency into log-bucketed histograms — the
// measured wall latency including queue wait, and the modeled
// on-device response time, which is deterministic given the workload
// seed — plus throughput, hit-, miss- and shed-rates, emitted as a
// machine-readable Report.
//
// Reports also account modeled energy: total and per-query joules
// (device base power plus radio), radio-only joules per cloud miss,
// and — when the fleet coalesces misses (fleet.BatchOptions) — the
// batched-session counters (batches, batched misses, radio wake-ups,
// batch-size histogram) needed to quantify how much session overhead
// batching amortized. Serving counters (served/shed/errors and the
// per-tier hit counts) are taken from before/after deltas of the
// fleet's own Stats, so they are authoritative even if the collector
// observes only part of the traffic; the latency histograms and energy
// sums require the collector to be installed as the fleet's Observer,
// and the runners refuse to start when no observer is wired at all.
package loadgen
