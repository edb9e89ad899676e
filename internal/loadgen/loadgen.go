// Package loadgen drives a fleet (internal/fleet) with calibrated load
// and measures it, the way the milvus-benchmark and ReqBench style
// harnesses measure a serving system.
//
// Every run — RunOpen, RunTrace, RunClosed — goes through one measured
// skeleton (measure, drive.go): capture the fleet's counters, arm the
// optional wall-timer resize, drive, settle the resize, and fill the
// Report (report.go). Serving counters (served/shed/errors, per-tier
// hits, batching, migration, the energy ledger) are before/after deltas
// of the fleet's own Stats, so they are authoritative however the
// observer is wired; the wall- and model-latency histograms and the
// per-class rows come from the Collector (collector.go), which must be
// installed as the fleet's Observer — a run refuses to start without
// one. The runs differ only in the drive:
//
//   - Open loop: a tape of model-timestamped requests — drawn per client
//     class from internal/modeltime (Poisson, a diurnal curve with the
//     same total, or per-user renewal processes weighted by workload
//     class) and merged by arrival time, or read from a recorded trace —
//     is released on its offsets regardless of how fast the fleet keeps
//     up: overload shows up as queue sheds and wall-latency inflation,
//     never as a silently slowed-down generator. Replay owns the
//     model-time control plane that runs between arrivals (scheduled
//     resizes, autoscaler samples), exported so a driver outside this
//     package steps the same control sequence.
//   - Closed loop: K concurrent simulated users each replay their own
//     workload stream and wait for each response before the next query,
//     with the replay harness's per-user accounting, so fleet hit rates
//     are directly comparable with the paper's Figure 17. A class's Pacer
//     adds wall-compressed think time, which changes concurrency and
//     wall timing but — by construction — no per-user outcome.
//
// A config describes its clients as one list of classes; a
// single-process run is a list of one, and an empty list is one
// untagged class over everyone.
package loadgen
