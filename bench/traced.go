package main

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"pocketcloudlets/internal/autoscale"
	"pocketcloudlets/internal/fleet"
	"pocketcloudlets/internal/loadgen"
)

// Traced-pass sizing. Units alternate traced and untraced so the two
// throughputs that give the tracing overhead see the same drift.
const (
	tracedUnitsPasses = 6
	tracedUnitsFresh  = 4
	// submitBurst is how many requests the submit probe enqueues between
	// drains: well under the default queue depth, so nothing is shed.
	submitBurst = 512
	// pacedQPS and pacedSLO shape the paced open-loop probe. The rate is
	// a fraction of what the slowest workload's fleet sustains, so the
	// probe reads stalls, not overload, and sheds nothing.
	pacedQPS = 5000
	pacedSLO = 10 * time.Millisecond
)

// procSample is a reading of the process's cumulative CPU time,
// allocation and collector cost.
type procSample struct {
	cpu          time.Duration
	allocs       allocSample
	gcCPU, total float64
}

var gcMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readProc() procSample {
	var ru syscall.Rusage
	// Getrusage on the calling process cannot fail with valid arguments.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	metrics.Read(gcMetrics)
	return procSample{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: readAllocs(),
		gcCPU:  gcMetrics[0].Value.Float64(),
		total:  gcMetrics[1].Value.Float64(),
	}
}

// add accumulates the delta between two readings.
func (p *procSample) add(from, to procSample) {
	p.cpu += to.cpu - from.cpu
	p.allocs.objects += to.allocs.objects - from.allocs.objects
	p.allocs.bytes += to.allocs.bytes - from.allocs.bytes
	p.gcCPU += to.gcCPU - from.gcCPU
	p.total += to.total - from.total
}

// gcPauseP99 is the 99th percentile of every stop-the-world collector
// pause the process has taken so far.
func gcPauseP99() time.Duration {
	// The name moved in Go 1.22; an unknown name reads as KindBad.
	s := []metrics.Sample{{Name: "/sched/pauses/total/gc:seconds"}, {Name: "/gc/pauses:seconds"}}
	metrics.Read(s)
	v := s[0].Value
	if v.Kind() != metrics.KindFloat64Histogram {
		v = s[1].Value
	}
	if v.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	h := v.Float64Histogram()
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank, seen := uint64(float64(total)*0.99), uint64(0)
	for i, c := range h.Counts {
		seen += c
		if seen > rank {
			return time.Duration(h.Buckets[i+1] * float64(time.Second))
		}
	}
	return 0
}

// runTraced is the traced pass: the span-recording observer wraps the
// product's collector, units alternate traced and untraced, the last
// fleet is probed (round trips, submits and drains, a paced open-loop
// replay, a live resize), and every layer is replayed directly over the
// workload's tape. It reports the per-layer metrics.
func runTraced(def *workloadDef, opts runOptions) (*runRecord, error) {
	rr := &runRecord{Workload: def.name, Seed: opts.seed, Seconds: opts.seconds, Traced: true}
	r, err := newRig(def, opts.seed, opts.scale, true)
	if err != nil {
		return nil, err
	}
	defer func() { r.close() }()
	tr := r.tr

	units := tracedUnitsFresh
	if def.kind == passes {
		units = tracedUnitsPasses
	}
	var (
		tracedRPS, plainRPS []float64
		plain               procSample
		plainRequests       int64
		model               digest
	)
	for i := 0; i < units; i++ {
		traced := i%2 == 0
		tr.on.Store(traced)
		if err := r.prepare(i); err != nil {
			return nil, err
		}
		done := func() {}
		if traced {
			tr.unitSpan, done = tr.open("unit")
		}
		before := readProc()
		s, err := r.unit(i)
		after := readProc()
		done()
		tr.unitSpan = -1
		if err != nil {
			return nil, err
		}
		rr.foldUnit(i, s)
		rps := float64(s.requests) / s.wall.Seconds()
		if traced {
			tracedRPS = append(tracedRPS, rps)
		} else {
			plainRPS = append(plainRPS, rps)
			plain.add(before, after)
			plainRequests += s.requests
		}
		if s.digest != nil {
			model = s.digest
		}
	}
	// Read before the probes: they serve more requests, and queue theirs
	// on purpose.
	st := r.f.Stats()
	heapMB := float64(liveHeap()) / (1 << 20)
	hit, miss := tr.serveMeans()
	lat := tr.modelLatency()

	// Probes on the last fleet, after the digest is settled.
	tr.on.Store(true)
	if def.kind == scenarioRuns {
		_, done := tr.open("probe.do")
		n, failed := r.replay()
		done()
		rr.Attempted, rr.Failed = rr.Attempted+n, rr.Failed+failed
	}
	submitNS, n, failed := r.submitProbe()
	rr.Attempted, rr.Failed = rr.Attempted+n, rr.Failed+failed
	paced, err := r.pacedProbe(opts.seconds)
	if err != nil {
		return nil, err
	}
	if err := r.resizeProbe(); err != nil {
		return nil, err
	}
	tr.on.Store(false)

	layers, err := layerMetrics(r)
	if err != nil {
		return nil, err
	}

	m := make(map[string]float64)
	for name, v := range layers {
		m[name] = v
	}
	users := float64(r.spec.Users)
	m["workload.stream_us_per_user"] = float64(r.stages.tapes.Microseconds()) / users
	m["cachegen.content_build_s"] = r.stages.content.Seconds()
	m["fleet.new_s"] = r.stages.fleetNew.Seconds()
	m["scenario.compile_ms"] = float64(r.stages.compile.Nanoseconds()) / 1e6

	m["fleet.submit_ns"] = submitNS
	rtts := tr.spanDurations("fleet.Do")
	m["fleet.do_rtt_p50_us"] = percentile(rtts, 0.50) / 1e3
	m["fleet.do_rtt_p99_us"] = percentile(rtts, 0.99) / 1e3
	m["fleet.serve_us_hit"] = float64(hit.Nanoseconds()) / 1e3
	m["fleet.serve_us_miss"] = float64(miss.Nanoseconds()) / 1e3
	drainTotal, drainCalls := tr.callTotals("fleet.Drain")
	m["fleet.drain_ms_total"] = float64(drainTotal.Nanoseconds()) / 1e6
	m["fleet.drain_calls"] = float64(drainCalls)
	resizeTotal, _ := tr.callTotals("fleet.Resize")
	m["fleet.resize_ms_total"] = float64(resizeTotal.Nanoseconds()) / 1e6
	if tr.movedUsers > 0 {
		m["fleet.resize_us_per_moved_user"] = float64(resizeTotal.Nanoseconds()) / 1e3 / float64(tr.movedUsers)
	}

	m["driver.sched_lag_max_ms"] = float64(paced.maxLag.Nanoseconds()) / 1e6
	m["driver.due_p50_us"] = percentile(paced.due, 0.50) / 1e3
	m["driver.due_p99_us"] = percentile(paced.due, 0.99) / 1e3
	m["driver.slo_miss_frac_10ms"] = paced.sloMiss
	rr.Attempted += paced.requests
	rr.Failed += paced.failed
	m["driver.failed_frac"] = float64(rr.Failed) / float64(max(rr.Attempted, 1))

	reqs := float64(max(plainRequests, 1))
	cpuPerReq := float64(plain.cpu.Nanoseconds()) / reqs
	m["runtime.cpu_us_per_req"] = cpuPerReq / 1e3
	m["runtime.allocs_per_req"] = float64(plain.allocs.objects) / reqs
	m["runtime.alloc_bytes_per_req"] = float64(plain.allocs.bytes) / reqs
	if plain.total > 0 {
		m["runtime.gc_cpu_frac"] = plain.gcCPU / plain.total
	}
	m["runtime.gc_pause_p99_us"] = float64(gcPauseP99().Nanoseconds()) / 1e3
	m["runtime.heap_live_mb"] = heapMB
	_, tracedMed, _ := quartiles(tracedRPS)
	_, plainMed, _ := quartiles(plainRPS)
	if plainMed > 0 {
		m["runtime.trace_overhead_frac"] = 1 - tracedMed/plainMed
	}

	// Attribution: what the direct replays predict one average request
	// costs, over what the process actually spent on one.
	served := float64(max(model.get("fleet.served"), 1))
	hits := float64(model.get("fleet.personal_hits")+model.get("fleet.community_hits")) / served
	cloud := float64(model.get("fleet.cloud_misses")) / served
	stale := float64(model.get("fleet.degraded")+model.get("fleet.unavailable")) / served
	shardOf := m["placement.modulo_shardof_ns"]
	if r.f.PlacementName() == "ring" {
		shardOf = m["placement.ring_shardof_ns"]
	}
	perRequest := shardOf + 2*m["energy.counter_add_ns"] + m["loadgen.observe_ns"]
	var planNS float64
	missNS := m["pocketsearch.query_miss_ns"]
	if r.cfg.Faults.Enabled {
		// A replicated fleet's misses take the hedged planner (the one
		// faulted workload hedges every class).
		planNS = m["faults.plan_miss_ns"]
		if st.Replicas > 1 {
			planNS = m["faults.plan_hedged_ns"]
		}
		missNS = planNS + m["engine.search_ns"] + m["device.network_request_ns"]
	}
	explained := perRequest + hits*m["pocketsearch.query_hit_ns"] + cloud*missNS + stale*planNS
	if cpuPerReq > 0 {
		m["runtime.attributed_frac"] = explained / cpuPerReq
		m["runtime.faults_backend_frac"] = (cloud + stale) * planNS / cpuPerReq
	}

	for _, name := range []string{
		"fleet.personal_hits", "fleet.community_hits", "fleet.cloud_misses", "fleet.degraded",
		"fleet.unavailable", "faults.retries", "faults.clones_launched", "faults.wasted_attempts",
		"fleet.resizes", "fleet.migrated_users", "autoscale.actions",
	} {
		m[name] = float64(model.get(name))
	}
	var rejected, busy, horizon int64
	for rep := 0; rep < st.Replicas; rep++ {
		p := fmt.Sprintf("backend.%d.", rep)
		rejected += model.get(p + "rejected")
		busy += model.get(p + "busy_ns")
		horizon += model.get(p + "horizon_ns")
	}
	m["backend.rejected"] = float64(rejected)
	if horizon > 0 {
		m["backend.utilization"] = float64(busy) / float64(horizon)
	}
	energyNJ := model.get("energy.device_base_nj") + model.get("energy.radio_nj") +
		model.get("energy.shard_idle_nj") + model.get("energy.shard_active_nj")
	if answered := model.get("fleet.served") - model.get("fleet.unavailable"); answered > 0 {
		m["energy.per_answered_j"] = float64(energyNJ) / 1e9 / float64(answered)
	}
	m["model.latency_p50_ms"] = float64(lat.Quantile(0.50).Nanoseconds()) / 1e6
	m["model.latency_p99_ms"] = float64(lat.Quantile(0.99).Nanoseconds()) / 1e6

	rr.Metrics = make(map[string]measurement, len(perLayer))
	for _, d := range perLayer {
		rr.Metrics[d.Name] = single(d.Unit, m[d.Name])
	}
	if opts.spansPath != "" {
		if err := tr.writeSpans(opts.spansPath); err != nil {
			return nil, err
		}
	}
	if err := rr.checkDigest(opts); err != nil {
		return nil, err
	}
	rr.finish()
	return rr, nil
}

// percentile returns the q-quantile of nanosecond samples (nearest
// rank); zero when there are none.
func percentile(samples []int64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[min(int(q*float64(len(s))), len(s)-1)])
}

// demand sums the submissions the fleet has booked — served plus shed
// over live and retired shards — exactly as the product's replayer
// samples it for the autoscaler.
func demand(f *fleet.Fleet) int64 {
	rl := f.RetiredLoad()
	total := rl.Served + rl.Shed
	for _, sl := range f.ShardLoads() {
		total += sl.Served + sl.Shed
	}
	return total
}

// redrive is the traced form of a day_replay unit: the open-loop
// replay the product's driver performs, re-driven from the benchmark so
// that every call it makes — Materialize, Submit, Drain, the
// controller's Step, Resize — sits in its own span. It never sleeps
// (the spec is time-compressed, so the product's replayer never does
// either) and must leave the fleet in the same model state as Run.
func (r *rig) redrive() (actions []autoscale.Action, failed int64, err error) {
	tr := r.tr
	unit := tr.unitSpan
	var events []loadgen.TraceEvent
	tr.call("scenario.Materialize", unit, func() { events, err = r.comp.Materialize(r.sim.Generator) })
	if err != nil {
		return nil, 0, err
	}
	ac := r.comp.Open.Autoscale.WithDefaults(r.f.NumShards())
	if err := ac.Validate(); err != nil {
		return nil, 0, err
	}
	ctl := autoscale.New(ac)
	var (
		nextSample = ac.Interval
		lastDemand int64
		submitted  = make([]uint32, r.spec.Users)
		spans      []span
	)
	for _, ev := range events {
		for nextSample <= ev.At {
			tr.call("fleet.Drain", unit, r.f.Drain)
			d := demand(r.f)
			shards := r.f.NumShards()
			occ := ac.Occupancy(d-lastDemand, ac.Interval, shards)
			lastDemand = d
			var target int
			var resize bool
			tr.call("autoscale.Step", unit, func() { target, resize = ctl.Step(nextSample, occ, shards) })
			if resize {
				if err := r.tracedResize(target, unit); err != nil {
					return nil, 0, err
				}
			}
			nextSample += ac.Interval
		}
		req := fleet.Request{User: ev.User, Query: ev.Query, Click: ev.Click, Class: ev.Class}
		seq := submitted[ev.User]
		submitted[ev.User]++
		if seq%sampleEvery == 0 {
			t0 := time.Now()
			ok := r.f.Submit(req)
			spans = append(spans, span{
				Name: "fleet.Submit", Start: tr.rel(t0), End: tr.rel(time.Now()),
				Parent: unit, Req: requestID(ev.User, seq),
			})
			if !ok {
				failed++
			}
			continue
		}
		if !r.f.Submit(req) {
			failed++
		}
	}
	tr.call("fleet.Drain", unit, r.f.Drain)
	tr.addRequestSpans(spans)
	st := r.f.Stats()
	return ctl.Actions(), failed + st.Errors + st.Canceled, nil
}

// tracedResize is one live resize inside a span, its moved users booked
// for the per-moved-user cost.
func (r *rig) tracedResize(n int, parent int32) error {
	var (
		rs  fleet.ResizeStats
		err error
	)
	r.tr.call("fleet.Resize", parent, func() { rs, err = r.f.Resize(n) })
	r.tr.movedUsers += rs.MovedUsers
	return err
}

// submitProbe replays the tape open-loop and unpaced through Submit, in
// bursts small enough that the queues never fill, draining after each
// (in a span). It returns the mean cost of one Submit call.
func (r *rig) submitProbe() (nsPerSubmit float64, submitted, failed int64) {
	var (
		inSubmit time.Duration
		n        int
	)
	parent, done := r.tr.open("probe.submit")
	defer done()
	burst := make([]fleet.Request, 0, submitBurst)
	flush := func() {
		t0 := time.Now()
		for _, req := range burst {
			if !r.f.Submit(req) {
				failed++
			}
		}
		inSubmit += time.Since(t0)
		n += len(burst)
		burst = burst[:0]
		r.tr.call("fleet.Drain", parent, r.f.Drain)
	}
	for _, tape := range r.tapes {
		for _, req := range tape {
			if burst = append(burst, req); len(burst) == submitBurst {
				flush()
			}
		}
		if n >= max(layerOps/r.scale, submitBurst) {
			break
		}
	}
	flush()
	return perOp(inSubmit, n), int64(n), failed
}

// pacedResult is what the paced probe measured.
type pacedResult struct {
	requests, failed int64
	maxLag           time.Duration
	// due are latencies from each request's scheduled release to its
	// completion, in nanoseconds.
	due     []int64
	sloMiss float64
}

// pacedProbe replays requests open-loop at pacedQPS through the
// product's own paced driver and measures latency from when each
// request was due, which counts the wait a stall imposes on the
// requests behind it. Closed-loop workloads replay their tape round
// robin into the last fleet (loadgen.RunTrace); day_replay runs its own
// scenario — arrivals, autoscaler and all — slowed to the paced rate on
// a fresh fleet, so the drains and resizes land while requests are due.
func (r *rig) pacedProbe(seconds int) (pacedResult, error) {
	var res pacedResult
	horizon := time.Duration(min(max(seconds/4, 1), 3)) * time.Second / time.Duration(r.scale)
	qps := float64(pacedQPS)

	var events []loadgen.TraceEvent
	comp := *r.comp
	if r.def.kind == scenarioRuns {
		slow := qps / comp.Open.QPS
		stretch := float64(horizon) / float64(comp.Open.Duration)
		comp.Open.QPS, comp.Open.Duration = qps, horizon
		as := *comp.Open.Autoscale
		as.Interval = time.Duration(float64(as.Interval) * stretch)
		as.RatePerShard *= slow
		comp.Open.Autoscale = &as
		var err error
		if events, err = comp.Materialize(r.sim.Generator); err != nil {
			return res, err
		}
		if err := r.freshFleet(); err != nil {
			return res, err
		}
	} else {
		total := int(qps * horizon.Seconds())
		gap := time.Duration(float64(time.Second) / qps)
		for round := 0; len(events) < total; round++ {
			before := len(events)
			for _, tape := range r.tapes {
				if round < len(tape) && len(events) < total {
					req := tape[round]
					events = append(events, loadgen.TraceEvent{
						At: time.Duration(len(events)) * gap, User: req.User, Query: req.Query, Click: req.Click,
					})
				}
			}
			if len(events) == before {
				break
			}
		}
	}

	offsets := make([][]time.Duration, r.spec.Users)
	for _, ev := range events {
		offsets[ev.User] = append(offsets[ev.User], ev.At)
	}
	tr := r.tr
	tr.seedSequences(func(int) uint32 { return 0 })
	tr.dueOffsets = offsets
	var (
		rep loadgen.Report
		err error
	)
	tr.call("probe.paced", -1, func() {
		if r.def.kind == scenarioRuns {
			rep, err = comp.Run(r.f, r.col, r.sim.Generator)
		} else {
			rep, err = loadgen.RunTrace(r.f, r.col, events, loadgen.TraceConfig{
				Seed: r.seed, Users: r.spec.Users, Scenario: r.def.name, Horizon: horizon,
			})
		}
	})
	tr.dueOffsets = nil
	if err != nil {
		return res, err
	}
	res.requests = int64(rep.Requests)
	res.failed = int64(rep.Shed + rep.Errors + rep.Canceled)
	res.maxLag = time.Duration(rep.MaxScheduleLagNS)

	// Samples are completion − offset on the tracer's clock; the run's
	// own clock origin is where the fastest response would have had zero
	// latency.
	res.due = tr.takeDue()
	if len(res.due) > 0 {
		origin := res.due[0]
		for _, d := range res.due {
			origin = min(origin, d)
		}
		late := 0
		for i := range res.due {
			res.due[i] -= origin
			if res.due[i] > int64(pacedSLO) {
				late++
			}
		}
		res.sloMiss = float64(late+int(res.failed)) / float64(len(res.due)+int(res.failed))
	}
	return res, nil
}

// resizeProbe grows the last fleet by one shard and shrinks it back,
// each migration in a span: what a live resize costs over this
// workload's resident users.
func (r *rig) resizeProbe() error {
	n := r.f.NumShards()
	parent, done := r.tr.open("probe.resize")
	defer done()
	if err := r.tracedResize(n+1, parent); err != nil {
		return err
	}
	return r.tracedResize(n, parent)
}
