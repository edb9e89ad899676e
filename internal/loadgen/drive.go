package loadgen

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"pocketcloudlets/internal/autoscale"
	"pocketcloudlets/internal/fleet"
	"pocketcloudlets/internal/modeltime"
	"pocketcloudlets/internal/replay"
	"pocketcloudlets/internal/searchlog"
	"pocketcloudlets/internal/workload"
)

// OpenConfig parameterizes an open-loop run.
type OpenConfig struct {
	// QPS is the target mean arrival rate.
	QPS float64
	// Duration bounds the arrival schedule; the schedule (and so the
	// request count) is deterministic given Seed, QPS and Duration.
	Duration time.Duration
	// Month selects which month's community log is replayed as the
	// request tape. The tape wraps if the schedule outruns it.
	Month int
	// Seed drives the arrival schedule.
	Seed int64
	// Arrivals selects the arrival process (modeltime.Kind). The zero
	// value is the classic homogeneous Poisson process; Diurnal warps
	// the same arrivals onto a day curve (same total, same tape order);
	// PerUser gives every user an independent renewal process weighted
	// by their workload class, replaying each user's own stream.
	Arrivals modeltime.Kind
	// DiurnalPeak is the diurnal peak/trough rate ratio; zero selects
	// modeltime.DefaultPeakTrough. Diurnal runs only.
	DiurnalPeak float64
	// DiurnalPeriod is the diurnal curve's period; zero spans the run
	// with a single day. Diurnal runs only.
	DiurnalPeriod time.Duration
	// MaxRequests caps the schedule length. Zero selects 10 million.
	MaxRequests int
	// ResizeTo, when positive, live-resizes the fleet to that many
	// shards ResizeAt into the run (immediately when ResizeAt is zero).
	// A resize the run finishes before firing is run just after serving
	// completes, so its counters are always measured.
	ResizeTo int
	// ResizeAt delays the resize from the start of the run.
	ResizeAt time.Duration
	// ResizeDrop discards movers' personal state instead of migrating
	// it — the remap-and-cold-start baseline.
	ResizeDrop bool
	// Events are resize events executed at model offsets of the arrival
	// schedule: an event fires just before the first arrival at or past
	// its offset, so its position in the tape — and with it every
	// per-user outcome — is a pure function of the spec, unlike the
	// wall-timer ResizeTo/ResizeAt path. Must be sorted by At.
	Events []TimelineEvent
	// Autoscale, when non-nil, turns on the occupancy-driven shard
	// autoscaler (internal/autoscale): the run samples per-shard
	// occupancy on the controller's model-time cadence — after a fleet
	// drain, so the sample is a pure function of the tape prefix — and
	// drives Fleet.Resize from its hysteresis decisions. Zero fields
	// are resolved against the fleet's initial shard count.
	Autoscale *autoscale.Config
	// ClassTag, when set, stamps every request with this class so the
	// report carries a per-class breakdown — the single-class scenario
	// path. It never affects serving or per-user outcomes.
	ClassTag string
	// Classes, when non-empty, splits the run into client classes: each
	// owns a contiguous slice of the user population and its own arrival
	// process, and its requests carry its tag. The per-class schedules
	// are merged by arrival time. QPS is then the total rate the class
	// QPSShares divide; the top-level Arrivals/Diurnal fields are
	// ignored. Empty keeps the single-process run exactly as before.
	Classes []OpenClassConfig
	// Scenario labels the report (Report.Scenario).
	Scenario string
}

// TimelineEvent is one scheduled resize of an open-loop run's event
// timeline.
type TimelineEvent struct {
	// At is the model offset from the start of the run.
	At time.Duration
	// ResizeTo is the shard count to live-resize the fleet to.
	ResizeTo int
	// DropState discards movers' personal state instead of migrating
	// it.
	DropState bool
}

// OpenClassConfig is one client class of a multi-class open-loop run.
type OpenClassConfig struct {
	// Name is the SLO-class tag stamped on the class's requests.
	Name string
	// Lo and Hi bound the class's user indices: the class owns
	// profiles [Lo, Hi) of the generator population.
	Lo, Hi int
	// QPSShare is the fraction of the run's total QPS this class
	// offers.
	QPSShare float64
	// Arrivals is the class's arrival process; Poisson ("flat"),
	// Diurnal or PerUser.
	Arrivals modeltime.Kind
	// DiurnalPeak and DiurnalPeriod shape a Diurnal class's curve.
	DiurnalPeak   float64
	DiurnalPeriod time.Duration
}

// scheduleResize arms the mid-run live resize. The returned finish
// func stops the timer, guarantees the resize ran exactly once, and
// reports its error.
func scheduleResize(f *fleet.Fleet, to int, at time.Duration, drop bool) func() error {
	if to <= 0 {
		return func() error { return nil }
	}
	var (
		once sync.Once
		err  error
	)
	run := func() { _, err = f.ResizeWith(to, fleet.ResizeOptions{DropState: drop}) }
	timer := time.AfterFunc(at, func() { once.Do(run) })
	return func() error {
		timer.Stop()
		once.Do(run)
		return err
	}
}

// classWeight is one user's relative arrival rate for PerUser
// schedules: the geometric mean of the class's monthly-volume bracket,
// so a High user arrives ~10x as often as a Low user — the Table 6
// volume skew expressed as an arrival process.
func classWeight(spec workload.ClassSpec) float64 {
	return math.Sqrt(float64(spec.MinMonthly) * float64(spec.MaxMonthly))
}

// perUserWeights maps every profile to its class weight.
func perUserWeights(g *workload.Generator) []float64 {
	byClass := make(map[workload.Class]float64)
	for _, spec := range g.Classes() {
		byClass[spec.Class] = classWeight(spec)
	}
	profiles := g.Users()
	w := make([]float64, len(profiles))
	for i, up := range profiles {
		w[i] = byClass[up.Class]
	}
	return w
}

// curveBuckets is the offered-curve resolution of an open-loop report.
const curveBuckets = 20

// TraceEvent is one scheduled request of a materialized open-loop
// schedule — and the record the scenario trace format serializes, so a
// recorded schedule replays deterministically.
type TraceEvent struct {
	// At is the release offset from the start of the run (model
	// timestamp of the arrival).
	At    time.Duration
	User  searchlog.UserID
	Class string
	Query string
	Click string
}

// classEvents materializes one class's arrival schedule as concrete
// request events. The whole schedule is drawn up front so the arrival
// count is a pure function of the spec — an open-loop generator must
// not let fleet backpressure slow the arrivals.
func classEvents(g *workload.Generator, cfg OpenConfig, cc OpenClassConfig, seed int64, maxReq int) ([]TraceEvent, error) {
	u := g.Config().Universe
	profiles := g.Users()
	spec := modeltime.Spec{
		Kind:       cc.Arrivals,
		QPS:        cfg.QPS * cc.QPSShare,
		Horizon:    cfg.Duration,
		Seed:       seed,
		Max:        maxReq,
		PeakTrough: cc.DiurnalPeak,
		Period:     cc.DiurnalPeriod,
	}
	var cursors []*workload.Cursor
	if cc.Arrivals == modeltime.PerUser {
		w := perUserWeights(g)
		for i := range w {
			if i < cc.Lo || i >= cc.Hi {
				w[i] = 0
			}
		}
		spec.Weights = w
		cursors = make([]*workload.Cursor, len(profiles))
	}
	schedule, err := modeltime.Schedule(spec)
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	var tape []searchlog.Entry
	if cc.Arrivals != modeltime.PerUser {
		full := g.MonthLog(cfg.Month).Entries
		if cc.Lo <= 0 && cc.Hi >= len(profiles) {
			tape = full
		} else {
			// The workload invariant profiles[i].ID == UserID(i) makes a
			// contiguous index range a contiguous ID range.
			for _, e := range full {
				if idx := int(e.User); idx >= cc.Lo && idx < cc.Hi {
					tape = append(tape, e)
				}
			}
		}
		if len(tape) == 0 {
			if cc.Name == "" {
				return nil, fmt.Errorf("loadgen: month %d log is empty", cfg.Month)
			}
			return nil, fmt.Errorf("loadgen: class %q has no month-%d log entries", cc.Name, cfg.Month)
		}
	}
	events := make([]TraceEvent, 0, len(schedule))
	for i, a := range schedule {
		ev := TraceEvent{At: a.At, Class: cc.Name}
		if a.User >= 0 {
			// Per-user arrival: the user replays their own stream, so
			// skewed arrival rates meet matching per-user content.
			if cursors[a.User] == nil {
				cursors[a.User] = g.Cursor(profiles[a.User], cfg.Month)
			}
			e, _ := cursors[a.User].Next()
			ev.User = profiles[a.User].ID
			ev.Query = u.QueryText(u.QueryOf(e.Pair))
			ev.Click = u.ResultURL(u.ResultOf(e.Pair))
		} else {
			e := tape[i%len(tape)]
			ev.User = e.User
			ev.Query = u.QueryText(u.QueryOf(e.Pair))
			ev.Click = u.ResultURL(u.ResultOf(e.Pair))
		}
		events = append(events, ev)
	}
	return events, nil
}

// OpenEvents materializes an open-loop run's whole request schedule.
// With no Classes configured this is exactly the schedule RunOpen has
// always replayed (same spec, same tape order); with Classes, each
// class's schedule is drawn from its own derived seed and the streams
// are merged by arrival time (ties break by class order, then
// within-class order, so the merge is deterministic).
func OpenEvents(g *workload.Generator, cfg OpenConfig) ([]TraceEvent, error) {
	maxReq := cfg.MaxRequests
	if maxReq <= 0 {
		maxReq = 10_000_000
	}
	if len(cfg.Classes) == 0 {
		cc := OpenClassConfig{
			Name:          cfg.ClassTag,
			Lo:            0,
			Hi:            len(g.Users()),
			QPSShare:      1,
			Arrivals:      cfg.Arrivals,
			DiurnalPeak:   cfg.DiurnalPeak,
			DiurnalPeriod: cfg.DiurnalPeriod,
		}
		return classEvents(g, cfg, cc, cfg.Seed, maxReq)
	}
	type tagged struct {
		ev  TraceEvent
		ci  int
		seq int
	}
	var all []tagged
	for ci, cc := range cfg.Classes {
		evs, err := classEvents(g, cfg, cc, modeltime.DeriveSeed(cfg.Seed, ci), maxReq)
		if err != nil {
			return nil, err
		}
		for seq, ev := range evs {
			all = append(all, tagged{ev, ci, seq})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].ev.At != all[j].ev.At {
			return all[i].ev.At < all[j].ev.At
		}
		if all[i].ci != all[j].ci {
			return all[i].ci < all[j].ci
		}
		return all[i].seq < all[j].seq
	})
	if len(all) > maxReq {
		all = all[:maxReq]
	}
	events := make([]TraceEvent, len(all))
	for i, t := range all {
		events[i] = t.ev
	}
	return events, nil
}

// demandCount sums submissions the fleet has booked so far — served
// plus shed across live shards, plus the counters shrinks retired.
// After a drain it equals the number of Submit calls made, so the
// autoscaler's occupancy signal is a pure function of the tape prefix
// regardless of worker interleaving or shed timing.
func demandCount(f *fleet.Fleet) int64 {
	rl := f.RetiredLoad()
	total := rl.Served + rl.Shed
	for _, sl := range f.ShardLoads() {
		total += sl.Served + sl.Shed
	}
	return total
}

// replayTimeline releases the events at their offsets against the
// fleet, bucketing arrivals (and sheds) into the offered curve over
// horizon, and runs the model-time control plane alongside: it
// interleaves scheduled resize events (timeline) and autoscaler samples
// (ctl) with the arrival schedule, firing everything due at or before
// an arrival's offset — in model-time order, ties resolved timeline
// first — before that arrival is submitted. Each autoscale sample
// drains the fleet first, so the occupancy it reads is a function of
// the tape prefix alone and the whole control sequence is
// deterministic for a deterministic spec.
func replayTimeline(f *fleet.Fleet, events []TraceEvent, horizon time.Duration, start time.Time, ctl *autoscale.Controller, timeline []TimelineEvent) (offered, shedPerBucket []uint64, maxLag time.Duration, err error) {
	offered = make([]uint64, curveBuckets)
	shedPerBucket = make([]uint64, curveBuckets)
	var (
		ti         int
		nextSample = time.Duration(math.MaxInt64)
		lastDemand int64
	)
	if ctl != nil {
		nextSample = ctl.Config().Interval
	}
	for _, ev := range events {
		// Fire everything due before this arrival, in model-time order.
		for {
			tDue := ti < len(timeline) && timeline[ti].At <= ev.At
			sDue := ctl != nil && nextSample <= ev.At
			switch {
			case tDue && (!sDue || timeline[ti].At <= nextSample):
				te := timeline[ti]
				ti++
				if te.ResizeTo > 0 {
					if _, rerr := f.ResizeWith(te.ResizeTo, fleet.ResizeOptions{DropState: te.DropState}); rerr != nil {
						return offered, shedPerBucket, maxLag, fmt.Errorf("loadgen: timeline resize at %v: %w", te.At, rerr)
					}
				}
				continue
			case sDue:
				f.Drain()
				demand := demandCount(f)
				delta := demand - lastDemand
				lastDemand = demand
				shards := f.NumShards()
				occ := ctl.Config().Occupancy(delta, ctl.Config().Interval, shards)
				if target, resize := ctl.Step(nextSample, occ, shards); resize {
					if _, rerr := f.Resize(target); rerr != nil {
						return offered, shedPerBucket, maxLag, fmt.Errorf("loadgen: autoscale resize to %d: %w", target, rerr)
					}
				}
				nextSample += ctl.Config().Interval
				continue
			}
			break
		}
		now := time.Since(start)
		if wait := ev.At - now; wait > 0 {
			time.Sleep(wait)
		} else if lag := -wait; lag > maxLag {
			maxLag = lag
		}
		b := int(int64(ev.At) * curveBuckets / int64(horizon))
		if b >= curveBuckets {
			b = curveBuckets - 1
		}
		if b < 0 {
			b = 0
		}
		offered[b]++
		if !f.Submit(fleet.Request{User: ev.User, Query: ev.Query, Click: ev.Click, Class: ev.Class}) {
			shedPerBucket[b]++
		}
	}
	// Timeline events scheduled past the last arrival still run — their
	// resizes must be measured.
	for ; ti < len(timeline); ti++ {
		if te := timeline[ti]; te.ResizeTo > 0 {
			if _, rerr := f.ResizeWith(te.ResizeTo, fleet.ResizeOptions{DropState: te.DropState}); rerr != nil {
				return offered, shedPerBucket, maxLag, fmt.Errorf("loadgen: timeline resize at %v: %w", te.At, rerr)
			}
		}
	}
	return offered, shedPerBucket, maxLag, nil
}

// RunOpen replays workload queries against the fleet as an open-loop
// arrival process drawn from modeltime (Poisson, diurnal or per-user;
// see OpenConfig.Arrivals), or as a merge of per-class processes when
// OpenConfig.Classes is set. col must be installed as the fleet's
// Observer; it is reset at the start of the run. The call returns
// after every scheduled request has been served or shed.
func RunOpen(f *fleet.Fleet, col *Collector, g *workload.Generator, cfg OpenConfig) (Report, error) {
	if g == nil {
		return Report{}, fmt.Errorf("loadgen: a workload generator is required")
	}
	events, err := OpenEvents(g, cfg)
	if err != nil {
		return Report{}, err
	}
	r := Report{
		Mode:       "open",
		Scenario:   cfg.Scenario,
		Seed:       cfg.Seed,
		Users:      len(g.Users()),
		OfferedQPS: cfg.QPS,
	}
	r.Arrivals = "mixed"
	if len(cfg.Classes) == 0 {
		r.Arrivals = cfg.Arrivals.String()
		if cfg.Arrivals == modeltime.Diurnal {
			r.DiurnalPeak = cfg.DiurnalPeak
			if r.DiurnalPeak == 0 {
				r.DiurnalPeak = modeltime.DefaultPeakTrough
			}
		}
	}
	err = replaySchedule(&r, f, col, events, cfg)
	return r, err
}

// replaySchedule is the open-loop run RunOpen and RunTrace share:
// release events on their offsets under cfg's control plane (autoscaler,
// timeline, wall-timer resize), drain, and fill the measured part of r.
func replaySchedule(r *Report, f *fleet.Fleet, col *Collector, events []TraceEvent, cfg OpenConfig) error {
	base, err := begin(f, col)
	if err != nil {
		return err
	}
	var ctl *autoscale.Controller
	if cfg.Autoscale != nil {
		ac := cfg.Autoscale.WithDefaults(f.NumShards())
		if err := ac.Validate(); err != nil {
			return fmt.Errorf("loadgen: %w", err)
		}
		ctl = autoscale.New(ac)
	}
	finishResize := scheduleResize(f, cfg.ResizeTo, cfg.ResizeAt, cfg.ResizeDrop)
	start := time.Now()
	offered, shedPerBucket, maxLag, err := replayTimeline(f, events, cfg.Duration, start, ctl, cfg.Events)
	if err != nil {
		return err
	}
	f.Drain()
	if err := finishResize(); err != nil {
		return fmt.Errorf("loadgen: resize: %w", err)
	}
	elapsed := time.Since(start)

	r.MaxScheduleLagNS = int64(maxLag)
	r.OfferedCurve, r.PeakTroughServedRatio = offeredCurve(cfg.Duration, offered, shedPerBucket)
	fill(r, f, col, base, elapsed)
	r.MeanUserHitRate = f.MeanUserHitRate()
	if ctl != nil {
		r.Autoscale = autoscaleReport(ctl, f.NumShards())
	}
	return nil
}

// TraceConfig parameterizes a recorded-trace replay run.
type TraceConfig struct {
	// Seed and Users are recorded in the report (the trace itself fully
	// determines the requests).
	Seed  int64
	Users int
	// Scenario labels the report.
	Scenario string
	// Horizon bounds the offered-curve bucketing; zero derives it from
	// the last event's offset.
	Horizon time.Duration
}

// RunTrace replays a materialized (typically recorded) event schedule
// against the fleet, open-loop: each event is released at its offset
// whether or not the fleet keeps up. Replaying the same trace against
// an identically built fleet yields byte-identical per-user outcomes.
func RunTrace(f *fleet.Fleet, col *Collector, events []TraceEvent, cfg TraceConfig) (Report, error) {
	if len(events) == 0 {
		return Report{}, fmt.Errorf("loadgen: empty trace")
	}
	horizon := cfg.Horizon
	if horizon <= 0 {
		horizon = events[len(events)-1].At + 1
	}
	r := Report{
		Mode:       "trace",
		Scenario:   cfg.Scenario,
		Seed:       cfg.Seed,
		Users:      cfg.Users,
		OfferedQPS: float64(len(events)) / horizon.Seconds(),
	}
	// A recorded trace carries no control plane.
	err := replaySchedule(&r, f, col, events, OpenConfig{Duration: horizon})
	return r, err
}

// ClosedConfig parameterizes a closed-loop run.
type ClosedConfig struct {
	// Users is the number of concurrent simulated users (the first K
	// profiles of the population, which samples classes by share).
	Users int
	// Month is the first month each user replays.
	Month int
	// Duration bounds the run; users keep replaying subsequent months
	// until it elapses. Zero replays exactly one month per user, which
	// makes the run's request count — and every derived counter —
	// deterministic.
	Duration time.Duration
	// MaxQueriesPerUser caps each user's stream. Zero means no cap.
	MaxQueriesPerUser int
	// Weeks is the weekly bucket count for per-user accounting. Zero
	// selects 5, matching the replay harness.
	Weeks int
	// Seed is recorded in the report (closed-loop arrivals are fully
	// determined by the generator's own seed).
	Seed int64
	// Pace, when enabled, makes each user "think" for their modeled
	// response time (wall-compressed by Pace.Scale) before issuing the
	// next query. Pacing is wall-clock only — it inserts real sleeps
	// between a user's own requests and never touches model state — so
	// per-user outcomes are byte-identical to an unpaced run on the
	// same tape. The zero value is the unpaced as-fast-as-possible
	// protocol.
	Pace modeltime.Pacer
	// ResizeTo, when positive, live-resizes the fleet to that many
	// shards ResizeAt into the run (immediately when ResizeAt is zero).
	// A resize the run finishes before firing is run just after serving
	// completes, so its counters are always measured.
	ResizeTo int
	// ResizeAt delays the resize from the start of the run.
	ResizeAt time.Duration
	// ResizeDrop discards movers' personal state instead of migrating
	// it — the remap-and-cold-start baseline.
	ResizeDrop bool
	// ClassTag, when set, stamps every request with this class so the
	// report carries a per-class breakdown — the single-class scenario
	// path. It never affects serving or per-user outcomes.
	ClassTag string
	// Classes, when non-empty, splits the simulated users into client
	// classes: a user whose index falls in a class's [Lo, Hi) range
	// issues requests carrying the class tag, paced by the class's own
	// Pacer and capped by its own MaxQueriesPerUser. Users outside
	// every range fall back to the top-level ClassTag/Pace/
	// MaxQueriesPerUser.
	Classes []ClosedClassConfig
	// Scenario labels the report (Report.Scenario).
	Scenario string
}

// ClosedClassConfig is one client class of a multi-class closed run.
type ClosedClassConfig struct {
	// Name is the SLO-class tag stamped on the class's requests.
	Name string
	// Lo and Hi bound the class's user indices ([Lo, Hi)).
	Lo, Hi int
	// Pace is the class's think-time pacing (wall-clock only).
	Pace modeltime.Pacer
	// MaxQueriesPerUser caps each class user's stream; zero means no
	// cap.
	MaxQueriesPerUser int
}

// RunClosed drives the fleet with K concurrent simulated users, each
// replaying their own workload stream and waiting for every response —
// the closed-loop protocol whose hit rates correspond to the paper's
// replay evaluation. col must be installed as the fleet's Observer; it
// is reset at the start of the run.
func RunClosed(f *fleet.Fleet, col *Collector, g *workload.Generator, cfg ClosedConfig) (Report, error) {
	if g == nil {
		return Report{}, fmt.Errorf("loadgen: a workload generator is required")
	}
	profiles := g.Users()
	if cfg.Users <= 0 || cfg.Users > len(profiles) {
		return Report{}, fmt.Errorf("loadgen: Users must be in [1, %d], got %d", len(profiles), cfg.Users)
	}
	weeks := cfg.Weeks
	if weeks <= 0 {
		weeks = 5
	}
	u := g.Config().Universe

	base, err := begin(f, col)
	if err != nil {
		return Report{}, err
	}
	finishResize := scheduleResize(f, cfg.ResizeTo, cfg.ResizeAt, cfg.ResizeDrop)
	outcomes := make([]replay.UserOutcome, cfg.Users)
	var deadline time.Time
	if cfg.Duration > 0 {
		deadline = time.Now().Add(cfg.Duration)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Users; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tag, pace, maxQ := cfg.ClassTag, cfg.Pace, cfg.MaxQueriesPerUser
			for _, cc := range cfg.Classes {
				if i >= cc.Lo && i < cc.Hi {
					tag, pace, maxQ = cc.Name, cc.Pace, cc.MaxQueriesPerUser
					break
				}
			}
			up := profiles[i]
			cur := g.Cursor(up, cfg.Month)
			uo := replay.NewUserOutcome(up, weeks)
			for n := 0; maxQ <= 0 || n < maxQ; n++ {
				if cfg.Duration > 0 && !time.Now().Before(deadline) {
					break
				}
				e, month := cur.Next()
				if cfg.Duration <= 0 && month > cfg.Month {
					break
				}
				resp := f.Do(fleet.Request{
					User:  up.ID,
					Query: u.QueryText(u.QueryOf(e.Pair)),
					Click: u.ResultURL(u.ResultOf(e.Pair)),
					Class: tag,
				})
				if resp.Shed || resp.Err != nil {
					continue
				}
				uo.Record(e.At, u.Navigational(e.Pair), resp.Outcome)
				if d := pace.Pause(resp.Outcome.ResponseTime()); d > 0 {
					time.Sleep(d)
				}
			}
			outcomes[i] = uo
		}(i)
	}
	wg.Wait()
	if err := finishResize(); err != nil {
		return Report{}, fmt.Errorf("loadgen: resize: %w", err)
	}
	elapsed := time.Since(start)

	r := Report{
		Mode:     "closed",
		Scenario: cfg.Scenario,
		Seed:     cfg.Seed,
		Users:    cfg.Users,
		Outcomes: outcomes,
	}
	paced, paceScale := cfg.Pace.Enabled(), cfg.Pace.Scale
	for _, cc := range cfg.Classes {
		if cc.Pace.Enabled() {
			paced = true
			if paceScale == 0 {
				paceScale = cc.Pace.Scale
			}
		}
	}
	if paced {
		r.Paced = true
		r.PaceScale = paceScale
	}
	fill(&r, f, col, base, elapsed)

	classSum := make(map[string]float64)
	classN := make(map[string]int)
	var sum float64
	var n int
	for _, uo := range outcomes {
		if uo.Volume == 0 {
			continue
		}
		hr := uo.HitRate()
		sum += hr
		n++
		name := uo.Profile.Class.String()
		classSum[name] += hr
		classN[name]++
	}
	if n > 0 {
		r.MeanUserHitRate = sum / float64(n)
		r.ClassHitRate = make(map[string]float64, len(classSum))
		for c, s := range classSum {
			r.ClassHitRate[c] = s / float64(classN[c])
		}
	}
	return r, nil
}

// Tape materializes one user's month stream as ready-to-serve fleet
// requests — a convenience for benchmarks that drive the serving path
// directly.
func Tape(g *workload.Generator, up workload.UserProfile, month int) []fleet.Request {
	u := g.Config().Universe
	stream := g.UserStream(up, month)
	out := make([]fleet.Request, len(stream))
	for i, e := range stream {
		out[i] = fleet.Request{
			User:  e.User,
			Query: u.QueryText(u.QueryOf(e.Pair)),
			Click: u.ResultURL(u.ResultOf(e.Pair)),
		}
	}
	return out
}
