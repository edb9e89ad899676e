package loadgen

import (
	"fmt"
	"math"
	"sync"
	"time"

	"pocketcloudlets/internal/autoscale"
	"pocketcloudlets/internal/engine"
	"pocketcloudlets/internal/fleet"
	"pocketcloudlets/internal/modeltime"
	"pocketcloudlets/internal/searchlog"
	"pocketcloudlets/internal/workload"
)

// WallResize is a live resize fired on the wall clock during a run: to
// To shards (off unless positive), At into the run, Drop discarding
// movers' personal state instead of migrating it — the
// remap-and-cold-start baseline. A resize the run finishes before firing
// is run just after serving completes, so its counters are always
// measured.
type WallResize struct {
	To   int
	At   time.Duration
	Drop bool
}

// OpenConfig parameterizes an open-loop run.
type OpenConfig struct {
	// QPS is the target mean arrival rate, which the Classes' QPSShares
	// divide.
	QPS float64
	// Duration bounds the arrival schedule; the schedule (and so the
	// request count) is deterministic given Seed, QPS and Duration.
	Duration time.Duration
	// Month selects which month's community log is replayed as the
	// request tape. The tape wraps if the schedule outruns it.
	Month int
	// Seed drives the arrival schedule.
	Seed int64
	// MaxRequests caps the schedule length. Zero selects 10 million.
	MaxRequests int
	// Resize is the wall-timer live resize.
	Resize WallResize
	// Events are resize events executed at model offsets of the arrival
	// schedule (see Replay), so an event's position in the tape — and
	// with it every per-user outcome — is a pure function of the spec,
	// unlike the wall-timer Resize. Must be sorted by At.
	Events []TimelineEvent
	// Autoscale, when non-nil, turns on the occupancy-driven shard
	// autoscaler (internal/autoscale), sampled on its model-time cadence
	// (see Replay) and driving Fleet.Resize from its hysteresis
	// decisions. Zero fields are resolved against the fleet's initial
	// shard count.
	Autoscale *autoscale.Config
	// Classes are the run's client classes: each owns a contiguous slice
	// of the user population and its own arrival process, and its
	// requests carry its tag. A lone class draws its schedule from Seed
	// itself; several draw each from a seed derived from it and are
	// merged by arrival time. Empty is one untagged Poisson class over
	// everyone.
	Classes []OpenClassConfig
	// Scenario labels the report (Report.Scenario).
	Scenario string
}

// classes resolves the class list for a population of users.
func (cfg OpenConfig) classes(users int) []OpenClassConfig {
	if len(cfg.Classes) == 0 {
		return []OpenClassConfig{{Hi: users, QPSShare: 1}}
	}
	return cfg.Classes
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

// OpenClassConfig is one client class of an open-loop run.
type OpenClassConfig struct {
	// Name is the SLO-class tag stamped on the class's requests, so the
	// report carries a per-class breakdown; it never affects serving or
	// per-user outcomes.
	Name string
	// Lo and Hi bound the class's user indices: the class owns
	// profiles [Lo, Hi) of the generator population.
	Lo, Hi int
	// QPSShare is the fraction of the run's total QPS this class
	// offers.
	QPSShare float64
	// Arrivals is the class's arrival process (modeltime.Kind). The zero
	// value is the homogeneous Poisson process; Diurnal warps the same
	// arrivals onto a day curve (same total, same tape order); PerUser
	// gives every user an independent renewal process weighted by their
	// workload class, replaying each user's own stream.
	Arrivals modeltime.Kind
	// DiurnalPeak is a Diurnal class's peak/trough rate ratio (zero
	// selects modeltime.DefaultPeakTrough) and DiurnalPeriod its curve's
	// period (zero spans the run with a single day).
	DiurnalPeak   float64
	DiurnalPeriod time.Duration
}

// measure is the one measured run every driver goes through: capture
// the baseline, arm the wall resize, drive, settle the resize — on every
// exit, so no timer outlives the run — and fill r from the deltas.
func measure(r *Report, f *fleet.Fleet, col *Collector, resize WallResize, drive func() error) error {
	base, err := begin(f, col)
	if err != nil {
		return err
	}
	settle := armResize(f, resize)
	start := time.Now()
	if err := drive(); err != nil {
		settle(false)
		return err
	}
	if err := settle(true); err != nil {
		return fmt.Errorf("loadgen: resize: %w", err)
	}
	fill(r, f, col, base, time.Since(start))
	return nil
}

// armResize arms the wall resize. The returned settle func stops the
// timer and waits out a resize in flight; with run set it guarantees the
// resize ran exactly once and reports its error, without it a resize
// that has not fired never will.
func armResize(f *fleet.Fleet, w WallResize) func(run bool) error {
	if w.To <= 0 {
		return func(bool) error { return nil }
	}
	var (
		once sync.Once
		err  error
	)
	resize := func() { _, err = f.ResizeWith(w.To, fleet.ResizeOptions{DropState: w.Drop}) }
	timer := time.AfterFunc(w.At, func() { once.Do(resize) })
	return func(run bool) error {
		timer.Stop()
		once.Do(func() {
			if run {
				resize()
			}
		})
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

// classSchedule draws one class's arrival schedule. The whole schedule
// is drawn up front so the arrival count is a pure function of the spec
// — an open-loop generator must not let fleet backpressure slow the
// arrivals.
func classSchedule(g *workload.Generator, cfg OpenConfig, cc OpenClassConfig, seed int64, maxReq int) ([]modeltime.Arrival, error) {
	spec := modeltime.Spec{
		Kind:       cc.Arrivals,
		QPS:        cfg.QPS * cc.QPSShare,
		Horizon:    cfg.Duration,
		Seed:       seed,
		Max:        maxReq,
		PeakTrough: cc.DiurnalPeak,
		Period:     cc.DiurnalPeriod,
	}
	if cc.Arrivals == modeltime.PerUser {
		w := perUserWeights(g)
		for i := range w {
			if i < cc.Lo || i >= cc.Hi {
				w[i] = 0
			}
		}
		spec.Weights = w
	}
	schedule, err := modeltime.Schedule(spec)
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	return schedule, nil
}

// classEvents materializes one class's schedule as concrete request
// events. A per-user arrival replays its user's own stream; every other
// arrival takes the next entry of the class's tape — the run's month log
// filtered to the class's users — wrapping if the schedule outruns it.
func classEvents(g *workload.Generator, cfg OpenConfig, cc OpenClassConfig, schedule []modeltime.Arrival, log []searchlog.Entry, texts *pairTexts) ([]TraceEvent, error) {
	profiles := g.Users()
	var (
		cursors []*workload.Cursor
		tape    []searchlog.Entry
	)
	if cc.Arrivals == modeltime.PerUser {
		cursors = make([]*workload.Cursor, len(profiles))
	} else {
		if cc.Lo <= 0 && cc.Hi >= len(profiles) {
			tape = log
		} else {
			// The workload invariant profiles[i].ID == UserID(i) makes a
			// contiguous index range a contiguous ID range.
			for _, e := range log {
				if idx := int(e.User); idx >= cc.Lo && idx < cc.Hi {
					tape = append(tape, e)
				}
			}
		}
		if len(tape) == 0 {
			return nil, fmt.Errorf("loadgen: class %q has no month-%d log entries", cc.Name, cfg.Month)
		}
	}
	events := make([]TraceEvent, len(schedule))
	for i, a := range schedule {
		var e searchlog.Entry
		if a.User >= 0 {
			// Per-user arrival: the user replays their own stream, so
			// skewed arrival rates meet matching per-user content.
			if cursors[a.User] == nil {
				cursors[a.User] = g.Cursor(profiles[a.User], cfg.Month)
			}
			e, _ = cursors[a.User].Next()
		} else {
			e = tape[i%len(tape)]
		}
		query, click := texts.of(e.Pair)
		events[i] = TraceEvent{At: a.At, User: e.User, Class: cc.Name, Query: query, Click: click}
	}
	return events, nil
}

// request is the fleet request a log entry stands for.
func request(u *engine.Universe, e searchlog.Entry, class string) fleet.Request {
	return fleet.Request{User: e.User, Query: u.QueryText(u.QueryOf(e.Pair)), Click: u.ResultURL(u.ResultOf(e.Pair)), Class: class}
}

// pairTexts interns the request text of each distinct pair of a
// schedule: a tape repeats a Zipf-skewed pair set (a quarter of a day's
// events are distinct), and a query and a click built per event are two
// allocations each.
type pairTexts struct {
	u     *engine.Universe
	texts map[searchlog.PairID][2]string
}

func (t *pairTexts) of(p searchlog.PairID) (query, click string) {
	qc, ok := t.texts[p]
	if !ok {
		qc = [2]string{t.u.QueryText(t.u.QueryOf(p)), t.u.ResultURL(t.u.ResultOf(p))}
		t.texts[p] = qc
	}
	return qc[0], qc[1]
}

// OpenEvents materializes an open-loop run's whole request schedule:
// each class's schedule, merged by arrival time (ties break by class
// order, then within-class order, so the merge is deterministic). The
// run's month log is built once, whatever the number of classes that
// replay it, and while this goroutine draws the arrival schedules.
func OpenEvents(g *workload.Generator, cfg OpenConfig) ([]TraceEvent, error) {
	maxReq := cfg.MaxRequests
	if maxReq <= 0 {
		maxReq = 10_000_000
	}
	classes := cfg.classes(len(g.Users()))
	var log []searchlog.Entry
	logBuilt := make(chan struct{})
	go func() {
		defer close(logBuilt)
		for _, cc := range classes {
			if cc.Arrivals != modeltime.PerUser {
				log = g.MonthLog(cfg.Month).Entries
				return
			}
		}
	}()
	schedules := make([][]modeltime.Arrival, len(classes))
	errs := make([]error, len(classes))
	for ci, cc := range classes {
		seed := cfg.Seed
		if len(classes) > 1 {
			seed = modeltime.DeriveSeed(cfg.Seed, ci)
		}
		schedules[ci], errs[ci] = classSchedule(g, cfg, cc, seed, maxReq)
	}
	<-logBuilt
	texts := &pairTexts{u: g.Config().Universe, texts: make(map[searchlog.PairID][2]string)}
	streams := make([][]TraceEvent, len(classes))
	for ci, cc := range classes {
		// A class's bad schedule is reported before a later class's empty
		// tape, as when each class was materialized whole in turn.
		if errs[ci] != nil {
			return nil, errs[ci]
		}
		var err error
		if streams[ci], err = classEvents(g, cfg, cc, schedules[ci], log, texts); err != nil {
			return nil, err
		}
	}
	return mergeByArrival(streams, maxReq), nil
}

// mergeByArrival is the k-way merge of per-class schedules, each sorted
// by arrival time, cut at limit events: the earliest head goes next and a
// tie goes to the lower stream. The merge of one stream is that stream.
func mergeByArrival(streams [][]TraceEvent, limit int) []TraceEvent {
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	total = min(total, limit)
	if len(streams) == 1 {
		return streams[0][:total]
	}
	out := make([]TraceEvent, 0, total)
	for len(out) < total {
		best := -1
		for si, s := range streams {
			if len(s) > 0 && (best < 0 || s[0].At < streams[best][0].At) {
				best = si
			}
		}
		out = append(out, streams[best][0])
		streams[best] = streams[best][1:]
	}
	return out
}

// Replay owns the control plane of an open-loop replay: the scheduled
// resize events and the autoscaler's samples, interleaved with the
// arrival tape in model time. A caller fires every action due at or
// before an arrival's offset before submitting it, then whatever
// remains after the last arrival. A resize event goes before a sample
// at the same offset; resize events past the last arrival still fire
// (their resizes must be measured), samples past it do not. Each sample
// drains the fleet first, so the occupancy it reads is a function of
// the tape prefix alone and the whole control sequence is deterministic
// for a deterministic spec.
type Replay struct {
	f          *fleet.Fleet
	timeline   []TimelineEvent
	ctl        *autoscale.Controller // nil without an autoscaler
	nextSample time.Duration
	lastSample time.Duration // no sample is due past the last arrival
	lastDemand int64
}

// NewReplay starts cfg's control plane (Events and Autoscale) over f
// for a replay of events.
func NewReplay(f *fleet.Fleet, cfg OpenConfig, events []TraceEvent) (*Replay, error) {
	p := &Replay{f: f, timeline: cfg.Events, lastSample: -1}
	if cfg.Autoscale != nil {
		ac := cfg.Autoscale.WithDefaults(f.NumShards())
		if err := ac.Validate(); err != nil {
			return nil, fmt.Errorf("loadgen: %w", err)
		}
		p.ctl, p.nextSample = autoscale.New(ac), ac.Interval
		if len(events) > 0 {
			p.lastSample = events[len(events)-1].At
		}
	}
	return p, nil
}

// Next reports the model offset of the next control action, and false
// when none remains.
func (p *Replay) Next() (time.Duration, bool) {
	sample := p.nextSample <= p.lastSample
	if len(p.timeline) > 0 && (!sample || p.timeline[0].At <= p.nextSample) {
		return p.timeline[0].At, true
	}
	return p.nextSample, sample
}

// Fire performs the action Next reported; with none remaining it does
// nothing.
func (p *Replay) Fire() error {
	at, ok := p.Next()
	switch {
	case !ok:
	case len(p.timeline) > 0 && p.timeline[0].At == at:
		te := p.timeline[0]
		p.timeline = p.timeline[1:]
		if te.ResizeTo > 0 {
			if _, err := p.f.ResizeWith(te.ResizeTo, fleet.ResizeOptions{DropState: te.DropState}); err != nil {
				return fmt.Errorf("loadgen: timeline resize at %v: %w", te.At, err)
			}
		}
	default:
		p.f.Drain()
		demand, shards, ac := demandCount(p.f), p.f.NumShards(), p.ctl.Config()
		occ := ac.Occupancy(demand-p.lastDemand, ac.Interval, shards)
		p.lastDemand = demand
		p.nextSample += ac.Interval
		if target, resize := p.ctl.Step(at, occ, shards); resize {
			if _, err := p.f.Resize(target); err != nil {
				return fmt.Errorf("loadgen: autoscale resize to %d: %w", target, err)
			}
		}
	}
	return nil
}

// Actions is the autoscaler's resize log so far, in order.
func (p *Replay) Actions() []autoscale.Action {
	if p.ctl == nil {
		return nil
	}
	return p.ctl.Actions()
}

// fireThrough fires every action due at or before offset at.
func (p *Replay) fireThrough(at time.Duration) error {
	for due, ok := p.Next(); ok && due <= at; due, ok = p.Next() {
		if err := p.Fire(); err != nil {
			return err
		}
	}
	return nil
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

// RunOpen replays workload queries against the fleet as an open-loop
// arrival process drawn from modeltime per class (see
// OpenConfig.Classes). col must be installed as the fleet's Observer; it
// is reset at the start of the run. The call returns after every
// scheduled request has been served or shed.
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
		Arrivals:   "mixed",
	}
	if classes := cfg.classes(r.Users); len(classes) == 1 {
		r.Arrivals = classes[0].Arrivals.String()
		if classes[0].Arrivals == modeltime.Diurnal {
			r.DiurnalPeak = classes[0].DiurnalPeak
			if r.DiurnalPeak == 0 {
				r.DiurnalPeak = modeltime.DefaultPeakTrough
			}
		}
	}
	err = replaySchedule(&r, f, col, events, cfg)
	return r, err
}

// replaySchedule is the open-loop run RunOpen and RunTrace share:
// release events on their offsets whether or not the fleet keeps up,
// firing cfg's control plane before each, bucket arrivals (and sheds)
// into the offered curve over cfg.Duration, and drain.
func replaySchedule(r *Report, f *fleet.Fleet, col *Collector, events []TraceEvent, cfg OpenConfig) error {
	var (
		p              *Replay
		offered, sheds [curveBuckets]uint64
		maxLag         time.Duration
	)
	err := measure(r, f, col, cfg.Resize, func() (err error) {
		if p, err = NewReplay(f, cfg, events); err != nil {
			return err
		}
		start := time.Now()
		for _, ev := range events {
			if err := p.fireThrough(ev.At); err != nil {
				return err
			}
			if wait := ev.At - time.Since(start); wait > 0 {
				time.Sleep(wait)
			} else if lag := -wait; lag > maxLag {
				maxLag = lag
			}
			b := min(max(int(int64(ev.At)*curveBuckets/int64(cfg.Duration)), 0), curveBuckets-1)
			offered[b]++
			if !f.Submit(fleet.Request{User: ev.User, Query: ev.Query, Click: ev.Click, Class: ev.Class}) {
				sheds[b]++
			}
		}
		if err := p.fireThrough(math.MaxInt64); err != nil {
			return err
		}
		f.Drain()
		return nil
	})
	if err != nil {
		return err
	}
	r.MaxScheduleLagNS = int64(maxLag)
	r.OfferedCurve, r.PeakTroughServedRatio = offeredCurve(cfg.Duration, offered[:], sheds[:])
	if p.ctl != nil {
		r.Autoscale = autoscaleReport(p.ctl, f.NumShards())
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
	// Seed is recorded in the report (closed-loop arrivals are fully
	// determined by the generator's own seed).
	Seed int64
	// Resize is the wall-timer live resize.
	Resize WallResize
	// Classes are the run's client classes: a user whose index falls in
	// a class's [Lo, Hi) range issues requests carrying the class tag,
	// paced by the class's Pacer and capped by its MaxQueriesPerUser.
	// Users outside every range — everyone, when empty — run untagged,
	// unpaced and uncapped.
	Classes []ClosedClassConfig
	// Scenario labels the report (Report.Scenario).
	Scenario string
}

// ClosedClassConfig is one client class of a closed-loop run.
type ClosedClassConfig struct {
	// Name is the SLO-class tag stamped on the class's requests, so the
	// report carries a per-class breakdown; it never affects serving or
	// per-user outcomes.
	Name string
	// Lo and Hi bound the class's user indices ([Lo, Hi)).
	Lo, Hi int
	// Pace, when enabled, makes each class user "think" for their
	// modeled response time (wall-compressed by Pace.Scale) before
	// issuing the next query. Pacing is wall-clock only — it inserts
	// real sleeps between a user's own requests and never touches model
	// state — so per-user outcomes are byte-identical to an unpaced run
	// on the same tape. The zero value is the unpaced
	// as-fast-as-possible protocol.
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
	u := g.Config().Universe

	r := Report{
		Mode:     "closed",
		Scenario: cfg.Scenario,
		Seed:     cfg.Seed,
		Users:    cfg.Users,
	}
	err := measure(&r, f, col, cfg.Resize, func() error {
		var deadline time.Time
		if cfg.Duration > 0 {
			deadline = time.Now().Add(cfg.Duration)
		}
		var wg sync.WaitGroup
		for i := 0; i < cfg.Users; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var cls ClosedClassConfig
				for _, cc := range cfg.Classes {
					if i >= cc.Lo && i < cc.Hi {
						cls = cc
						break
					}
				}
				cur := g.Cursor(profiles[i], cfg.Month)
				for n := 0; cls.MaxQueriesPerUser <= 0 || n < cls.MaxQueriesPerUser; n++ {
					if cfg.Duration > 0 && !time.Now().Before(deadline) {
						break
					}
					e, month := cur.Next()
					if cfg.Duration <= 0 && month > cfg.Month {
						break
					}
					resp := f.Do(request(u, e, cls.Name))
					if resp.Shed || resp.Err != nil {
						continue
					}
					if d := cls.Pace.Pause(resp.Outcome.ResponseTime()); d > 0 {
						time.Sleep(d)
					}
				}
			}(i)
		}
		wg.Wait()
		return nil
	})
	if err != nil {
		return Report{}, err
	}
	for _, cc := range cfg.Classes {
		if cc.Pace.Enabled() && !r.Paced {
			r.Paced, r.PaceScale = true, cc.Pace.Scale
		}
	}

	// The per-class mean of the fleet's per-user hit rates, summed in
	// user-ID order like fleet.MeanUserHitRate (profiles[i].ID == i).
	classSum := make(map[string]float64)
	classN := make(map[string]int)
	for _, uc := range f.UserServeCounts() {
		if uc.Served == 0 || int(uc.User) >= len(profiles) {
			continue
		}
		name := profiles[uc.User].Class.String()
		classSum[name] += float64(uc.Hits) / float64(uc.Served)
		classN[name]++
	}
	if len(classN) > 0 {
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
		out[i] = request(u, e, "")
	}
	return out
}
