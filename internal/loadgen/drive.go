package loadgen

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"pocketcloudlets/internal/autoscale"
	"pocketcloudlets/internal/engine"
	"pocketcloudlets/internal/fleet"
	"pocketcloudlets/internal/modeltime"
	"pocketcloudlets/internal/searchlog"
	"pocketcloudlets/internal/workload"
)

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
	// Events are resize events executed at model offsets of the arrival
	// schedule (see Replay), so an event's position in the tape — and
	// with it every per-user outcome — is a pure function of the spec.
	// Must be sorted by At.
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

// TimelineEvent is one scheduled resize of a run's event timeline.
type TimelineEvent struct {
	// At is the model offset from the start of the run: of the arrival
	// schedule in an open-loop run, of the users' month logs in a
	// closed-loop one (see RunClosed).
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
// the baseline, drive, and fill r from the deltas.
func measure(r *Report, f *fleet.Fleet, col *Collector, drive func() error) error {
	base, err := begin(f, col)
	if err != nil {
		return err
	}
	start := time.Now()
	if err := drive(); err != nil {
		return err
	}
	fill(r, f, col, base, time.Since(start))
	return nil
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

// classSpec is one class's arrival spec. Its schedule is a pure
// function of the spec — an open-loop generator must not let fleet
// backpressure slow the arrivals.
func classSpec(g *workload.Generator, cfg OpenConfig, cc OpenClassConfig, seed int64, maxReq int) modeltime.Spec {
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
	return spec
}

// classDraw returns one class's event source: the next arrival of seq,
// made a concrete request. A per-user arrival replays its user's own
// stream; every other arrival takes the next entry of the class's tape —
// the run's month log filtered to the class's users — wrapping if the
// schedule outruns it.
func classDraw(g *workload.Generator, cfg OpenConfig, cc OpenClassConfig, seq *modeltime.Sequence, tape []searchlog.Entry, texts *pairTexts) func() (TraceEvent, bool) {
	profiles := g.Users()
	var cursors []*workload.Cursor
	if cc.Arrivals == modeltime.PerUser {
		cursors = make([]*workload.Cursor, len(profiles))
	}
	next := 0 // the tape entry the next arrival takes
	return func() (TraceEvent, bool) {
		a, ok := seq.Next()
		if !ok {
			return TraceEvent{}, false
		}
		var e searchlog.Entry
		if a.User >= 0 {
			// Per-user arrival: the user replays their own stream, so
			// skewed arrival rates meet matching per-user content.
			if cursors[a.User] == nil {
				cursors[a.User] = g.Cursor(profiles[a.User], cfg.Month)
			}
			e, _ = cursors[a.User].Next()
		} else {
			e = tape[next]
			if next++; next == len(tape) {
				next = 0
			}
		}
		query, click := texts.of(e.Pair)
		return TraceEvent{At: a.At, User: e.User, Class: cc.Name, Query: query, Click: click}, true
	}
}

// request is the fleet request a log entry stands for.
func request(u *engine.Universe, e searchlog.Entry, class string) fleet.Request {
	return fleet.Request{User: e.User, Query: u.QueryText(u.QueryOf(e.Pair)), Click: u.ResultURL(u.ResultOf(e.Pair)), Class: class}
}

// pairTexts interns the request text of each distinct pair of a
// schedule: a tape repeats a Zipf-skewed pair set (a quarter of a day's
// events are distinct), and a query and a click built per event are two
// allocations each. A pair finds its text through a dense index, not a
// map: four bytes a pair of the universe, and one lookup.
type pairTexts struct {
	u     *engine.Universe
	slot  []int32 // 1 + the pair's index in texts; 0 before its first use
	texts [][2]string
}

func (t *pairTexts) of(p searchlog.PairID) (query, click string) {
	i := t.slot[p]
	if i == 0 {
		t.texts = append(t.texts, [2]string{t.u.QueryText(t.u.QueryOf(p)), t.u.ResultURL(t.u.ResultOf(p))})
		i = int32(len(t.texts))
		t.slot[p] = i
	}
	qc := &t.texts[i-1]
	return qc[0], qc[1]
}

// scheduleChunk is how many events an open-loop schedule is drawn in
// at a time. A variable so tests can move the chunk boundaries.
var scheduleChunk = 4096

// scheduleAhead is how many drawn chunks may wait for the release loop:
// enough that the loop, back from a drain, never waits on the producer
// (it waits only for the first chunk), and few enough that a run holds
// about 2 MB of schedule instead of the whole day's.
const scheduleAhead = 8

// eventStream is an open-loop run's request schedule, drawn a chunk at a
// time: each class's events in arrival order, merged by arrival time (a
// tie goes to the lower class, and a class keeps its own order, so the
// merge is deterministic), cut at MaxRequests.
type eventStream struct {
	classes []classHead
	left    int // events the cut still allows
}

// classHead is one class's source and the event it has drawn but the
// merge has not yet taken; ok is false once the class is done.
type classHead struct {
	next func() (TraceEvent, bool)
	ev   TraceEvent
	ok   bool
}

// openStream prepares cfg's schedule: each class's arrival sequence
// checked, its tape cut from the run's month log — built once, whatever
// the number of classes that replay it — and its first event drawn. It
// starts no goroutine, so an error leaves nothing running.
func openStream(g *workload.Generator, cfg OpenConfig) (*eventStream, error) {
	maxReq := cfg.MaxRequests
	if maxReq <= 0 {
		maxReq = 10_000_000
	}
	profiles := g.Users()
	classes := cfg.classes(len(profiles))
	s := &eventStream{left: maxReq}
	u := g.Config().Universe
	texts := &pairTexts{u: u, slot: make([]int32, u.NumPairs())}
	var log []searchlog.Entry
	for ci, cc := range classes {
		seed := cfg.Seed
		if len(classes) > 1 {
			seed = modeltime.DeriveSeed(cfg.Seed, ci)
		}
		seq, err := modeltime.NewSequence(classSpec(g, cfg, cc, seed, maxReq))
		if err != nil {
			return nil, fmt.Errorf("loadgen: %w", err)
		}
		var tape []searchlog.Entry
		if cc.Arrivals != modeltime.PerUser {
			if log == nil {
				log = g.MonthLog(cfg.Month).Entries
			}
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
		c := classHead{next: classDraw(g, cfg, cc, seq, tape, texts)}
		c.ev, c.ok = c.next()
		s.classes = append(s.classes, c)
	}
	return s, nil
}

// fill appends the stream's next chunk, up to scheduleChunk events, to
// buf; it appends none once the stream is done.
func (s *eventStream) fill(buf []TraceEvent) []TraceEvent {
	for n := 0; n < scheduleChunk && s.left > 0; n++ {
		best := -1
		for ci := range s.classes {
			if c := &s.classes[ci]; c.ok && (best < 0 || c.ev.At < s.classes[best].ev.At) {
				best = ci
			}
		}
		if best < 0 {
			s.left = 0
			break
		}
		c := &s.classes[best]
		buf = append(buf, c.ev)
		s.left--
		c.ev, c.ok = c.next()
	}
	return buf
}

// collect draws the whole stream into one slice, copied once from its
// chunks rather than grown.
func (s *eventStream) collect() []TraceEvent {
	var chunks [][]TraceEvent
	for {
		chunk := s.fill(make([]TraceEvent, 0, scheduleChunk))
		if len(chunk) == 0 {
			return slices.Concat(chunks...)
		}
		chunks = append(chunks, chunk)
	}
}

// produce draws the stream on a goroutine of its own, at most
// scheduleAhead chunks ahead of the receiver, and closes chunks after
// the last one. A chunk handed back on spent is drawn into again, so a
// run allocates only the chunks in flight. stop ends the producer early
// and returns once it has exited; a caller defers it, so no producer
// outlives its run.
func (s *eventStream) produce() (chunks <-chan []TraceEvent, spent chan<- []TraceEvent, stop func()) {
	full := make(chan []TraceEvent, scheduleAhead)
	// Room for every chunk there can be: scheduleAhead queued, one being
	// drawn and one being released.
	back := make(chan []TraceEvent, scheduleAhead+2)
	quit, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		defer close(full)
		for {
			var buf []TraceEvent
			select {
			case buf = <-back:
			default:
				buf = make([]TraceEvent, 0, scheduleChunk)
			}
			chunk := s.fill(buf[:0])
			if len(chunk) == 0 {
				return
			}
			select {
			case full <- chunk:
			case <-quit:
				return
			}
		}
	}()
	return full, back, func() {
		close(quit)
		<-exited
	}
}

// OpenEvents materializes an open-loop run's whole request schedule —
// the chunks RunOpen replays, collected.
func OpenEvents(g *workload.Generator, cfg OpenConfig) ([]TraceEvent, error) {
	s, err := openStream(g, cfg)
	if err != nil {
		return nil, err
	}
	return s.collect(), nil
}

// Replay owns the control plane of a run: the scheduled resize events
// and, open loop, the autoscaler's samples, interleaved with the
// requests in model time. A caller fires every action due at or
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
	p, err := newReplay(f, cfg.Events, cfg.Autoscale)
	if err != nil {
		return nil, err
	}
	last := time.Duration(-1)
	if len(events) > 0 {
		last = events[len(events)-1].At
	}
	p.arrivalsEnd(last)
	return p, nil
}

// newReplay starts a control plane of timeline and, when as is
// non-nil, an autoscaler, for a replay whose last arrival is not yet
// known: every sample is due until arrivalsEnd says where the arrivals
// stop, and the replay fires only what is due at or before the arrival
// in hand.
func newReplay(f *fleet.Fleet, timeline []TimelineEvent, as *autoscale.Config) (*Replay, error) {
	p := &Replay{f: f, timeline: timeline, lastSample: -1}
	if as != nil {
		ac := as.WithDefaults(f.NumShards())
		if err := ac.Validate(); err != nil {
			return nil, fmt.Errorf("loadgen: %w", err)
		}
		p.ctl, p.nextSample, p.lastSample = autoscale.New(ac), ac.Interval, math.MaxInt64
	}
	return p, nil
}

// arrivalsEnd records the last arrival's offset, -1 for none: no sample
// is due past it.
func (p *Replay) arrivalsEnd(last time.Duration) {
	if p.ctl != nil {
		p.lastSample = last
	}
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
	s, err := openStream(g, cfg)
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
	chunks, spent, stop := s.produce()
	defer stop()
	err = replaySchedule(&r, f, col, chunks, spent, cfg)
	return r, err
}

// replaySchedule is the open-loop run RunOpen and RunTrace share:
// release events, chunk by chunk, on their offsets whether or not the
// fleet keeps up, firing cfg's control plane before each, bucket
// arrivals (and sheds) into the offered curve over cfg.Duration, and
// drain. A released chunk goes back on spent unless that is full (or
// nil).
func replaySchedule(r *Report, f *fleet.Fleet, col *Collector, chunks <-chan []TraceEvent, spent chan<- []TraceEvent, cfg OpenConfig) error {
	var (
		p              *Replay
		offered, sheds [curveBuckets]uint64
		maxLag         time.Duration
	)
	err := measure(r, f, col, func() (err error) {
		if p, err = newReplay(f, cfg.Events, cfg.Autoscale); err != nil {
			return err
		}
		last := time.Duration(-1)
		start := time.Now()
		for chunk := range chunks {
			for _, ev := range chunk {
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
				last = ev.At
			}
			select {
			case spent <- chunk:
			default:
			}
		}
		p.arrivalsEnd(last)
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
	// A recorded trace is one chunk, and carries no control plane.
	chunks := make(chan []TraceEvent, 1)
	chunks <- events
	close(chunks)
	err := replaySchedule(&r, f, col, chunks, nil, OpenConfig{Duration: horizon})
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
	// Events are resize events executed at model offsets of the users'
	// month logs (see RunClosed). Must be sorted by At.
	Events []TimelineEvent
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
//
// The run fires cfg.Events through the open loop's Replay. A request's
// model offset is its log entry's: (cursor month − first month) × the
// log window + the entry's At. The events cut the run into phases: in
// each, every user who has not finished serves until their next entry
// lies at or past the next event's offset, and once all have stopped
// the events due there fire. Events past every user's last request fire
// after serving, and a run without events is one phase.
func RunClosed(f *fleet.Fleet, col *Collector, g *workload.Generator, cfg ClosedConfig) (Report, error) {
	if g == nil {
		return Report{}, fmt.Errorf("loadgen: a workload generator is required")
	}
	profiles := g.Users()
	if cfg.Users <= 0 || cfg.Users > len(profiles) {
		return Report{}, fmt.Errorf("loadgen: Users must be in [1, %d], got %d", len(profiles), cfg.Users)
	}
	u, window := g.Config().Universe, g.Config().Window

	r := Report{
		Mode:     "closed",
		Scenario: cfg.Scenario,
		Seed:     cfg.Seed,
		Users:    cfg.Users,
	}
	err := measure(&r, f, col, func() error {
		p, err := newReplay(f, cfg.Events, nil)
		if err != nil {
			return err
		}
		var deadline time.Time
		if cfg.Duration > 0 {
			deadline = time.Now().Add(cfg.Duration)
		}
		users := make([]closedUser, cfg.Users)
		// serve sends user i's requests in stream order until one lies at
		// or past bound, which is held for the next phase, or the user is
		// done.
		serve := func(i int, bound time.Duration) {
			cu := &users[i]
			if cu.cur == nil {
				for _, cc := range cfg.Classes {
					if i >= cc.Lo && i < cc.Hi {
						cu.cls = cc
						break
					}
				}
				cu.cur = g.Cursor(profiles[i], cfg.Month)
			}
			for ; cu.cls.MaxQueriesPerUser <= 0 || cu.sent < cu.cls.MaxQueriesPerUser; cu.sent++ {
				if cfg.Duration > 0 && !time.Now().Before(deadline) {
					break
				}
				if !cu.held {
					cu.e, cu.month = cu.cur.Next()
				}
				if cfg.Duration <= 0 && cu.month > cfg.Month {
					break
				}
				if cu.held = time.Duration(cu.month-cfg.Month)*window+cu.e.At >= bound; cu.held {
					return
				}
				resp := f.Do(request(u, cu.e, cu.cls.Name))
				if resp.Shed || resp.Err != nil {
					continue
				}
				if d := cu.cls.Pace.Pause(resp.Outcome.ResponseTime()); d > 0 {
					time.Sleep(d)
				}
			}
			cu.done = true
		}
		for {
			bound, more := p.Next()
			if !more {
				bound = math.MaxInt64
			}
			var wg sync.WaitGroup
			for i := range users {
				if !users[i].done {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						serve(i, bound)
					}(i)
				}
			}
			wg.Wait()
			if !more {
				return nil
			}
			if err := p.fireThrough(bound); err != nil {
				return err
			}
		}
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

// closedUser is one closed-loop user's place in their stream, kept
// from one phase of the run to the next.
type closedUser struct {
	cls   ClosedClassConfig
	cur   *workload.Cursor // nil before the user's first phase
	e     searchlog.Entry  // the entry drawn last; held is set while it waits for a phase
	month int              // e's month
	held  bool
	sent  int // requests sent
	done  bool
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
