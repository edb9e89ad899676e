package scenario

import (
	"fmt"
	"sort"

	"pocketcloudlets/internal/autoscale"
	"pocketcloudlets/internal/backend"
	"pocketcloudlets/internal/faults"
	"pocketcloudlets/internal/fleet"
	"pocketcloudlets/internal/loadgen"
	"pocketcloudlets/internal/modeltime"
	"pocketcloudlets/internal/placement"
	"pocketcloudlets/internal/radio"
	"pocketcloudlets/internal/searchlog"
	"pocketcloudlets/internal/workload"
)

// defaultShards mirrors the fleet's default shard count, needed here
// to size a ring placement when the spec leaves fleet.shards zero.
const defaultShards = 8

// ClassRange is one class's slice of the user population. Classes own
// contiguous index ranges, and the workload generator guarantees
// profiles[i].ID == UserID(i), so a range of indices is also a range
// of user IDs — which keeps the class lookup a pure function of the
// user ID (required for migration-safe cohorts) and lets per-class
// arrival tapes filter the month log by ID.
type ClassRange struct {
	// Name is the class name from the spec; SLO the tag its requests
	// carry.
	Name string
	SLO  string
	// Lo and Hi bound the class's user indices ([Lo, Hi)).
	Lo, Hi int
}

// Compiled is a validated spec lowered onto the serving machinery:
// generator configs for the spec's mode, fleet cohorts for per-class
// devices and faults, and the class→user assignment that ties them
// together.
type Compiled struct {
	// Spec is the compiled spec, defaults resolved.
	Spec *Spec
	// Source is where the spec came from (preset name or file path).
	Source string
	// Ranges assigns users to classes; empty when the spec has no
	// classes.
	Ranges []ClassRange
	// Open and Closed are the generator configs; the one matching
	// Spec.Mode is authoritative (trace mode uses neither). Callers may
	// tweak them before Run.
	Open   loadgen.OpenConfig
	Closed loadgen.ClosedConfig

	cohorts  []fleet.Cohort
	cohortOf func(searchlog.UserID) int
}

// Compile validates a spec and lowers it. source labels the spec's
// origin in errors and reports.
func Compile(spec *Spec, source string) (*Compiled, error) {
	p := &problems{}
	spec.withDefaults()
	validateSpec(p, spec)
	if len(p.list) > 0 {
		return nil, &Error{Problems: p.list}
	}

	c := &Compiled{Spec: spec, Source: source}
	var err error
	if c.Ranges, err = apportion(spec.Users, spec.Classes); err != nil {
		return nil, err
	}
	if err := c.buildCohorts(); err != nil {
		return nil, err
	}

	label := spec.Name
	if label == "" {
		label = source
	}
	// A spec without classes is one flat class over everyone, tagged
	// "default".
	classes, ranges := spec.Classes, c.Ranges
	if len(classes) == 0 {
		classes = []ClassSpec{{SLOClass: "default", Share: 1}}
		ranges = []ClassRange{{Hi: spec.Users}}
	}
	switch spec.Mode {
	case "open":
		c.Open = loadgen.OpenConfig{
			QPS:         spec.QPS,
			Duration:    spec.Duration.D(),
			Month:       spec.Month,
			Seed:        spec.Seed,
			MaxRequests: spec.MaxRequests,
			Events:      spec.timeline(),
			Scenario:    label,
		}
		if a := spec.Fleet.Autoscale; a != nil {
			c.Open.Autoscale = &autoscale.Config{
				Interval:     a.Interval.D(),
				Min:          a.Min,
				Max:          a.Max,
				High:         a.High,
				Low:          a.Low,
				UpAfter:      a.UpAfter,
				DownAfter:    a.DownAfter,
				RatePerShard: a.RatePerShard,
			}
		}
		for ci, cs := range classes {
			oc := loadgen.OpenClassConfig{
				Name:     cs.SLOClass,
				Lo:       ranges[ci].Lo,
				Hi:       ranges[ci].Hi,
				QPSShare: cs.effectiveRateFraction(),
			}
			if a := cs.Arrival; a != nil {
				oc.Arrivals, _ = modeltime.ParseKind(a.Process)
				oc.DiurnalPeak, oc.DiurnalPeriod = a.PeakTrough, a.Period.D()
			}
			c.Open.Classes = append(c.Open.Classes, oc)
		}
	case "closed":
		c.Closed = loadgen.ClosedConfig{
			Users:    spec.Users,
			Month:    spec.Month,
			Duration: spec.Duration.D(),
			Seed:     spec.Seed,
			Events:   spec.timeline(),
			Scenario: label,
		}
		for ci, cs := range classes {
			cc := loadgen.ClosedClassConfig{
				Name:              cs.SLOClass,
				Lo:                ranges[ci].Lo,
				Hi:                ranges[ci].Hi,
				MaxQueriesPerUser: cs.MaxQueriesPerUser,
			}
			if t := cs.Think; t != nil {
				cc.Pace = modeltime.Pacer{Scale: t.Scale, MaxPause: t.MaxPause.D()}
			}
			c.Closed.Classes = append(c.Closed.Classes, cc)
		}
	}
	return c, nil
}

// timeline lowers the spec's resize events onto the generator's
// model-time timeline; outage events stay in the spec and lower onto the
// fault profile in FleetConfig. Validation already sorted the events.
func (s *Spec) timeline() []loadgen.TimelineEvent {
	var tl []loadgen.TimelineEvent
	for _, ev := range s.Events {
		if ev.Resize > 0 {
			tl = append(tl, loadgen.TimelineEvent{At: ev.At.D(), ResizeTo: ev.Resize, DropState: ev.Drop})
		}
	}
	return tl
}

// apportion assigns spec.Users to classes by largest remainder:
// every class gets ⌊share·users⌋, and the leftover seats go to the
// largest fractional remainders (ties to the earlier class), so the
// total is exact and the assignment is deterministic.
func apportion(users int, classes []ClassSpec) ([]ClassRange, error) {
	if len(classes) == 0 {
		return nil, nil
	}
	counts := make([]int, len(classes))
	rem := make([]float64, len(classes))
	assigned := 0
	for i, cs := range classes {
		exact := cs.Share * float64(users)
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		assigned += counts[i]
	}
	order := make([]int, len(classes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for k := 0; assigned < users; k++ {
		counts[order[k%len(order)]]++
		assigned++
	}
	ranges := make([]ClassRange, len(classes))
	lo := 0
	for i, cs := range classes {
		if counts[i] == 0 {
			return nil, &Error{Problems: []string{fmt.Sprintf(
				"classes[%d]: %q rounds to zero users (share %g of %d); raise the share or the population",
				i, cs.Name, cs.Share, users)}}
		}
		ranges[i] = ClassRange{Name: cs.Name, SLO: cs.SLOClass, Lo: lo, Hi: lo + counts[i]}
		lo += counts[i]
	}
	return ranges, nil
}

// buildCohorts lowers per-class device and fault overrides onto
// fleet.Cohort entries. Classes that override nothing produce no
// cohort table at all, keeping the fleet on the uniform legacy path.
func (c *Compiled) buildCohorts() error {
	s := c.Spec
	needed := false
	for _, cs := range s.Classes {
		if cs.Device != "" || cs.Faults != nil || cs.Hedge != nil {
			needed = true
			break
		}
	}
	if !needed {
		return nil
	}
	for i, cs := range s.Classes {
		var co fleet.Cohort
		co.Name = cs.Name
		if cs.Device != "" {
			co.Radio = radioParams(cs.Device)
		}
		if cs.Faults != nil {
			opts, err := faultOptions(s.Seed, cs.Faults)
			if err != nil {
				return fmt.Errorf("scenario: classes[%d].faults: %w", i, err)
			}
			co.Faults = &opts
			if cs.Faults.Retries > 0 {
				co.Retry = &faults.RetryPolicy{MaxAttempts: cs.Faults.Retries}
			}
		}
		if cs.Hedge != nil {
			co.Hedge = &faults.HedgePolicy{
				CloneFactor: cs.Hedge.CloneFactor,
				Delay:       cs.Hedge.Delay.D(),
				MaxInflight: cs.Hedge.MaxInflight,
			}
		}
		c.cohorts = append(c.cohorts, co)
	}
	ranges := c.Ranges
	c.cohortOf = func(uid searchlog.UserID) int {
		for i := range ranges {
			if int(uid) >= ranges[i].Lo && int(uid) < ranges[i].Hi {
				return i
			}
		}
		return -1
	}
	return nil
}

// radioParams maps a validated radio tier name to its parameter set.
func radioParams(name string) radio.Params {
	switch name {
	case "edge":
		return radio.EDGE()
	case "wifi":
		return radio.WiFi()
	default:
		return radio.ThreeG()
	}
}

// faultOptions lowers a fault spec to injector options. The spec seed
// defaults to the scenario seed so one knob reseeds the whole run.
func faultOptions(scenarioSeed int64, f *FaultSpec) (faults.Options, error) {
	opts := faults.Options{
		Enabled:       true,
		Seed:          f.Seed,
		LossProb:      f.Loss,
		EngineErrProb: f.EngineErr,
	}
	if opts.Seed == 0 {
		opts.Seed = scenarioSeed
	}
	if f.Outage != "" {
		every, down, windows, err := faults.ParseOutageSpec(f.Outage)
		if err != nil {
			return faults.Options{}, err
		}
		opts.OutageEvery, opts.OutageFor, opts.Windows = every, down, windows
	}
	return opts, nil
}

// FleetConfig builds the fleet configuration the scenario runs
// against. The caller owns Engine, Content and Options (they come from
// the simulation facade); everything else — sharding, radio, budgets,
// batching, faults, cohorts — comes from the spec.
func (c *Compiled) FleetConfig(obs fleet.Observer) (fleet.Config, error) {
	s := c.Spec
	cfg := fleet.Config{
		Shards: s.Fleet.Shards,
		// The workload generator numbers its profiles 0..Users-1, so the
		// population is a contiguous ID range and every shard can index
		// residents through dense slots instead of a hash map.
		Population:   s.Users,
		Workers:      s.Fleet.Workers,
		QueueDepth:   s.Fleet.Queue,
		Radio:        radioParams(s.Fleet.Radio),
		PerUserBytes: s.Fleet.UserBudgetBytes,
		Batch: fleet.BatchOptions{
			Enabled:  s.Fleet.Batch.Enabled,
			MaxBatch: s.Fleet.Batch.Max,
			Linger:   s.Fleet.Batch.Linger.D(),
		},
		Replicas: s.Fleet.Replicas,
		Cohorts:  c.cohorts,
		CohortOf: c.cohortOf,
		Observer: obs,
	}
	// Load runs measure latency, energy and hit rates — nothing reads
	// Outcome.Results or asks for a completion — so serving skips
	// materializing result structs and builds no auto-suggest index.
	// Latencies, energy and hit/miss classification are unchanged
	// (the pocketsearch.Options DiscardResults and DisableSuggest
	// contracts).
	cfg.Options.DiscardResults = true
	cfg.Options.DisableSuggest = true
	if s.Fleet.Placement == "ring" {
		n := s.Fleet.Shards
		if n == 0 {
			n = defaultShards
		}
		ring, err := placement.NewRing(n, s.Fleet.VNodes)
		if err != nil {
			return fleet.Config{}, err
		}
		cfg.Shards, cfg.Placement = n, ring
	}
	if s.Faults != nil {
		opts, err := faultOptions(s.Seed, s.Faults)
		if err != nil {
			return fleet.Config{}, fmt.Errorf("scenario: faults: %w", err)
		}
		cfg.Faults = opts
		cfg.Retry = faults.RetryPolicy{MaxAttempts: s.Faults.Retries}
	}
	// Outage events lower onto the fleet-wide fault profile as absolute
	// windows; a spec with no profile gets a windows-only injector
	// seeded from the scenario seed. Classes overriding faults keep
	// their own profile — event outages are a fleet-wide condition.
	for _, ev := range s.Events {
		if ev.Outage <= 0 {
			continue
		}
		if !cfg.Faults.Enabled {
			cfg.Faults = faults.Options{Enabled: true, Seed: s.Seed}
		}
		cfg.Faults.Windows = append(cfg.Faults.Windows, faults.Window{
			Start: ev.At.D(), End: ev.At.D() + ev.Outage.D(),
		})
	}
	if b := s.Fleet.Backend; b != nil {
		// Validation already vetted the spellings; replicas and clone
		// factor are derived by the fleet from its own configuration.
		disc, _ := backend.ParseDiscipline(b.Discipline)
		dist, _ := backend.ParseDist(b.Dist)
		cfg.Backend = backend.Options{
			Enabled:     true,
			Seed:        b.Seed,
			ServiceRate: float64(b.ServiceRate),
			QueueDepth:  b.Queue,
			Discipline:  disc,
			Dist:        dist,
			Offered:     b.Offered,
			CancelOnWin: b.CancelOnWin,
		}
		if cfg.Backend.Seed == 0 {
			cfg.Backend.Seed = s.Seed
		}
	}
	return cfg, nil
}

// Run drives the fleet with the compiled scenario and returns the
// loadgen report. col must be installed as the fleet's Observer.
func (c *Compiled) Run(f *fleet.Fleet, col *loadgen.Collector, g *workload.Generator) (loadgen.Report, error) {
	switch c.Spec.Mode {
	case "open":
		return loadgen.RunOpen(f, col, g, c.Open)
	case "closed":
		return loadgen.RunClosed(f, col, g, c.Closed)
	case "trace":
		events, err := ReadTraceFile(c.Spec.Trace)
		if err != nil {
			return loadgen.Report{}, err
		}
		label := c.Spec.Name
		if label == "" {
			label = c.Source
		}
		return loadgen.RunTrace(f, col, events, loadgen.TraceConfig{
			Seed:     c.Spec.Seed,
			Users:    c.Spec.Users,
			Scenario: label,
			Horizon:  c.Spec.Duration.D(),
		})
	}
	return loadgen.Report{}, fmt.Errorf("scenario: unknown mode %q", c.Spec.Mode)
}

// Materialize draws the open-loop schedule as concrete trace events —
// what cmd/tracegen records and trace mode replays.
func (c *Compiled) Materialize(g *workload.Generator) ([]loadgen.TraceEvent, error) {
	if c.Spec.Mode != "open" {
		return nil, fmt.Errorf("scenario: only open mode materializes a schedule (mode is %q)", c.Spec.Mode)
	}
	return loadgen.OpenEvents(g, c.Open)
}
