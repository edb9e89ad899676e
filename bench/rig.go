package main

import (
	"embed"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pocketcloudlets"
	"pocketcloudlets/internal/autoscale"
	"pocketcloudlets/internal/fleet"
	"pocketcloudlets/internal/loadgen"
	"pocketcloudlets/internal/scenario"
	"pocketcloudlets/internal/searchlog"
)

// unitKind is how a workload turns its inputs into measured units.
type unitKind int

const (
	// passes: one primed fleet; a unit is one closed-loop replay of
	// every user's tape.
	passes unitKind = iota
	// fills: a fresh fleet per unit; a unit is one closed-loop replay of
	// every user's tape into it.
	fills
	// scenarioRuns: a fresh fleet per unit; a unit is one
	// (*scenario.Compiled).Run of the open-loop spec.
	scenarioRuns
)

// workloadDef is one benchmark workload. Its inputs — population,
// community share, fleet shape, fault profile, arrival process — live
// in scenarios/<name>.json; the fields here are what the spec format
// does not carry.
type workloadDef struct {
	name string
	why  string
	kind unitKind
	// contributors builds community content from the first N users'
	// month-0 logs; zero uses the whole population.
	contributors int
	// disablePersonalization keeps misses misses: nothing a user clicks
	// is cached, so the steady state stays on the cloud path.
	disablePersonalization bool
	// primePasses replays every tape this many times during set-up
	// (passes workloads only).
	primePasses int
}

var workloads = []workloadDef{
	{
		name: "hit_closed", kind: passes, primePasses: 2,
		why: "read path: warmed personal/community hits, closed loop, so an added hop or lookup cost shows as lost throughput",
	},
	{
		name: "cold_fill", kind: fills, contributors: 100,
		why: "write path: fresh fleet filled by every user's month, so user materialisation, cache expansion and GC dominate",
	},
	{
		name: "fault_hedge", kind: passes, primePasses: 1, disablePersonalization: true,
		why: "miss path under faults: retry ladders, hedged clones and queued-backend pricing dominate; hits are a minority",
	},
	{
		name: "day_replay", kind: scenarioRuns,
		why: "open-loop diurnal day through the product's own driver with autoscaling: schedule build, drains and live resizes",
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

//go:embed scenarios/*.json
var scenarioFS embed.FS

// digestUnit is the index of the passes unit after which the fleet's
// cumulative model state is the workload's digest. Every run makes at
// least minUnits units, so the point is always reached.
const (
	digestUnit = 1
	minUnits   = 3
)

// stageTimes are the wall durations of the set-up stages, reported by
// the traced pass as per-layer metrics.
type stageTimes struct {
	compile, content, tapes, fleetNew time.Duration
}

// rig is one built workload: the simulated ecosystem, the request
// tapes, and the fleet currently being measured.
type rig struct {
	def   *workloadDef
	seed  int64
	scale int

	spec    *scenario.Spec
	comp    *scenario.Compiled
	sim     *pocketcloudlets.Simulation
	content pocketcloudlets.Content
	// tapes holds every user's requests in submission order, indexed by
	// user ID: the month-1 stream for closed-loop workloads, the
	// scenario's materialized events for day_replay (probes only — its
	// measured units go through Run).
	tapes    [][]fleet.Request
	requests int64
	clients  int

	// cfg is the configuration the current fleet was built from.
	cfg fleet.Config
	f   *fleet.Fleet
	col *loadgen.Collector
	// tr wraps col in the traced pass; nil in the timed pass, where the
	// fleet observes straight into the product's collector.
	tr *tracer
	// passesDone counts tape replays into the current fleet; it keys the
	// per-user request sequence numbers spans share.
	passesDone int
	// heapBase is the live heap just before the current fleet was built.
	heapBase uint64
	stages   stageTimes
}

// newRig performs a workload's whole set-up: everything between
// process start and the first timed request. traced installs the
// span-recording observer.
func newRig(def *workloadDef, seed int64, scale int, traced bool) (*rig, error) {
	r := &rig{def: def, seed: seed, scale: scale, clients: min(runtime.NumCPU(), 4)}
	if traced {
		// On from the start: priming is where a warmed workload's cloud
		// misses are, and their serve times belong in the per-layer view.
		r.tr = newTracer()
		r.tr.on.Store(true)
	}

	t0 := time.Now()
	raw, err := scenarioFS.ReadFile("scenarios/" + def.name + ".json")
	if err != nil {
		return nil, err
	}
	if r.spec, err = scenario.Parse(raw); err != nil {
		return nil, err
	}
	// The one seed reaches every generator: workload streams and arrival
	// schedule through the spec seed, fault and backend hashes through
	// their zero-means-scenario-seed defaults.
	r.spec.Seed = seed
	if scale > 1 {
		// The short scale keeps rates and shrinks populations, horizons and
		// queues, so an open-loop replay stays time-compressed (the product's
		// replayer still never sleeps).
		r.spec.Users = max(r.spec.Users/scale, 16)
		r.spec.Duration /= scenario.Duration(scale)
		r.spec.Fleet.Queue /= scale
		if as := r.spec.Fleet.Autoscale; as != nil {
			as.Interval /= scenario.Duration(scale)
		}
	}
	if r.comp, err = scenario.Compile(r.spec, def.name); err != nil {
		return nil, err
	}
	if _, err := r.comp.FleetConfig(nil); err != nil {
		return nil, err
	}
	r.stages.compile = time.Since(t0)

	t0 = time.Now()
	ucfg := scenario.UniverseConfig()
	r.sim, err = pocketcloudlets.NewSimulation(pocketcloudlets.SimConfig{
		Seed: seed, Users: r.spec.Users, UniverseConfig: &ucfg,
	})
	if err != nil {
		return nil, err
	}
	r.content, err = r.sim.CommunityContentFrom(r.spec.Month-1, r.spec.CommunityShare, def.contributors)
	if err != nil {
		return nil, err
	}
	r.stages.content = time.Since(t0)

	t0 = time.Now()
	if def.kind == scenarioRuns {
		if traced {
			// Only the traced pass re-drives and probes from the events;
			// the timed pass leaves the schedule build inside Run.
			events, err := r.comp.Materialize(r.sim.Generator)
			if err != nil {
				return nil, err
			}
			r.tapes = tapesFromEvents(events, r.spec.Users)
		}
	} else {
		profiles := r.sim.Generator.Users()
		r.tapes = make([][]fleet.Request, len(profiles))
		for i, up := range profiles {
			r.tapes[i] = loadgen.Tape(r.sim.Generator, up, r.spec.Month)
		}
	}
	for _, t := range r.tapes {
		r.requests += int64(len(t))
	}
	r.stages.tapes = time.Since(t0)

	if err := r.freshFleet(); err != nil {
		return nil, err
	}
	for p := 0; p < def.primePasses; p++ {
		if _, failed := r.replay(); failed > 0 {
			r.close()
			return nil, fmt.Errorf("%s: %d requests failed while priming", def.name, failed)
		}
	}
	return r, nil
}

// tapesFromEvents groups a materialized schedule by user, keeping each
// user's submission order.
func tapesFromEvents(events []loadgen.TraceEvent, users int) [][]fleet.Request {
	tapes := make([][]fleet.Request, users)
	for _, ev := range events {
		tapes[ev.User] = append(tapes[ev.User], fleet.Request{
			User: ev.User, Query: ev.Query, Click: ev.Click, Class: ev.Class,
		})
	}
	return tapes
}

// freshFleet replaces the current fleet with a newly built one, taking
// the live-heap baseline first.
func (r *rig) freshFleet() error {
	r.close()
	r.heapBase = liveHeap()

	t0 := time.Now()
	r.col = loadgen.NewCollector()
	var obs fleet.Observer = r.col
	if r.tr != nil {
		r.tr.reset(r.col, r.spec.Users)
		obs = r.tr
	}
	cfg, err := r.comp.FleetConfig(obs)
	if err != nil {
		return err
	}
	// What a load run at scale sets (cmd/loadtest -nosuggest): nothing
	// modeled reads the completion index.
	cfg.Options.DisableSuggest = true
	cfg.Options.DisablePersonalization = r.def.disablePersonalization
	// No workload times time.Sleep: retry pacing is wall-clock only and
	// never alters a modeled outcome.
	cfg.Retry.WallPauseScale = -1
	if r.f, err = r.sim.NewFleet(r.content, cfg); err != nil {
		return err
	}
	r.cfg = cfg
	r.stages.fleetNew = time.Since(t0)
	r.passesDone = 0
	return nil
}

func (r *rig) close() {
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapPerUser is the current fleet's live heap divided by its resident
// users: everything the fleet holds — community replicas, arenas,
// per-user devices and caches — over the users it holds it for.
func (r *rig) heapPerUser() float64 {
	users := r.f.Stats().Users
	if users == 0 {
		return 0
	}
	live := liveHeap()
	if live < r.heapBase {
		return 0
	}
	return float64(live-r.heapBase) / float64(users)
}

// unitSample is one measured unit.
type unitSample struct {
	requests int64
	failed   int64
	wall     time.Duration
	// digest is set when the unit's end state is a digest point.
	digest digest
}

// prepare readies the fleet unit i measures, outside the timed window:
// fresh-fleet workloads build a new one (unit 0 uses the one set-up
// built).
func (r *rig) prepare(i int) error {
	if r.def.kind != passes && i > 0 {
		return r.freshFleet()
	}
	return nil
}

// unit runs measured unit i on the prepared fleet.
func (r *rig) unit(i int) (unitSample, error) {
	var s unitSample
	if r.def.kind == scenarioRuns {
		var actions []autoscale.Action
		if r.tr != nil && r.tr.on.Load() {
			t0 := time.Now()
			var err error
			if actions, s.failed, err = r.redrive(); err != nil {
				return s, err
			}
			s.wall = time.Since(t0)
			s.requests = r.requests
		} else {
			t0 := time.Now()
			rep, err := r.comp.Run(r.f, r.col, r.sim.Generator)
			if err != nil {
				return s, err
			}
			s.wall = time.Since(t0)
			s.requests = int64(rep.Requests)
			s.failed = int64(rep.Shed + rep.Errors + rep.Canceled)
			if rep.Autoscale != nil {
				for _, a := range rep.Autoscale.Actions {
					actions = append(actions, autoscale.Action{
						At: time.Duration(a.AtNS), From: a.From, To: a.To, Occupancy: a.Occupancy,
					})
				}
			}
		}
		s.digest = fleetDigest(r.f, actions)
		return s, nil
	}
	t0 := time.Now()
	s.requests, s.failed = r.replay()
	s.wall = time.Since(t0)
	if r.def.kind == fills || i == digestUnit {
		s.digest = fleetDigest(r.f, nil)
	}
	return s, nil
}

// replay is one closed-loop pass: client goroutines claim whole users
// off a shared counter and call Fleet.Do for each of the user's
// requests in order, so users are disjoint between clients, every
// user's requests stay ordered, and no client idles while tapes
// remain. It returns the requests made and how many failed (shed,
// errored or canceled).
func (r *rig) replay() (requests, failed int64) {
	var (
		next         atomic.Int64
		nReq, nFail  atomic.Int64
		wg           sync.WaitGroup
		tr           = r.tr
		pass         = r.passesDone
		tracing      = tr != nil && tr.on.Load()
		clientTraces = make([][]span, r.clients)
	)
	if tracing {
		tr.seedSequences(func(uid int) uint32 { return uint32(pass * len(r.tapes[uid])) })
	}
	for c := 0; c < r.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var n, bad int64
			for {
				u := int(next.Add(1)) - 1
				if u >= len(r.tapes) {
					break
				}
				tape := r.tapes[u]
				base := pass * len(tape)
				for i, req := range tape {
					// Every sampleEvery-th request of a user is timed from the
					// caller's side; the observer samples the same ones, so
					// the two spans share a request id.
					sampled := tracing && (base+i)%sampleEvery == 0
					var t0 time.Time
					if sampled {
						t0 = time.Now()
					}
					resp := r.f.Do(req)
					if sampled {
						clientTraces[c] = append(clientTraces[c], span{
							Name: "fleet.Do", Start: tr.rel(t0), End: tr.rel(time.Now()),
							Parent: tr.unitSpan, Req: requestID(req.User, uint32(base+i)),
						})
					}
					if resp.Shed || resp.Canceled || resp.Err != nil {
						bad++
					}
				}
				n += int64(len(tape))
			}
			nReq.Add(n)
			nFail.Add(bad)
		}(c)
	}
	wg.Wait()
	r.passesDone++
	if tracing {
		for _, ct := range clientTraces {
			tr.addRequestSpans(ct)
		}
	}
	return nReq.Load(), nFail.Load()
}

// requestID is the identifier the spans of one request share: the user
// and the request's position in that user's submission order.
func requestID(uid searchlog.UserID, seq uint32) uint64 {
	return uint64(uid)<<32 | uint64(seq)
}
