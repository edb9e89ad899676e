// Package fleet is the concurrent serving layer that turns the
// single-device PocketSearch reproduction into a multi-user service:
// the back end a carrier or search provider would run to simulate,
// provision and evaluate pocket cloudlets for a whole user population
// at once.
//
// Architecture:
//
//   - The user population is sharded by user hash across N shards.
//     Each shard holds one replica of the shared community cache
//     (preloaded from community logs, read-mostly) plus the personal
//     PocketSearch state of every resident user. A user's state is
//     guarded by one of the shard's user stripes, the community replica
//     by the shard's community lock, taken inside a stripe; lock order
//     is fence stripe → user stripe → arena or community lock.
//   - Who runs a request: a user's state is guarded by their stripe,
//     whichever goroutine serves. W workers drain W bounded queues
//     (shard s → queue s mod W) in FIFO order; a caller that blocks for
//     its answer (Do) and finds nothing pending on that queue serves
//     its own request under the same locks instead, beside callers
//     serving users of the shard's other stripes. One user's requests
//     — a user hashes to one shard and one stripe — are thus applied in
//     submission order for any one submitting goroutine; order across
//     users, or across goroutines racing on one user, is unconstrained.
//     That, plus seedable workloads, makes fleet hit rates
//     reproducible. Workers bounds queue-draining goroutines, not
//     closed-loop parallelism: that is the number of clients.
//   - A cloud miss priced against queued backend replicas is planned by
//     the goroutine serving it with no lock held: pricing replays a
//     replica's background queue, the longest step a request takes. The
//     user's stripe is held only to classify the miss and capture what
//     its plan reads of the user, and then once more to apply it; in
//     between the miss is the user's pending miss, so nothing moves the
//     clock the plan reads.
//   - Submission (Submit) is non-blocking with explicit backpressure:
//     when the shard's queue is full the request is shed and counted,
//     never silently queued without bound (an open-loop load generator
//     must observe overload, not hide it).
//   - Personal state has one eviction policy: Config.PerUserBytes caps
//     each user's personal flash, enforced on every expansion by
//     evicting that user's lowest-utility records. The Section 7
//     multi-cloudlet manager (quotas across cloudlets, coordinated
//     eviction) lives at device level in internal/cloudletos; the fleet
//     does not use it.
//   - With Config.Batch enabled, cloud misses are coalesced: a request
//     is classified under the user's stripe and, if it must go to the
//     cloud, parked with a dispatcher goroutine instead of paying a
//     full radio round trip there. The dispatcher collects concurrent
//     misses (up to MaxBatch, or until the Linger window expires) and
//     fires them as one radio session — one wake-up, one handshake and
//     one tail, amortized across the members (the paper's Section 5
//     energy argument). Determinism is preserved: at most one miss per
//     user is ever in flight, and whoever serves the same user's next
//     request flushes and waits for it first, so per-user hit/miss
//     outcomes are byte-identical to an unbatched fleet's for the same
//     seed (a priced miss being planned obeys the same rule).
//   - Per-user state is compact and arena-allocated so the fleet
//     scales to million-user populations: each shard keeps its users
//     in chunked slabs of by-value userState records, indexed by a
//     dense slot table for IDs below Config.Population (contiguous
//     scenario ranges) with a sparse map fallback for the rest, and a
//     user's simulation objects (device, cache, clock) materialize
//     lazily on their first cloud miss. The steady-state hit path
//     allocates nothing — a caller-run answer is built in the caller's
//     own Response, later ones travel through pooled reply channels,
//     lookups reuse per-cache scratch buffers — and writes no cache line
//     a request on another shard writes (DESIGN.md, "What a request
//     writes"), which TestFleetServe100kUsersAllocatesNothing (package
//     pocketcloudlets) holds at 0 allocations. DESIGN.md's "Capacity
//     model" chapter documents the bytes-per-user budget.
//   - Accounting has one home: every counter serving a request books —
//     tiers, energy, a miss's retries and hedge telemetry, batch
//     sessions, radio wake-ups — lives in the serving
//     shard's padded block, and every fleet-wide total (Stats,
//     EnergyStats, ShardLoads) is one fold over the live blocks plus the
//     block a shrink folds each retired shard into, so a resize never
//     moves a total. Only the migration counters stay on the fleet:
//     the resize writes them, not a request.
//
// Request routing mirrors the paper's two-component cache at fleet
// scale: personal component first, then the shared community replica,
// then the cloud over the radio (which expands the user's personal
// component, Section 5.3).
package fleet

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pocketcloudlets/internal/backend"
	"pocketcloudlets/internal/cachegen"
	"pocketcloudlets/internal/device"
	"pocketcloudlets/internal/energy"
	"pocketcloudlets/internal/engine"
	"pocketcloudlets/internal/faults"
	"pocketcloudlets/internal/flashsim"
	"pocketcloudlets/internal/modeltime"
	"pocketcloudlets/internal/placement"
	"pocketcloudlets/internal/pocketsearch"
	"pocketcloudlets/internal/radio"
	"pocketcloudlets/internal/searchlog"
)

// Source identifies which tier served a request.
type Source int

const (
	// SourceShed marks a request rejected by backpressure.
	SourceShed Source = iota
	// SourcePersonal marks a hit in the user's personal component.
	SourcePersonal
	// SourceCommunity marks a hit in the shared community replica.
	SourceCommunity
	// SourceCloud marks a miss served by the cloud engine over the radio.
	SourceCloud
	// SourceDegraded marks a stale answer served from cached state (the
	// user's personal component or the community replica) after the
	// cloud proved unreachable — the middle rungs of the degradation
	// ladder. The answer is not a hit: the clicked result was not known
	// to be cached.
	SourceDegraded
	// SourceUnavailable marks the explicit degraded response: the cloud
	// was unreachable and no tier held anything for the query, so the
	// device rendered a small local "results unavailable" page instead
	// of erroring.
	SourceUnavailable
	numSources
)

// NumSources is the number of distinct Source values; load generators
// size fixed per-source counter arrays with it instead of growing maps
// on the hot observation path.
const NumSources = int(numSources)

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s {
	case SourceShed:
		return "shed"
	case SourcePersonal:
		return "personal"
	case SourceCommunity:
		return "community"
	case SourceCloud:
		return "cloud"
	case SourceDegraded:
		return "degraded"
	case SourceUnavailable:
		return "unavailable"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// Request is one search interaction to serve on behalf of a user.
type Request struct {
	User  searchlog.UserID
	Query string
	Click string
	// Class is an optional SLO-class tag stamped by the load generator
	// (the scenario layer's client class). It rides through serving
	// unchanged — it never affects routing or outcomes — and reaches
	// the Observer on every response, including shed ones,
	// so reports can break counters down per class.
	Class string
}

// Response describes how one request was (or was not) served.
type Response struct {
	Req Request
	// Shed reports that the request was rejected by backpressure and
	// never served; all other fields except Req are zero.
	Shed   bool
	Source Source
	// Outcome is the device-model serving outcome; its ResponseTime is
	// the modeled user-perceived latency and is deterministic given the
	// workload seed.
	Outcome pocketsearch.Outcome
	// BatchSize is the number of misses that shared this request's
	// radio session: ≥ 1 on a coalesced cloud miss, 0 for hits and for
	// misses served with batching disabled.
	BatchSize int
	// EnergyJ is the modeled energy attributed to this request in
	// joules: device base power over the modeled response time plus
	// RadioJ. RadioJ is the radio-only share — active time of the
	// exchange (a batched miss carries 1/n of the session overhead)
	// plus the session tail, attributed to the exchange that opened the
	// session.
	EnergyJ float64
	RadioJ  float64
	// Wall is the measured wall-clock latency from submission to
	// completion, including queue wait (not deterministic).
	Wall time.Duration
	Err  error
	// Canceled is always false: an admitted request is always served
	// (neither Do nor Submit can be abandoned). The field stays only
	// because the benchmark module (bench/) still reads it.
	Canceled bool
	// Attempts is the number of modeled radio attempts a cloud-path
	// request made under the fault model (1 means the first exchange
	// got through). Zero for local serves, and for every user whose
	// cohort has no fault injector — decided per user, not per fleet:
	// the fault layer must be invisible to anyone it does not inject
	// for, whatever the rest of the fleet runs.
	Attempts int
}

// Hit reports whether the request was served from on-device state.
func (r Response) Hit() bool { return !r.Shed && r.Err == nil && r.Outcome.Hit }

// Observer receives every completed (or shed) response. Observe is
// called concurrently from whichever goroutines serve — workers,
// dispatchers, blocking callers — and must be safe for concurrent use.
type Observer interface {
	Observe(Response)
}

// Config parameterizes a fleet.
type Config struct {
	// Engine is the shared cloud engine (safe to share). Every replica
	// and user database of the fleet stores its records by ID in the
	// engine's record source, which renders them where they are read.
	Engine *engine.Engine
	// Content is the community cache content; every shard preloads a
	// replica.
	Content cachegen.Content
	// Shards is the number of user shards. Zero selects 8.
	Shards int
	// Population, when positive, declares the contiguous user-ID range
	// [0, Population) the workload draws from — what every scenario and
	// tape generator produces. Each shard then indexes its residents
	// through a dense slot array instead of a hash map, which is what
	// makes million-user fleets cheap (~4 B of index per candidate user
	// plus ~100 B of arena slot per resident). Users outside the range
	// still work via a sparse fallback map; Population = 0 keeps every
	// user on the fallback. Purely a memory-layout hint: serving
	// outcomes are identical either way.
	Population int
	// Placement is the user→shard routing policy. Nil selects the
	// legacy static modulo mapping over Shards, byte-identical to the
	// historical fleet routing. A consistent-hash ring
	// (placement.NewRing) makes live resharding cheap: Fleet.Resize
	// then remaps — and migrates — only ~|Δn|/n of the population.
	// When set, Placement.Shards() must agree with Shards.
	Placement placement.Placement
	// Workers is the number of goroutines draining the task queues. Zero
	// selects min(Shards, GOMAXPROCS); values above Shards are clamped
	// (one worker drains a shard's queued tasks, in order). It does not
	// bound closed-loop parallelism: see the package comment.
	Workers int
	// QueueDepth bounds each worker queue's backlog: a submission that
	// finds this many requests waiting is shed. It is a bound, not a
	// reservation — a queue's memory follows what is actually waiting.
	// Zero selects 1024.
	QueueDepth int
	// Options configure each user's personal cache (and, with
	// personalization forced off, the community replicas).
	Options pocketsearch.Options
	// Radio is the radio technology of the simulated devices. Zero
	// value selects 3G.
	Radio radio.Params
	// PerUserBytes caps each user's personal flash footprint; the cap
	// is enforced deterministically on the serving path. Zero means
	// unlimited.
	PerUserBytes int64
	// Batch configures cloud-miss coalescing: concurrent misses share
	// one radio session (one wake-up, one handshake, one tail) instead
	// of paying a full round trip each. The zero value disables it.
	Batch BatchOptions
	// Faults configures the deterministic connectivity-fault model
	// (internal/faults): outage windows, per-attempt loss and transient
	// engine errors on the cloud-miss path. The zero value disables
	// fault injection entirely — the serve path is then byte-identical
	// to a fleet built without the fault layer.
	Faults faults.Options
	// Retry governs how a faulted cloud miss retries: capped
	// exponential backoff in model time with a deadline. Ignored unless
	// Faults.Enabled; zero fields take the defaults.
	Retry faults.RetryPolicy
	// Replicas is the number of modeled cloud engine replicas the miss
	// path may dispatch to. Each replica beyond the first draws its
	// faults from an independently salted injector
	// (faults.ReplicaOptions); replica 0 is byte-identical to the
	// single-backend model. Zero or one is the single backend, on which
	// no cohort hedges whatever its Hedge says. Only meaningful with fault
	// injection on.
	Replicas int
	// Backend configures the modeled cloud backend servers
	// (internal/backend): per-replica queues with finite service
	// capacity, so a miss's exchange pays a queue wait and service time
	// — and may be rejected by a bounded queue — instead of answering
	// instantly. Replicas and CloneFactor are the fleet's to derive: its
	// own Replicas, and the heaviest clone factor any cohort really
	// hedges with (see Cohort.Hedge). Requires fault injection (only an
	// injector's ladder has attempts to price). The zero value — or an
	// infinite ServiceRate — keeps every outcome byte-identical to an
	// unqueued fleet.
	Backend backend.Options
	// Cohorts describe population slices whose devices differ from the
	// fleet-wide defaults — a different radio tier, their own fault
	// profile, their own retry policy — or that hedge their cloud misses.
	// The scenario layer compiles its client classes down to these.
	// Empty means every user runs the fleet-wide Radio/Faults/Retry and
	// nobody hedges.
	Cohorts []Cohort
	// CohortOf maps a user to an index into Cohorts; a negative or
	// out-of-range index selects the fleet-wide defaults. It must be a
	// pure function of the user ID: resharding re-resolves a migrated
	// user's cohort on import, so an impure function would change the
	// user's device mid-run. Required when Cohorts is non-empty.
	CohortOf func(searchlog.UserID) int
	// Observer, when non-nil, receives every response (completed or
	// shed). It must be safe for concurrent use.
	Observer Observer
}

// Cohort overrides per-device serving parameters for one slice of the
// user population. Zero-valued fields inherit the fleet-wide Config.
type Cohort struct {
	// Name labels the cohort in diagnostics; it has no serving effect.
	Name string
	// Radio is the cohort's device radio tier. The zero value inherits
	// Config.Radio. Heterogeneous radios and miss batching do not
	// compose: the shared session is priced on Config.Radio, so callers
	// (the scenario compiler does) must keep radios uniform when
	// Batch.Enabled.
	Radio radio.Params
	// Faults overrides fault injection for the cohort's users. Nil
	// inherits the fleet-wide Config.Faults; non-nil with Enabled false
	// disables injection for the cohort even when the fleet has faults
	// on; non-nil with Enabled true gives the cohort its own injector.
	Faults *faults.Options
	// Retry overrides the modeled retry ladder for the cohort's cloud
	// misses. Nil inherits Config.Retry.
	Retry *faults.RetryPolicy
	// Hedge is the hedging policy for the cohort's cloud misses: a miss
	// is dispatched to up to CloneFactor replicas (staggered by Delay)
	// and the first answer in hand wins; the losers' spent attempts are
	// charged as wasted radio energy. Who hedges is one rule,
	// faults.HedgePolicy.Over — an injector, Config.Replicas >= 2 and
	// CloneFactor >= 2 — resolved per cohort when the fleet is built;
	// everyone else, users outside any cohort included, plans the
	// single-backend ladder, byte-identical to an unreplicated fleet.
	// Nil does not hedge.
	Hedge *faults.HedgePolicy
}

// cohortRT is a cohort's resolved runtime: what a user's device is
// actually built with.
type cohortRT struct {
	// prof is the cohort's device tier — its radio technology and the
	// default device and flash constants — built once, and read through
	// by every device of the cohort's users.
	prof  *device.Profile
	retry faults.RetryPolicy
	// injs are the per-replica injectors: one per modeled replica when
	// the cohort injects faults, the single nil injector when not.
	injs []*faults.Injector
	// hedge is the cohort's *resolved* hedging policy
	// (faults.HedgePolicy.Over applied): zero unless the cohort's misses
	// really are planned across replicas.
	hedge faults.HedgePolicy
}

// cohortTable resolves users to their cohort runtime. Immutable after
// New, so shards share it lock-free.
type cohortTable struct {
	def     cohortRT
	cohorts []cohortRT
	of      func(searchlog.UserID) int
	// faulted reports whether any injector (fleet-wide or cohort) is
	// live: a backend model is only built when one is.
	// cloneLoad is the heaviest resolved clone factor of any cohort (zero
	// when nobody hedges); it scales the backend's background load.
	faulted   bool
	cloneLoad int
	// bk is the shared queued-backend model (nil when disabled); pricer
	// is bk as a faults.Pricer, kept as a separate field so a disabled
	// backend passes a true nil interface to the planners (they gate
	// ledger allocation on it). Shards built later by a resize share the
	// same model through this table.
	bk     *backend.Model
	pricer faults.Pricer
}

// resolvePtr returns the runtime for one user as a pointer into the
// immutable table, so every resident user interns one shared *cohortRT
// instead of carrying the runtime fields by value. Pure: same uid, same
// answer, on every shard, forever — the migration-safety contract.
func (ct *cohortTable) resolvePtr(uid searchlog.UserID) *cohortRT {
	if ct.of == nil || len(ct.cohorts) == 0 {
		return &ct.def
	}
	if i := ct.of(uid); i >= 0 && i < len(ct.cohorts) {
		return &ct.cohorts[i]
	}
	return &ct.def
}

// buildCohortTable resolves Config.Cohorts against the fleet defaults.
// cfg must already have defaults applied.
func buildCohortTable(cfg Config) (*cohortTable, error) {
	if len(cfg.Cohorts) > 0 && cfg.CohortOf == nil {
		return nil, fmt.Errorf("fleet: %d cohorts configured without CohortOf", len(cfg.Cohorts))
	}
	base := cohortRT{
		prof: device.NewProfile(device.Config{}, cfg.Radio, flashsim.Params{}), retry: cfg.Retry,
		injs: replicaInjectors(cfg.Faults, cfg.Replicas),
	}
	ct := &cohortTable{of: cfg.CohortOf}
	ct.def = ct.resolve(base)
	for _, co := range cfg.Cohorts {
		rt := base
		if co.Radio.Name != "" {
			rt.prof = device.NewProfile(device.Config{}, co.Radio, flashsim.Params{})
		}
		if co.Faults != nil {
			rt.injs = replicaInjectors(*co.Faults, cfg.Replicas)
		}
		if co.Retry != nil {
			rt.retry = co.Retry.WithDefaults()
		}
		if co.Hedge != nil {
			rt.hedge = *co.Hedge
		}
		ct.cohorts = append(ct.cohorts, ct.resolve(rt))
	}
	return ct, nil
}

// replicaInjectors builds one fault profile's per-replica injectors:
// the single nil injector when the profile is disabled.
func replicaInjectors(o faults.Options, n int) []*faults.Injector {
	if !o.Enabled {
		return faults.Replicas(nil, n)
	}
	return faults.Replicas(faults.New(o), n)
}

// resolve settles who hedges for one cohort runtime, once, and folds
// the runtime into the table-wide facts.
func (ct *cohortTable) resolve(rt cohortRT) cohortRT {
	rt.hedge = rt.hedge.Over(rt.injs)
	ct.faulted = ct.faulted || rt.injs[0] != nil
	ct.cloneLoad = max(ct.cloneLoad, rt.hedge.CloneFactor)
	return rt
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers > c.Shards {
		c.Workers = c.Shards
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.Radio.Name == "" {
		c.Radio = radio.ThreeG()
	}
	if c.Replicas < 1 {
		c.Replicas = 1
	}
	c.Batch = c.Batch.withDefaults()
	c.Retry = c.Retry.WithDefaults()
	return c
}

// processStart anchors task timestamps: a submission records one
// monotonic reading as an offset from it (8 bytes a queued task, not a
// 24-byte time.Time carrying a wall clock nobody reads).
var processStart = time.Now()

func sinceStart() int64 { return int64(time.Since(processStart)) }

// task is one queued unit of work. A nil reply means fire-and-forget
// (unless inPlace); a non-nil barrier is a drain marker instead of a
// request.
type task struct {
	req      Request
	shard    int
	enqueued int64 // sinceStart() at submission
	reply    chan Response
	barrier  chan struct{}
	// inPlace marks a task its blocked caller is serving itself: process
	// builds the answer in the caller's own Response and no channel is
	// involved, unless the task is parked with a dispatcher, which
	// answers it later through a reply channel (shard.route).
	inPlace bool
}

// Fleet is a running serving layer. What every request reads comes first
// and shares no cache line with anything a request writes; a served
// request writes only its shard and one fence stripe (hitpath_test.go).
type Fleet struct {
	cfg    Config
	queues []workerQueue

	// view is the placement, the shards and the dispatchers coalescing
	// their cloud misses, read lock-free by every request and replaced
	// as one value by a resize (migrate.go).
	view atomic.Pointer[view]

	// tl is the fleet-wide model timeline: every user clock and
	// community replica clock is registered on it, so the model-time
	// makespan of everything served is one atomic read away.
	tl *modeltime.Timeline

	// cohorts resolves each user to the runtime (radio link, replica
	// injectors, retry and hedge policy) their device is built with.
	cohorts *cohortTable

	closed bool // guarded by fence

	_  [64]byte // end of what every request reads
	wg sync.WaitGroup

	// resizeMu serializes Resize against itself and Close.
	resizeMu sync.Mutex
	// Cumulative migration counters (see MigrationStats).
	migResizes  atomic.Int64
	migMoved    atomic.Int64
	migBytes    atomic.Int64
	migTransfer atomic.Int64
	migDropped  atomic.Int64

	// retired is the fold of the counter blocks (shard.ctr) of every
	// shard a shrink retired, closed-out energy integrals included: a
	// fleet-wide total is retired plus the live shards, summed as
	// integers. retireMu makes a retirement — topology swap plus fold —
	// one step to a reader taking such a total.
	retireMu sync.Mutex
	retired  shardCounters

	// fence guards closed against concurrent Submit/Do/Close, and — held
	// exclusively — fences a resize: enqueue routes a task, and a
	// caller-run task is served, under its user's stripe, so a resize
	// holding every stripe knows no task routed by the old view is on its
	// way into a queue or being served outside one.
	fence routeFence
}

// routeFence is a reader/writer lock whose readers share no cache line:
// a reader locks the stripe its user maps to, the writer every stripe in
// index order — excluding what one RWMutex would. Stripes are two lines
// wide, so their lock words share none wherever the array starts.
type routeFence struct {
	_       [64]byte
	stripes [32]struct {
		sync.RWMutex
		_ [104]byte
	}
}

func (l *routeFence) reader(uid searchlog.UserID) *sync.RWMutex {
	return &l.stripes[uint64(uid)%uint64(len(l.stripes))].RWMutex
}

func (l *routeFence) Lock() {
	for i := range l.stripes {
		l.stripes[i].Lock()
	}
}

func (l *routeFence) Unlock() {
	for i := range l.stripes {
		l.stripes[i].Unlock()
	}
}

// New builds the shards (community replicas are preloaded in
// parallel) and starts the worker pool.
func New(cfg Config) (*Fleet, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("fleet: engine is required")
	}
	cfg = cfg.withDefaults()
	if cfg.Placement == nil {
		p, err := placement.NewModulo(cfg.Shards)
		if err != nil {
			return nil, err
		}
		cfg.Placement = p
	} else if cfg.Placement.Shards() != cfg.Shards {
		return nil, fmt.Errorf("fleet: placement routes over %d shards, config has %d",
			cfg.Placement.Shards(), cfg.Shards)
	}
	ct, err := buildCohortTable(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Backend.Active() {
		if !ct.faulted {
			return nil, fmt.Errorf("fleet: backend model requires fault injection (the admission planner runs on the faulted miss path)")
		}
		// The backend's replica count and clone-load scaling are the
		// fleet's own, not caller knobs.
		cfg.Backend.Replicas, cfg.Backend.CloneFactor = cfg.Replicas, ct.cloneLoad
		ct.bk = backend.NewModel(cfg.Backend)
		ct.pricer = ct.bk
	}
	f := &Fleet{
		cfg:     cfg,
		queues:  make([]workerQueue, cfg.Workers),
		tl:      modeltime.NewTimeline(),
		cohorts: ct,
	}

	shards, err := buildShards(cfg, ct, f.tl, 0, cfg.Shards)
	if err != nil {
		return nil, err
	}

	var dispatchers []*dispatcher
	if cfg.Batch.Enabled {
		for range cfg.Shards {
			dispatchers = append(dispatchers, newDispatcher(f))
		}
	}
	f.view.Store(&view{place: cfg.Placement, shards: shards, dispatchers: dispatchers})
	for w := range f.queues {
		f.queues[w].init(cfg.QueueDepth)
		f.wg.Add(1)
		go f.worker(w)
	}
	return f, nil
}

// buildShards constructs shards [lo, hi) in parallel (community
// replicas preload the shared content, the expensive part).
func buildShards(cfg Config, ct *cohortTable, tl *modeltime.Timeline, lo, hi int) ([]*shard, error) {
	shards := make([]*shard, hi-lo)
	errs := make([]error, hi-lo)
	var build sync.WaitGroup
	for i := range shards {
		build.Add(1)
		go func(i int) {
			defer build.Done()
			shards[i], errs[i] = newShard(lo+i, cfg, ct, tl)
		}(i)
	}
	build.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return shards, nil
}

// NumShards returns the shard count.
func (f *Fleet) NumShards() int { return len(f.view.Load().shards) }

// PlacementName identifies the routing policy in use.
func (f *Fleet) PlacementName() string { return f.view.Load().place.Name() }

// NumWorkers returns the worker-pool size.
func (f *Fleet) NumWorkers() int { return len(f.queues) }

// ModelMakespan returns the fleet-wide model-time makespan: the
// furthest any model clock (user device or community replica) has
// advanced serving this fleet's requests. Deterministic for a
// deterministic workload — the timeline folds clocks with a
// commutative max, so worker interleaving cannot change it.
func (f *Fleet) ModelMakespan() time.Duration { return f.tl.Makespan() }

// Hedges reports whether the user's cloud misses are planned across
// replicas, as resolved for the user's cohort when the fleet was built
// (report checkers ask instead of re-deriving the rule).
func (f *Fleet) Hedges(uid searchlog.UserID) bool { return f.cohorts.resolvePtr(uid).hedge.Active() }

// Observer returns the configured response observer (nil when none was
// installed). Load generators use it to check they are actually wired
// to the fleet they measure.
func (f *Fleet) Observer() Observer { return f.cfg.Observer }

// shardOf maps a user to their home shard under the current placement.
func (f *Fleet) shardOf(uid searchlog.UserID) int {
	return f.view.Load().place.ShardOf(placement.UserKey(uint64(uid)))
}

// worker drains one queue in FIFO order, a whole backlog per hand-off,
// serving each task against its shard.
func (f *Fleet) worker(id int) {
	defer f.wg.Done()
	q := &f.queues[id]
	var batch []task
	var resp Response
	for {
		if batch = q.take(batch); batch == nil {
			return
		}
		for i := range batch {
			t := &batch[i]
			if t.barrier != nil {
				f.flushDispatchers(id)
				barrier := t.barrier
				if i == len(batch)-1 {
					// Nothing else in hand: give a finished backlog's
					// buffers back before the barrier's waiter can look.
					batch = q.release(batch)
				}
				barrier <- struct{}{}
				continue
			}
			q.waiting.Add(-1)
			f.process(t, &resp)
			q.pending.Add(-1)
		}
	}
}

// process serves one request task — from a worker loop, or from a
// blocking caller with nothing queued ahead of it (enqueue) — building
// its answer in resp.
// Local hits, and cloud misses nothing prices or coalesces, come back
// served from the shard. Any other miss comes back pending and is
// planned here, under no lock — a priced plan replays the backend
// queues, which takes far longer than anything else a request does under
// a stripe. With miss coalescing on, the miss is then parked with the
// shard's dispatcher, which completes it asynchronously; otherwise it is
// applied in one more short hold (applyMiss). Either way it is released
// (releaseMiss) only once its response is delivered. The miss is applied
// after the lock hold that classified it, so the shard marks it pending
// and whoever routes the same user's next request waits for it first: a
// user's requests are applied one at a time, in submission order for any
// one goroutine — the determinism guarantee neither batching nor
// caller-run serving may break. A task still inPlace on return was
// finished here and resp is its caller's answer.
func (f *Fleet) process(t *task, resp *Response) {
	v := f.view.Load()
	sh, d := v.shards[t.shard], v.dispatcherOf(t.shard)
	for {
		miss, waitFor := sh.route(t, d != nil, resp)
		switch {
		case waitFor != nil:
			if d != nil {
				d.flush()
			}
			<-waitFor.done
			continue
		case miss == nil:
			f.finish(sh, resp, t)
		default:
			miss.mc.plan(sh.cohorts.pricer)
			if d != nil {
				d.submit(miss)
			} else {
				sh.applyMiss(&miss.t.req, &miss.mc, exchange{}, resp)
				f.finish(sh, resp, t)
				sh.releaseMiss(miss)
			}
		}
		return
	}
}

// finish completes one task served by sh: it stamps wall latency, books
// the response into the shard's counter block, and delivers it to the
// observer and to a caller waiting on a reply channel (an in-place
// task's resp already is its caller's). Called from whoever ran process,
// and from dispatchers (batched misses).
func (f *Fleet) finish(sh *shard, resp *Response, t *task) {
	resp.Wall = time.Duration(sinceStart() - t.enqueued)
	sh.ctr.book(resp)
	if obs := f.cfg.Observer; obs != nil {
		obs.Observe(*resp)
	}
	if t.reply != nil {
		t.reply <- *resp
	}
}

// dispatcherOf returns the dispatcher coalescing the shard's misses,
// nil when miss coalescing is off.
func (v *view) dispatcherOf(shard int) *dispatcher {
	if len(v.dispatchers) == 0 {
		return nil
	}
	return v.dispatchers[shard]
}

// flushDispatchers forces out every miss parked for worker id's shards
// (s mod W == id), by the worker or by a blocking caller, and waits
// until they are applied — the Drain barrier must not ack while misses
// are still lingering.
func (f *Fleet) flushDispatchers(id int) {
	v := f.view.Load()
	if len(v.dispatchers) == 0 {
		return
	}
	for s := id; s < len(v.shards); s += len(f.queues) {
		v.dispatchers[s].flushWait()
	}
}

// enqueue admits one task and decides which goroutine serves it. The
// default is the shard's worker queue, without blocking: it reports
// false — and records the shed — when the queue is full or the fleet is
// closed. A caller that blocks for the answer anyway hands in the
// Response it wants filled (resp non-nil) and runs process itself, in
// place, when that queue has nothing pending: nothing it must be ordered
// behind exists, and serving from here saves both goroutine handoffs and
// the answer's trip through a channel. With work pending it queues like
// everyone else, with a reply channel to wait on, so one goroutine's
// Submit(u, a) then Do(u, b) apply in order.
//
// The task's shard is computed — and a caller-run task processed —
// under the read lock of the user's fence stripe, so a resize (it holds
// every stripe) starts its drain with every task routed by the old view
// either queued or finished, and Close waits out the same; while a
// resize holds the fence, Submit and Do wait here. A caller whose task
// is no longer inPlace awaits its reply after the lock is released: a
// parked task answers later.
func (f *Fleet) enqueue(t *task, resp *Response) bool {
	mu := f.fence.reader(t.req.User)
	mu.RLock()
	defer mu.RUnlock()
	t.shard = f.shardOf(t.req.User)
	if f.closed {
		f.recordShed(t.req, t.shard)
		return false
	}
	q := &f.queues[t.shard%len(f.queues)]
	if resp != nil {
		if q.pending.Load() == 0 {
			t.inPlace = true
			f.process(t, resp)
			return true
		}
		t.reply = replyPool.Get().(chan Response)
	}
	q.pending.Add(1)
	if !q.push(t) {
		q.pending.Add(-1)
		f.recordShed(t.req, t.shard)
		return false
	}
	return true
}

func (f *Fleet) recordShed(req Request, shard int) {
	f.view.Load().shards[shard].ctr.shed.Add(1)
	if obs := f.cfg.Observer; obs != nil {
		obs.Observe(Response{Req: req, Shed: true, Source: SourceShed})
	}
}

// Submit enqueues a request fire-and-forget — the open-loop path. The
// outcome reaches the Observer. It reports false when the request was
// shed by backpressure.
func (f *Fleet) Submit(req Request) bool {
	return f.enqueue(&task{req: req, enqueued: sinceStart()}, nil)
}

// Do serves a request and blocks for its response — the closed-loop
// path (the simulated user waits for their results page). A request
// shed by backpressure returns immediately with Shed set. The answer is
// built in place when enqueue serves the request on the caller's
// goroutine, and otherwise is the one send its task's mailbox receives.
func (f *Fleet) Do(req Request) (resp Response) {
	var t task // filled in place: its address is taken, a literal would be copied in
	t.req, t.enqueued = req, sinceStart()
	if !f.enqueue(&t, &resp) {
		return Response{Req: req, Shed: true, Source: SourceShed}
	}
	if !t.inPlace {
		resp = <-t.reply
		replyPool.Put(t.reply)
	}
	return resp
}

// replyPool recycles reply channels: the mailboxes of answers that
// arrive later than the Do that asked — one queued behind other work,
// or parked. finish sends once into a task's channel and Do
// receives that send before pooling the channel, so a pooled channel is
// always empty.
var replyPool = sync.Pool{New: func() any { return make(chan Response, 1) }}

// Drain blocks until every request submitted before the call has been
// served: it pushes a barrier through each worker queue. Safe to call
// while other goroutines keep submitting (their requests may or may
// not be covered).
func (f *Fleet) Drain() {
	mu := f.fence.reader(0) // any stripe holds off Close
	mu.RLock()
	if f.closed {
		mu.RUnlock()
		return
	}
	acks := f.pushBarriers()
	mu.RUnlock()
	awaitBarriers(acks)
}

// pushBarriers pushes a barrier through every worker queue — a worker
// acknowledges one once everything queued ahead of it is served and its
// shards' dispatchers are flushed — and returns the acknowledgments.
// The caller holds off Close: a fence stripe (Drain) or the whole fence
// (a resize, which Drain could not serve).
func (f *Fleet) pushBarriers() []chan struct{} {
	acks := make([]chan struct{}, len(f.queues))
	for w := range f.queues {
		acks[w] = make(chan struct{}, 1)
		f.queues[w].push(&task{barrier: acks[w]})
	}
	return acks
}

func awaitBarriers(acks []chan struct{}) {
	for _, ack := range acks {
		<-ack
	}
}

// Close drains and stops the worker pool. Requests submitted after
// Close are shed. Close waits out any in-flight Resize.
func (f *Fleet) Close() {
	f.resizeMu.Lock()
	defer f.resizeMu.Unlock()
	f.fence.Lock()
	if f.closed {
		f.fence.Unlock()
		return
	}
	f.closed = true
	for w := range f.queues {
		f.queues[w].close()
	}
	f.fence.Unlock()
	f.wg.Wait()
	for _, d := range f.view.Load().dispatchers {
		d.close()
	}
}

// Stats is a snapshot of fleet-wide serving counters.
type Stats struct {
	// Served counts completed requests (including errored ones);
	// Shed counts requests rejected by backpressure.
	Served, Shed, Errors int64
	// PersonalHits + CommunityHits are local serves; CloudMisses paid
	// the radio round trip.
	PersonalHits, CommunityHits, CloudMisses int64
	// Degraded counts requests answered with a stale cached page after
	// the cloud proved unreachable; Unavailable counts requests that
	// fell all the way to the explicit "results unavailable" page. Both
	// are included in Served. Zero when fault injection is off.
	Degraded, Unavailable int64
	// Canceled is always zero (see Response.Canceled), so Served+Shed
	// sums to the completed submissions. The field stays only because
	// the benchmark module (bench/) still reads it.
	Canceled int64
	// Retries counts modeled radio attempts beyond each completed cloud
	// miss's first; Exhausted counts misses that ran out of attempts and
	// fell to the degradation ladder. Zero when fault injection is off.
	Retries, Exhausted int64
	// Replicas is the configured cloud-replica count (1 = single
	// backend).
	Replicas int
	// Hedging telemetry, all zero unless hedging is active:
	// ClonesLaunched counts clone dispatches beyond each hedged miss's
	// primary; PrimaryWins and CloneWins split the hedged misses that
	// delivered by who answered first; WastedAttempts counts the radio
	// attempts losing dispatches had started when the winner's answer
	// canceled them.
	ClonesLaunched, PrimaryWins, CloneWins, WastedAttempts int64
	// Miss coalescing, zero with batching off: Batches counts the shared
	// radio sessions dispatched, BatchedMisses the misses they carried,
	// and BatchSizes[n] the sessions that carried n (nil with batching
	// off).
	Batches, BatchedMisses int64
	BatchSizes             []int64
	// RadioWakeups counts the cold radio wake-ups cloud misses paid: one
	// per session-opening unbatched miss, one per batched session (the
	// shared uplink sleeps between linger windows).
	RadioWakeups int64
	// Users is the number of resident users (personal states).
	Users int
	// PersonalBytes is the personal flash footprint across all users.
	PersonalBytes int64
	// Backend is the per-replica queued-backend accounting (nil when the
	// backend model is disabled): arrivals, served/rejected/abandoned
	// splits, busy time, queue-wait distribution and the model horizon
	// each replica has been driven to.
	Backend []backend.ReplicaStats
}

// HitRate is the fraction of served requests answered from on-device
// state — the fleet-scale analogue of the paper's combined hit rate.
func (s Stats) HitRate() float64 {
	if s.Served == 0 {
		return 0
	}
	return float64(s.PersonalHits+s.CommunityHits) / float64(s.Served)
}

// ShedRate is the fraction of submitted requests shed by backpressure.
func (s Stats) ShedRate() float64 {
	total := s.Served + s.Shed
	if total == 0 {
		return 0
	}
	return float64(s.Shed) / float64(total)
}

// AnsweredRate is the fraction of served requests that got real
// results — anything but the explicit "results unavailable" page. The
// availability headline under fault injection: 1.0 means every
// completed request was answered from some tier, fresh or stale.
func (s Stats) AnsweredRate() float64 {
	if s.Served == 0 {
		return 0
	}
	return float64(s.Served-s.Unavailable) / float64(s.Served)
}

// totals adds every live shard's counter block and the retired fold
// into sum and returns the view it walked.
func (f *Fleet) totals(sum *shardCounters) *view {
	f.retireMu.Lock()
	defer f.retireMu.Unlock()
	v := f.view.Load()
	f.retired.addTo(sum)
	for _, sh := range v.shards {
		sh.ctr.addTo(sum)
	}
	return v
}

// Stats returns a fleet-wide snapshot. Every per-request counter is the
// one fold of the shards' blocks (totals).
// The per-shard residency walk takes each shard's stripes briefly.
func (f *Fleet) Stats() Stats {
	var sum shardCounters
	v := f.totals(&sum)
	s := Stats{
		Served:         sum.served.Load(),
		Shed:           sum.shed.Load(),
		Errors:         sum.errors.Load(),
		PersonalHits:   sum.bySource[SourcePersonal].Load(),
		CommunityHits:  sum.bySource[SourceCommunity].Load(),
		CloudMisses:    sum.bySource[SourceCloud].Load(),
		Degraded:       sum.bySource[SourceDegraded].Load(),
		Unavailable:    sum.bySource[SourceUnavailable].Load(),
		Retries:        sum.retries.Load(),
		Exhausted:      sum.exhausted.Load(),
		Replicas:       f.cfg.Replicas,
		ClonesLaunched: sum.clonesLaunched.Load(),
		PrimaryWins:    sum.primaryWins.Load(),
		CloneWins:      sum.cloneWins.Load(),
		WastedAttempts: sum.wastedAttempts.Load(),
		Batches:        sum.batches.Load(),
		BatchedMisses:  sum.batchedMisses.Load(),
		BatchSizes:     loads(sum.batchSizes, 0),
		RadioWakeups:   sum.wakeups.Load(),
		Backend:        f.cohorts.bk.Stats(),
	}
	for _, sh := range v.shards {
		users, bytes := sh.residency()
		s.Users += users
		s.PersonalBytes += bytes
	}
	return s
}

// loads reads a folded counter slice, at least n long; nil when empty.
func loads(a []atomic.Int64, n int) []int64 {
	if n = max(n, len(a)); n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range a {
		out[i] = a[i].Load()
	}
	return out
}

// shardPower is every shard's cloudlet-server power envelope: a
// provisioned shard draws IdleW continuously for as long as it is in the
// topology, plus the ActiveW increment over its busy time. It only feeds
// the energy ledger; it never affects serving outcomes.
var shardPower = energy.DefaultShardPower()

// EnergyStats snapshots the fleet energy ledger in joules. Device-side
// counters (radio, baseline) accumulate per response in the serving
// shard's ledger and are summed as integer nanojoules, live shards plus
// the retired fold, before the one conversion to joules; shard-side
// counters integrate each shard's power envelope over model time —
// idle draw from the shard's provisioning instant to the current
// makespan plus the active increment over its busy time — with retired
// shards' integrals folded in at retirement. Deterministic for a
// deterministic workload once the fleet is drained: every term is a
// function of modeled outcomes, never of wall time.
func (f *Fleet) EnergyStats() energy.Snapshot {
	var sum shardCounters
	v := f.totals(&sum)
	s := sum.ledger.Snapshot()
	mk := f.tl.Makespan()
	for _, sh := range v.shards {
		if d := mk - sh.provisionedAt; d > 0 {
			s.ShardIdleJ += shardPower.IdleJ(d)
		}
		if busy := time.Duration(sh.ctr.busyNS.Load()); busy > 0 {
			s.ShardActiveJ += shardPower.ActiveJ(busy)
		}
	}
	return s
}

// MeanUserHitRate is the mean of per-user hit rates across resident
// users with at least one served request — the averaging the paper
// uses for its "65% of queries are cache hits" headline. Rates are
// summed in user-ID order so the float result is bit-reproducible.
func (f *Fleet) MeanUserHitRate() float64 {
	var sum float64
	var n int
	for _, u := range f.UserServeCounts() {
		if u.Served > 0 {
			sum += float64(u.Hits) / float64(u.Served)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// UserServeCount is one resident user's serving tally — the unit of
// the per-user determinism contract (same seed, same scenario, same
// counts, regardless of worker interleaving or resharding).
type UserServeCount struct {
	User   searchlog.UserID
	Served int64
	Hits   int64
	// Bytes is the user's personal flash footprint.
	Bytes int64
}

// UserServeCounts snapshots every resident user's serving counters in
// user-ID order. Determinism tests deep-compare two runs' slices; the
// sort makes the comparison independent of shard layout.
func (f *Fleet) UserServeCounts() []UserServeCount {
	var out []UserServeCount
	for _, sh := range f.view.Load().shards {
		sh.lockUsers()
		sh.users.forEach(func(st *userState) {
			out = append(out, UserServeCount{User: st.uid, Served: st.served, Hits: st.hits, Bytes: st.bytes})
		})
		sh.unlockUsers()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].User < out[j].User })
	return out
}

// CommunityStats aggregates the activity counters of every shard's
// community replica. It deliberately reads through the caches' own
// stats locks without taking the community locks, so monitoring never
// blocks serving (the pocketsearch.Cache.Stats concurrency guarantee).
func (f *Fleet) CommunityStats() pocketsearch.Stats {
	var agg pocketsearch.Stats
	for _, sh := range f.view.Load().shards {
		st := sh.community.Stats()
		agg.Queries += st.Queries
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.Expansions += st.Expansions
		agg.Stale += st.Stale
	}
	return agg
}
