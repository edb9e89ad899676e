// Command loadtest drives a fleet of pocket cloudlets with calibrated
// load and reports latency percentiles, throughput, hit rate and shed
// rate. Two protocols are supported:
//
//   - open (default): requests arrive on a model-timestamped schedule
//     at mean rate -qps for -duration. -arrivals selects the process:
//     poisson (homogeneous, the default), diurnal (a sinusoidal day
//     curve with -diurnal-peak peak/trough ratio that offers exactly
//     the same total arrivals as poisson for the same seed), or
//     peruser (independent per-user renewal processes weighted by
//     workload class, each replaying that user's own stream). Overload
//     shows up as queue sheds and wall-latency inflation; the report's
//     offered_curve and peak_trough_served_ratio localize it in time.
//   - closed: every user of the -users population replays their own
//     month stream concurrently, waiting for each response. With
//     -duration 0 each user replays exactly one month, which makes the
//     run's counters fully deterministic given -seed. -pace S makes
//     each user think for S x their modeled response time between
//     requests (wall-clock only; per-user outcomes are byte-identical
//     to the unpaced run).
//
// Routing is pluggable (-placement): "modulo" is the legacy static
// uid-hash mod shards mapping; "ring" is consistent hashing over
// -vnodes virtual nodes per shard, which keeps a live resize cheap.
// -resize-to N reshards the fleet to N shards -resize-at into the run
// while it keeps serving: movers' personal caches are migrated with
// them (unless -resize-drop discards them — the remap-and-cold-start
// baseline), and the report's resizes/migrated_*/held_requests fields
// quantify the migration work.
//
// -autoscale hands the topology to the occupancy-driven controller
// (open mode with -placement ring): per-shard occupancy is sampled
// every -autoscale-interval of model time and the fleet is resized
// within [-autoscale-min, -autoscale-max] with hysteresis
// (-autoscale-high/-autoscale-low watermarks, -autoscale-up/-down
// streaks, -autoscale-rate req/s per fully-occupied shard). The
// report's energy ledger (fleet/device/shard joules and J per
// answered query) and autoscale action log quantify the energy
// proportionality the controller buys on a diurnal curve.
//
// Miss batching (-batch) coalesces concurrent cloud misses into shared
// radio sessions — one wake-up, one handshake, one tail per batch —
// capped at -batchmax misses after a -batchlinger collection window
// (sized adaptively from the miss arrival rate with -batchadaptive),
// per shard by default or fleet-wide with -batchwide. The report's
// energy figures (energy_per_query_j, radio_energy_per_miss_j,
// radio_wakeups) quantify the savings; per-user hit/miss outcomes are
// unchanged for the same seed.
//
// Fault injection (-faults) turns on the deterministic connectivity
// fault model on the cloud-miss path: -loss drops each radio attempt
// with the given probability, -engineerr injects transient cloud
// errors, and -outage declares dead zones in model time ("6s/30s" =
// down the first 6s of every 30s; "10s-20s,40s-45s" = absolute
// windows). Failed misses retry up to -retries attempts with capped
// exponential backoff, then degrade: a stale answer from the personal
// or community cache, or an explicit "results unavailable" page. The
// report's answered_rate, degraded, unavailable, retries, exhausted
// and breaker_opens fields quantify availability under the scenario.
// Fault counters are seed-deterministic except when -batch is combined
// with -outage: outage exposure follows each user's model clock, which
// batch composition (wall-clock timing) legitimately shifts.
//
// -scenario <file|preset> replaces the workload flags with a
// declarative JSON scenario (internal/scenario): multiple client
// classes with their own arrival processes, device tiers and fault
// profiles, compiled onto the same fleet and generators, with the
// report broken down per SLO class. Built-in presets: clone-storm,
// commuter, flash-crowd, regional-outage, mixed-fleet. Only -users and -seed may
// override a scenario (population and seed scaling); every other
// workload flag conflicts. Flag-only runs are themselves compiled as a
// single-class scenario tagged "default", so both paths exercise one
// code path and a flag run's per-user outcomes are byte-identical to
// the equivalent scenario.
//
// -cpuprofile and -memprofile write pprof profiles of the whole
// invocation on clean exit (the paths are checked for writability up
// front); they compose with every mode and with -scenario.
//
// Example (the acceptance run):
//
//	loadtest -users 10000 -duration 5s -seed 1
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"pocketcloudlets"
	"pocketcloudlets/internal/scenario"
)

// runFlags is the parsed command line. Keeping it a plain struct lets
// validate run (and be tested) before any of the expensive ecosystem
// build starts, so a bad invocation fails in microseconds with a usage
// message instead of minutes later with a panic from deep inside the
// stack.
type runFlags struct {
	mode        string
	users       int
	qps         float64
	arrivals    string
	diurnalPeak float64
	pace        float64
	duration    time.Duration
	shards      int
	workers     int
	queue       int
	seed        int64
	share       float64
	month       int
	radio       string
	userBudget  int64
	fleetBudget int64

	placementName string
	vnodes        int
	resizeTo      int
	resizeAt      time.Duration
	resizeDrop    bool

	autoscale         bool
	autoscaleInterval time.Duration
	autoscaleMin      int
	autoscaleMax      int
	autoscaleHigh     float64
	autoscaleLow      float64
	autoscaleUp       int
	autoscaleDown     int
	autoscaleRate     float64

	batch         bool
	batchMax      int
	batchLinger   time.Duration
	batchWide     bool
	batchAdaptive bool

	faults    bool
	loss      float64
	engineErr float64
	outage    string
	retries   int
	faultSeed int64

	replicas   int
	hedge      int
	hedgeDelay time.Duration
	hedgeMax   int

	backendRate    string
	backendQueue   int
	backendDisc    string
	backendDist    string
	backendOffered float64
	backendCancel  bool

	scenarioRef string

	communityUsers int
	noSuggest      bool

	check   bool
	jsonOut bool

	cpuProfile string
	memProfile string

	// setFlags records which flags the command line set explicitly
	// (see noteSet); validate uses it to reject workload flags that
	// conflict with -scenario.
	setFlags map[string]bool
}

func (rf *runFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&rf.mode, "mode", "open", "load protocol: open (Poisson at -qps) or closed (-users concurrent users)")
	fs.IntVar(&rf.users, "users", 4000, "simulated user population (and closed-loop concurrency)")
	fs.Float64Var(&rf.qps, "qps", 2000, "open-loop target mean arrival rate")
	fs.StringVar(&rf.arrivals, "arrivals", "poisson", "open-loop arrival process: poisson, diurnal or peruser")
	fs.Float64Var(&rf.diurnalPeak, "diurnal-peak", 0, "diurnal peak/trough rate ratio (with -arrivals diurnal); 0 = default 4")
	fs.Float64Var(&rf.pace, "pace", 0, "closed-loop think-time scale: sleep this fraction of each modeled response time between a user's requests; 0 = unpaced")
	fs.DurationVar(&rf.duration, "duration", 5*time.Second, "run length; 0 in closed mode replays exactly one month")
	fs.IntVar(&rf.shards, "shards", 8, "user shards (community cache replicas)")
	fs.IntVar(&rf.workers, "workers", 0, "worker pool size; 0 selects min(shards, GOMAXPROCS)")
	fs.IntVar(&rf.queue, "queue", 1024, "per-worker queue depth before shedding")
	fs.Int64Var(&rf.seed, "seed", 1, "simulation and arrival-schedule seed")
	fs.Float64Var(&rf.share, "share", 0.55, "community cache cumulative-volume share")
	fs.IntVar(&rf.month, "month", 1, "month to replay (content is built from the preceding month)")
	fs.StringVar(&rf.radio, "radio", "3g", "radio technology: 3g, edge, wifi")
	fs.Int64Var(&rf.userBudget, "userbudget", 0, "per-user personal flash cap in bytes; 0 = unlimited")
	fs.Int64Var(&rf.fleetBudget, "fleetbudget", 0, "fleet-wide personal flash budget in bytes; 0 = default 2.5 GB")
	fs.StringVar(&rf.placementName, "placement", "modulo", "user→shard routing: modulo (legacy static) or ring (consistent hashing)")
	fs.IntVar(&rf.vnodes, "vnodes", 0, "virtual nodes per shard on the ring (with -placement ring); 0 = default 64")
	fs.IntVar(&rf.resizeTo, "resize-to", 0, "live-reshard the fleet to this many shards during the run; 0 = no resize")
	fs.DurationVar(&rf.resizeAt, "resize-at", time.Second, "when after the run starts to trigger the -resize-to resize")
	fs.BoolVar(&rf.resizeDrop, "resize-drop", false, "discard movers' personal state on resize instead of migrating it (cold-start baseline)")
	fs.BoolVar(&rf.autoscale, "autoscale", false, "drive shard count from per-shard occupancy sampled on a model-time cadence (open mode with -placement ring)")
	fs.DurationVar(&rf.autoscaleInterval, "autoscale-interval", 0, "autoscaler model-time sampling cadence (with -autoscale); 0 = default 1s")
	fs.IntVar(&rf.autoscaleMin, "autoscale-min", 0, "autoscaler shard floor (with -autoscale); 0 = default 1")
	fs.IntVar(&rf.autoscaleMax, "autoscale-max", 0, "autoscaler shard ceiling (with -autoscale); 0 = default 4x the initial -shards")
	fs.Float64Var(&rf.autoscaleHigh, "autoscale-high", 0, "occupancy watermark above which samples count toward scaling up (with -autoscale); 0 = default 0.75")
	fs.Float64Var(&rf.autoscaleLow, "autoscale-low", 0, "occupancy watermark below which samples count toward scaling down (with -autoscale); 0 = default 0.35")
	fs.IntVar(&rf.autoscaleUp, "autoscale-up", 0, "consecutive hot samples before a scale-up fires (with -autoscale); 0 = default 2")
	fs.IntVar(&rf.autoscaleDown, "autoscale-down", 0, "consecutive cold samples before a scale-down fires (with -autoscale); 0 = default 3")
	fs.Float64Var(&rf.autoscaleRate, "autoscale-rate", 0, "model-time serving rate (req/s) at which one shard counts as fully occupied (with -autoscale); 0 = default 50")
	fs.BoolVar(&rf.batch, "batch", false, "coalesce concurrent cloud misses into batched radio sessions")
	fs.IntVar(&rf.batchMax, "batchmax", 0, "max misses per batched radio session; 0 = default 16")
	fs.DurationVar(&rf.batchLinger, "batchlinger", 0, "how long a dispatcher holds an open batch for more misses; 0 = default 200µs")
	fs.BoolVar(&rf.batchWide, "batchwide", false, "pool misses fleet-wide into one dispatcher instead of one per shard")
	fs.BoolVar(&rf.batchAdaptive, "batchadaptive", false, "size the batch linger window from the observed miss arrival rate")
	fs.BoolVar(&rf.faults, "faults", false, "enable the deterministic connectivity-fault model")
	fs.Float64Var(&rf.loss, "loss", 0, "per-attempt probability a radio exchange is dropped (with -faults)")
	fs.Float64Var(&rf.engineErr, "engineerr", 0, "per-attempt probability of a transient cloud engine error (with -faults)")
	fs.StringVar(&rf.outage, "outage", "", `outage spec (with -faults): "6s/30s" duty cycle or "10s-20s,40s-45s" windows`)
	fs.IntVar(&rf.retries, "retries", 0, "max radio attempts per cloud miss (with -faults); 0 = default 4")
	fs.Int64Var(&rf.faultSeed, "faultseed", 0, "fault-model seed (with -faults); 0 reuses -seed")
	fs.IntVar(&rf.replicas, "replicas", 0, "modeled cloud backend replicas with independent fault draws (with -faults); 0 = single backend")
	fs.IntVar(&rf.hedge, "hedge", 0, "hedged-miss clone factor: dispatch each cloud miss to up to this many replicas, first success wins (with -faults and -replicas ≥ 2); 0 or 1 = no hedging")
	fs.DurationVar(&rf.hedgeDelay, "hedgedelay", 0, "model-time delay before each hedge clone launches (with -hedge); 0 = immediate clones")
	fs.IntVar(&rf.hedgeMax, "hedgemax", 0, "max concurrent dispatches per hedged miss (with -hedge); 0 = clone factor")
	fs.StringVar(&rf.backendRate, "backend-rate", "", `model the cloud replicas as finite-capacity queues at this per-replica service rate in requests/second, or "inf" for an infinitely fast server (with -faults); empty = analytic miss path`)
	fs.IntVar(&rf.backendQueue, "backend-queue", 0, "replica queue bound (with -backend-rate): fifo caps backlog at this many mean service times, ps caps concurrent sharing; 0 = unbounded")
	fs.StringVar(&rf.backendDisc, "backend-disc", "", "replica queueing discipline (with -backend-rate): fifo or ps; empty = fifo")
	fs.StringVar(&rf.backendDist, "backend-dist", "", "replica service-time distribution (with -backend-rate): exp or fixed; empty = exp")
	fs.Float64Var(&rf.backendOffered, "backend-offered", 0, "fleet-wide background miss arrival rate in requests/second the replica queues simmer under (with -backend-rate); 0 = no background load")
	fs.BoolVar(&rf.backendCancel, "backend-cancel", false, "reclaim a hedge loser's unexecuted service when the winner's answer cancels it (with -backend-rate)")
	fs.StringVar(&rf.scenarioRef, "scenario", "", "run a declarative scenario: a JSON file path or a preset (clone-storm, commuter, flash-crowd, regional-outage, mixed-fleet)")
	fs.IntVar(&rf.communityUsers, "communityusers", 0, "build community content from only the first N users' logs (million-user fleets: avoids materializing the full month log); 0 = all users")
	fs.BoolVar(&rf.noSuggest, "nosuggest", false, "skip the per-user auto-suggest index (million-user fleets: saves ~2.5 KB/user; no modeled outcome changes)")
	fs.BoolVar(&rf.check, "check", false, "verify report invariants after the run and exit non-zero on violation")
	fs.BoolVar(&rf.jsonOut, "json", false, "emit the report as JSON only")
	fs.StringVar(&rf.cpuProfile, "cpuprofile", "", "write a CPU profile of the whole invocation (ecosystem build, fleet set-up and run) to this file on clean exit; read it with go tool pprof")
	fs.StringVar(&rf.memProfile, "memprofile", "", "write a heap profile (live objects after a final GC, and cumulative allocations) to this file on clean exit")
}

// noteSet records which flags the command line set explicitly, so
// validate can tell "-mode open" from the default. Call it right
// after fs.Parse.
func (rf *runFlags) noteSet(fs *flag.FlagSet) {
	rf.setFlags = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { rf.setFlags[f.Name] = true })
}

// scenarioCompatible are the flags that still apply when -scenario
// owns the workload shape: population/seed scaling and output control.
var scenarioCompatible = map[string]bool{
	"scenario": true, "users": true, "seed": true, "json": true, "check": true,
	"communityusers": true, "nosuggest": true, "cpuprofile": true, "memprofile": true,
}

// validate returns every problem with the flag combination, or nil
// when the invocation is runnable.
func (rf *runFlags) validate() []string {
	var problems []string
	bad := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	// A profile is written when the run is over; an unwritable path
	// must fail now, not after the minutes the run took.
	for _, pf := range []struct{ name, path string }{{"cpuprofile", rf.cpuProfile}, {"memprofile", rf.memProfile}} {
		if pf.path == "" {
			continue
		}
		f, err := os.OpenFile(pf.path, os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			bad("-%s: %v", pf.name, err)
			continue
		}
		f.Close()
	}
	if rf.cpuProfile != "" && rf.cpuProfile == rf.memProfile {
		bad("-cpuprofile and -memprofile name the same file %q", rf.cpuProfile)
	}

	if rf.scenarioRef != "" {
		var conflicts []string
		for name := range rf.setFlags {
			if !scenarioCompatible[name] {
				conflicts = append(conflicts, name)
			}
		}
		sort.Strings(conflicts)
		for _, name := range conflicts {
			bad("-%s conflicts with -scenario (the scenario owns the workload shape; only -users, -seed, -json and -check compose)", name)
		}
		if rf.setFlags["users"] && rf.users <= 0 {
			bad("-users must be positive, got %d", rf.users)
		}
		return problems
	}

	switch rf.mode {
	case "open":
		if rf.qps <= 0 {
			bad("-qps must be positive in open mode, got %g", rf.qps)
		}
		if rf.duration <= 0 {
			bad("-duration must be positive in open mode, got %v", rf.duration)
		}
		if rf.pace != 0 {
			bad("-pace only applies to closed mode")
		}
	case "closed":
		if rf.duration < 0 {
			bad("-duration must be non-negative, got %v", rf.duration)
		}
		if rf.arrivals != "poisson" {
			bad("-arrivals only applies to open mode")
		}
		if rf.pace < 0 {
			bad("-pace must be non-negative, got %g", rf.pace)
		}
	default:
		bad("unknown -mode %q (want open or closed)", rf.mode)
	}
	if _, err := pocketcloudlets.ParseArrivalKind(rf.arrivals); err != nil {
		bad("bad -arrivals: %v", err)
	}
	if rf.diurnalPeak != 0 {
		if rf.arrivals != "diurnal" {
			bad("-diurnal-peak requires -arrivals diurnal")
		}
		if rf.diurnalPeak < 1 {
			bad("-diurnal-peak must be at least 1, got %g", rf.diurnalPeak)
		}
	}
	if rf.users <= 0 {
		bad("-users must be positive, got %d", rf.users)
	}
	if rf.shards <= 0 {
		bad("-shards must be positive, got %d", rf.shards)
	}
	if rf.workers < 0 {
		bad("-workers must be non-negative, got %d", rf.workers)
	}
	if rf.queue <= 0 {
		bad("-queue must be positive, got %d", rf.queue)
	}
	if rf.share <= 0 || rf.share > 1 {
		bad("-share must be in (0, 1], got %g", rf.share)
	}
	if rf.month < 1 {
		bad("-month must be at least 1 (content is built from the preceding month), got %d", rf.month)
	}
	switch strings.ToLower(rf.radio) {
	case "3g", "edge", "wifi":
	default:
		bad("unknown -radio %q (want 3g, edge or wifi)", rf.radio)
	}
	if rf.userBudget < 0 {
		bad("-userbudget must be non-negative, got %d", rf.userBudget)
	}
	if rf.fleetBudget < 0 {
		bad("-fleetbudget must be non-negative, got %d", rf.fleetBudget)
	}
	if rf.communityUsers < 0 {
		bad("-communityusers must be non-negative, got %d", rf.communityUsers)
	}

	switch rf.placementName {
	case "modulo", "ring":
	default:
		bad("unknown -placement %q (want modulo or ring)", rf.placementName)
	}
	if rf.vnodes < 0 {
		bad("-vnodes must be non-negative, got %d", rf.vnodes)
	}
	if rf.vnodes > 0 && rf.placementName != "ring" {
		bad("-vnodes only applies to -placement ring")
	}
	if rf.resizeTo < 0 {
		bad("-resize-to must be non-negative, got %d", rf.resizeTo)
	}
	if rf.resizeAt < 0 {
		bad("-resize-at must be non-negative, got %v", rf.resizeAt)
	}
	if rf.resizeDrop && rf.resizeTo == 0 {
		bad("-resize-drop requires -resize-to")
	}

	if !rf.autoscale {
		for _, n := range []struct {
			name string
			set  bool
		}{
			{"autoscale-interval", rf.autoscaleInterval != 0},
			{"autoscale-min", rf.autoscaleMin != 0},
			{"autoscale-max", rf.autoscaleMax != 0},
			{"autoscale-high", rf.autoscaleHigh != 0},
			{"autoscale-low", rf.autoscaleLow != 0},
			{"autoscale-up", rf.autoscaleUp != 0},
			{"autoscale-down", rf.autoscaleDown != 0},
			{"autoscale-rate", rf.autoscaleRate != 0},
		} {
			if n.set {
				bad("-%s requires -autoscale", n.name)
			}
		}
	} else {
		if rf.mode != "open" {
			bad("-autoscale only applies to open mode (the sampler rides the arrival schedule)")
		}
		if rf.placementName != "ring" {
			bad("-autoscale requires -placement ring (resizes route through consistent hashing)")
		}
		if rf.resizeTo != 0 {
			bad("-autoscale conflicts with -resize-to (the controller owns the topology)")
		}
		if rf.autoscaleInterval < 0 {
			bad("-autoscale-interval must be non-negative, got %v", rf.autoscaleInterval)
		}
		if rf.autoscaleMin < 0 || rf.autoscaleMax < 0 {
			bad("-autoscale-min/-autoscale-max must be non-negative, got %d/%d", rf.autoscaleMin, rf.autoscaleMax)
		}
		if rf.autoscaleMin > 0 && rf.autoscaleMax > 0 && rf.autoscaleMin > rf.autoscaleMax {
			bad("-autoscale-min %d exceeds -autoscale-max %d", rf.autoscaleMin, rf.autoscaleMax)
		}
		if rf.autoscaleHigh < 0 || rf.autoscaleHigh > 1 {
			bad("-autoscale-high must be in [0, 1], got %g", rf.autoscaleHigh)
		}
		if rf.autoscaleLow < 0 {
			bad("-autoscale-low must be non-negative, got %g", rf.autoscaleLow)
		}
		if rf.autoscaleHigh > 0 && rf.autoscaleLow > 0 && rf.autoscaleLow >= rf.autoscaleHigh {
			bad("-autoscale-low %g must be below -autoscale-high %g", rf.autoscaleLow, rf.autoscaleHigh)
		}
		if rf.autoscaleUp < 0 || rf.autoscaleDown < 0 {
			bad("-autoscale-up/-autoscale-down must be non-negative, got %d/%d", rf.autoscaleUp, rf.autoscaleDown)
		}
		if rf.autoscaleRate < 0 {
			bad("-autoscale-rate must be non-negative, got %g", rf.autoscaleRate)
		}
	}

	if !rf.batch {
		if rf.batchMax != 0 {
			bad("-batchmax requires -batch")
		}
		if rf.batchLinger != 0 {
			bad("-batchlinger requires -batch")
		}
		if rf.batchWide {
			bad("-batchwide requires -batch")
		}
		if rf.batchAdaptive {
			bad("-batchadaptive requires -batch")
		}
	} else {
		if rf.batchMax < 0 {
			bad("-batchmax must be non-negative, got %d", rf.batchMax)
		}
		if rf.batchLinger < 0 {
			bad("-batchlinger must be non-negative, got %v", rf.batchLinger)
		}
	}

	if !rf.faults {
		if rf.loss != 0 {
			bad("-loss requires -faults")
		}
		if rf.engineErr != 0 {
			bad("-engineerr requires -faults")
		}
		if rf.outage != "" {
			bad("-outage requires -faults")
		}
		if rf.retries != 0 {
			bad("-retries requires -faults")
		}
		if rf.faultSeed != 0 {
			bad("-faultseed requires -faults")
		}
		if rf.replicas != 0 {
			bad("-replicas requires -faults")
		}
		if rf.hedge != 0 {
			bad("-hedge requires -faults")
		}
		if rf.backendRate != "" {
			bad("-backend-rate requires -faults (the admission planner runs on the faulted miss path)")
		}
	} else {
		if rf.loss < 0 || rf.loss >= 1 {
			bad("-loss must be in [0, 1), got %g", rf.loss)
		}
		if rf.engineErr < 0 || rf.engineErr >= 1 {
			bad("-engineerr must be in [0, 1), got %g", rf.engineErr)
		}
		if rf.retries < 0 {
			bad("-retries must be non-negative, got %d", rf.retries)
		}
		if rf.outage != "" {
			if _, _, _, err := pocketcloudlets.ParseOutageSpec(rf.outage); err != nil {
				bad("bad -outage: %v", err)
			}
		}
		if rf.replicas < 0 {
			bad("-replicas must be non-negative, got %d", rf.replicas)
		}
		if rf.hedge < 0 {
			bad("-hedge must be non-negative, got %d", rf.hedge)
		}
		if rf.hedge >= 2 && rf.replicas < 2 {
			bad("-hedge %d requires -replicas ≥ 2, got %d", rf.hedge, rf.replicas)
		}
	}
	if rf.backendRate == "" {
		if rf.backendQueue != 0 {
			bad("-backend-queue requires -backend-rate")
		}
		if rf.backendDisc != "" {
			bad("-backend-disc requires -backend-rate")
		}
		if rf.backendDist != "" {
			bad("-backend-dist requires -backend-rate")
		}
		if rf.backendOffered != 0 {
			bad("-backend-offered requires -backend-rate")
		}
		if rf.backendCancel {
			bad("-backend-cancel requires -backend-rate")
		}
	} else {
		if _, err := parseRate(rf.backendRate); err != nil {
			bad("bad -backend-rate: %v", err)
		}
		if rf.backendQueue < 0 {
			bad("-backend-queue must be non-negative, got %d", rf.backendQueue)
		}
		switch rf.backendDisc {
		case "", "fifo", "ps":
		default:
			bad("unknown -backend-disc %q (want fifo or ps)", rf.backendDisc)
		}
		switch rf.backendDist {
		case "", "exp", "fixed":
		default:
			bad("unknown -backend-dist %q (want exp or fixed)", rf.backendDist)
		}
		if rf.backendOffered < 0 {
			bad("-backend-offered must be non-negative, got %g", rf.backendOffered)
		}
	}

	if rf.hedge < 2 {
		if rf.hedgeDelay != 0 {
			bad("-hedgedelay requires -hedge ≥ 2")
		}
		if rf.hedgeMax != 0 {
			bad("-hedgemax requires -hedge ≥ 2")
		}
	} else {
		if rf.hedgeDelay < 0 {
			bad("-hedgedelay must be non-negative, got %v", rf.hedgeDelay)
		}
		if rf.hedgeMax < 0 {
			bad("-hedgemax must be non-negative, got %d", rf.hedgeMax)
		}
		if rf.hedgeMax > rf.hedge {
			bad("-hedgemax %d exceeds -hedge %d", rf.hedgeMax, rf.hedge)
		}
	}
	return problems
}

// parseRate parses a service rate: a positive requests-per-second
// number, or "inf" for an infinitely fast server.
func parseRate(s string) (float64, error) {
	if strings.EqualFold(s, "inf") {
		return math.Inf(1), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("want a rate number or \"inf\", got %q", s)
	}
	if v <= 0 || math.IsInf(v, -1) || math.IsNaN(v) {
		return 0, fmt.Errorf("rate must be positive (or \"inf\"), got %q", s)
	}
	return v, nil
}

// placement resolves the -placement/-vnodes flags; nil selects the
// fleet's default (modulo), keeping the legacy mapping byte-identical.
func (rf *runFlags) placement() (pocketcloudlets.Placement, error) {
	if rf.placementName == "ring" {
		return pocketcloudlets.NewRingPlacement(rf.shards, rf.vnodes)
	}
	return nil, nil
}

// toSpec lowers the legacy flag surface onto a single-class scenario
// spec, so the flag path and the -scenario path run through one
// compiler. The implicit class is tagged "default", which also gives
// flag runs a per-class report row; per-user outcomes are
// byte-identical to the pre-scenario flag path.
func (rf *runFlags) toSpec() *scenario.Spec {
	spec := &scenario.Spec{
		Version:        scenario.Version,
		Mode:           rf.mode,
		Users:          rf.users,
		Seed:           rf.seed,
		Month:          rf.month,
		Duration:       scenario.Duration(rf.duration),
		CommunityShare: rf.share,
		Fleet: scenario.FleetSpec{
			Shards:           rf.shards,
			Workers:          rf.workers,
			Queue:            rf.queue,
			Radio:            strings.ToLower(rf.radio),
			Placement:        rf.placementName,
			VNodes:           rf.vnodes,
			UserBudgetBytes:  rf.userBudget,
			FleetBudgetBytes: rf.fleetBudget,
			Batch: scenario.BatchSpec{
				Enabled:   rf.batch,
				Max:       rf.batchMax,
				Linger:    scenario.Duration(rf.batchLinger),
				FleetWide: rf.batchWide,
				Adaptive:  rf.batchAdaptive,
			},
		},
	}
	if rf.autoscale {
		spec.Fleet.Autoscale = &scenario.AutoscaleSpec{
			Interval:     scenario.Duration(rf.autoscaleInterval),
			Min:          rf.autoscaleMin,
			Max:          rf.autoscaleMax,
			High:         rf.autoscaleHigh,
			Low:          rf.autoscaleLow,
			UpAfter:      rf.autoscaleUp,
			DownAfter:    rf.autoscaleDown,
			RatePerShard: rf.autoscaleRate,
		}
	}
	cls := scenario.ClassSpec{Name: "default", Share: 1}
	switch rf.mode {
	case "open":
		spec.QPS = rf.qps
		cls.Arrival = &scenario.ArrivalSpec{
			Process:      rf.arrivals,
			RateFraction: 1,
			PeakTrough:   rf.diurnalPeak,
		}
	case "closed":
		if rf.pace > 0 {
			cls.Think = &scenario.ThinkSpec{Scale: rf.pace}
		}
	}
	if rf.faults {
		spec.Faults = &scenario.FaultSpec{
			Loss:      rf.loss,
			EngineErr: rf.engineErr,
			Outage:    rf.outage,
			Retries:   rf.retries,
			Seed:      rf.faultSeed,
		}
		spec.Fleet.Replicas = rf.replicas
		if rf.hedge >= 2 {
			cls.Hedge = &scenario.HedgeSpec{
				CloneFactor: rf.hedge,
				Delay:       scenario.Duration(rf.hedgeDelay),
				MaxInflight: rf.hedgeMax,
			}
		}
		if rf.backendRate != "" {
			rate, _ := parseRate(rf.backendRate) // validate already vetted it
			spec.Fleet.Backend = &scenario.BackendSpec{
				ServiceRate: scenario.Rate(rate),
				Queue:       rf.backendQueue,
				Discipline:  rf.backendDisc,
				Dist:        rf.backendDist,
				Offered:     rf.backendOffered,
				CancelOnWin: rf.backendCancel,
			}
		}
	}
	spec.Classes = []scenario.ClassSpec{cls}
	return spec
}

func main() {
	var rf runFlags
	rf.register(flag.CommandLine)
	flag.Parse()
	rf.noteSet(flag.CommandLine)

	if problems := rf.validate(); len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "loadtest: %s\n", p)
		}
		fmt.Fprintln(os.Stderr, "run with -h for usage")
		os.Exit(2)
	}

	progress := func(format string, args ...any) {
		if !rf.jsonOut {
			fmt.Fprintf(os.Stderr, format, args...)
		}
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	stopProfiles, err := startProfiles(rf.cpuProfile, rf.memProfile)
	if err != nil {
		fail(err)
	}

	// Both paths — flags and -scenario — compile to the same scenario
	// spec and run through the same machinery.
	var (
		spec   *scenario.Spec
		source string
	)
	if rf.scenarioRef != "" {
		spec, source, err = scenario.Load(rf.scenarioRef)
		if err != nil {
			fail(err)
		}
		if rf.setFlags["users"] {
			spec.Users = rf.users
		}
		if rf.setFlags["seed"] {
			spec.Seed = rf.seed
		}
	} else {
		spec = rf.toSpec()
	}
	comp, err := scenario.Compile(spec, source)
	if err != nil {
		fail(err)
	}
	// The live-resize knobs ride outside the spec: they describe an
	// operation performed on the fleet during the run, not the workload.
	comp.Open.ResizeTo, comp.Open.ResizeAt, comp.Open.ResizeDrop = rf.resizeTo, rf.resizeAt, rf.resizeDrop
	comp.Closed.ResizeTo, comp.Closed.ResizeAt, comp.Closed.ResizeDrop = rf.resizeTo, rf.resizeAt, rf.resizeDrop

	progress("building ecosystem: %d users, seed %d...\n", spec.Users, spec.Seed)
	ucfg := scenario.UniverseConfig()
	sim, err := pocketcloudlets.NewSimulation(pocketcloudlets.SimConfig{
		Seed: spec.Seed, Users: spec.Users, UniverseConfig: &ucfg,
	})
	if err != nil {
		fail(err)
	}
	content, err := sim.CommunityContentFrom(spec.Month-1, spec.CommunityShare, rf.communityUsers)
	if err != nil {
		fail(err)
	}
	progress("community content: %d pairs covering %.0f%% of volume\n",
		len(content.Triplets), 100*content.CoveredShare)

	col := pocketcloudlets.NewLoadCollector()
	fcfg, err := comp.FleetConfig(col)
	if err != nil {
		fail(err)
	}
	// A memory-layout knob like -communityusers, not a workload one:
	// the auto-suggest index is never queried by a load run, and at
	// million-user populations its per-user cost decides whether the
	// fleet fits in host memory.
	fcfg.Options.DisableSuggest = rf.noSuggest
	f, err := sim.NewFleet(content, fcfg)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	progress("fleet up: %d shards (%s placement), %d workers, radio %s, batching %v, faults %v\n",
		f.NumShards(), f.PlacementName(), f.NumWorkers(), spec.Fleet.Radio,
		spec.Fleet.Batch.Enabled, spec.Faults != nil)
	if rf.resizeTo > 0 {
		progress("will live-resize to %d shards %v into the run (drop state: %v)\n",
			rf.resizeTo, rf.resizeAt, rf.resizeDrop)
	}

	switch spec.Mode {
	case "open":
		progress("open loop: %.0f mean QPS for %v, %d classes...\n", spec.QPS, spec.Duration.D(), len(spec.Classes))
	case "closed":
		progress("closed loop: %d concurrent users, %d classes...\n", spec.Users, len(spec.Classes))
	case "trace":
		progress("trace replay: %s...\n", spec.Trace)
	}
	report, err := comp.Run(f, col, sim.Generator)
	if err != nil {
		fail(err)
	}

	if rf.jsonOut {
		raw, jerr := report.JSON()
		if jerr != nil {
			fail(jerr)
		}
		fmt.Println(string(raw))
	} else {
		fmt.Print(report.String())
	}
	if rf.check {
		faultsOn := spec.Faults != nil
		hedgeOn := false
		for _, cls := range spec.Classes {
			if cls.Faults != nil {
				faultsOn = true
			}
			if cls.Hedge != nil && cls.Hedge.CloneFactor >= 2 && spec.Fleet.Replicas >= 2 {
				hedgeOn = true
			}
		}
		backendOn := spec.Fleet.Backend != nil
		autoscaleOn := spec.Fleet.Autoscale != nil
		if problems := checkReport(report, faultsOn, hedgeOn, backendOn, autoscaleOn); len(problems) > 0 {
			for _, p := range problems {
				fmt.Fprintf(os.Stderr, "check failed: %s\n", p)
			}
			os.Exit(1)
		}
		progress("checks passed\n")
	}
	if err := stopProfiles(); err != nil {
		fail(err)
	}
}

// startProfiles starts the CPU profile, when asked for, and returns the
// function that finishes it and writes the heap profile. main calls
// that function only on its clean exit: a failed run or a failed
// -check leaves no profile worth reading.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("-cpuprofile: %w", err)
			}
		}
		if memPath == "" {
			return nil
		}
		mem, err := os.Create(memPath)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		runtime.GC() // so the profile's in-use figures are the live heap
		if err := pprof.WriteHeapProfile(mem); err != nil {
			mem.Close()
			return fmt.Errorf("-memprofile: %w", err)
		}
		if err := mem.Close(); err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		return nil
	}, nil
}

// checkReport verifies the report's accounting invariants: every
// submission is booked exactly once, every served request came from
// exactly one tier, the fault counters are silent when fault
// injection is off, the hedge counters cross-foot (every hedged
// cloud serve was won by exactly one dispatch; wasted clones never
// exceed clones launched), the backend replica rows cross-foot
// (arrivals partition into served, rejected and abandoned), the
// energy ledger cross-foots (device = base + radio, and it tracks the
// collector's per-response sum; fleet = device + shards), and the
// autoscale action log stays within bounds and chains shard counts.
func checkReport(r pocketcloudlets.LoadReport, faultsOn, hedgeOn, backendOn, autoscaleOn bool) []string {
	var problems []string
	if r.Errors != 0 {
		problems = append(problems, fmt.Sprintf("errors: %d", r.Errors))
	}
	if r.Requests != r.Served+r.Shed+r.Canceled {
		problems = append(problems, fmt.Sprintf("requests %d != served %d + shed %d + canceled %d",
			r.Requests, r.Served, r.Shed, r.Canceled))
	}
	tiers := r.PersonalHits + r.CommunityHits + r.CloudMisses + r.Degraded + r.Unavailable
	if tiers+r.Errors != r.Served {
		problems = append(problems, fmt.Sprintf("tier counts %d + errors %d != served %d", tiers, r.Errors, r.Served))
	}
	if !faultsOn && r.Degraded+r.Unavailable+uint64(r.Retries)+uint64(r.Exhausted)+uint64(r.BreakerOpens) != 0 {
		problems = append(problems, fmt.Sprintf("fault counters nonzero with faults off: degraded %d unavailable %d retries %d exhausted %d breaker %d",
			r.Degraded, r.Unavailable, r.Retries, r.Exhausted, r.BreakerOpens))
	}
	if !hedgeOn && r.ClonesLaunched+r.PrimaryWins+r.CloneWins+r.WastedAttempts != 0 {
		problems = append(problems, fmt.Sprintf("hedge counters nonzero with hedging off: clones %d primary wins %d clone wins %d wasted %d",
			r.ClonesLaunched, r.PrimaryWins, r.CloneWins, r.WastedAttempts))
	}
	if hedgeOn {
		// Every hedged cloud miss is won by exactly one dispatch, so with
		// no cancellations the wins partition the cloud serves.
		if r.Canceled == 0 && r.PrimaryWins+r.CloneWins != int64(r.CloudMisses) {
			problems = append(problems, fmt.Sprintf("primary wins %d + clone wins %d != cloud misses %d",
				r.PrimaryWins, r.CloneWins, r.CloudMisses))
		}
		if r.CloneWins > r.ClonesLaunched {
			problems = append(problems, fmt.Sprintf("clone wins %d exceed clones launched %d", r.CloneWins, r.ClonesLaunched))
		}
	}
	if len(r.ReplicaBreakerOpens) > 0 {
		var sum int64
		for _, n := range r.ReplicaBreakerOpens {
			sum += n
		}
		if sum != r.BreakerOpens {
			problems = append(problems, fmt.Sprintf("replica breaker opens sum to %d, report says %d", sum, r.BreakerOpens))
		}
	}
	if !backendOn && len(r.Backend) > 0 {
		problems = append(problems, fmt.Sprintf("backend rows present with the backend model off: %d replicas", len(r.Backend)))
	}
	if backendOn && len(r.Backend) == 0 {
		problems = append(problems, "backend model on but the report has no replica rows")
	}
	for _, br := range r.Backend {
		if br.Arrivals != br.Served+br.Rejected+br.Abandoned {
			problems = append(problems, fmt.Sprintf(
				"backend replica %d does not cross-foot: arrivals %d != served %d + rejected %d + abandoned %d",
				br.Replica, br.Arrivals, br.Served, br.Rejected, br.Abandoned))
		}
		if br.Utilization < 0 || br.BusyNS < 0 || br.MeanWaitNS < 0 || br.P99WaitNS < 0 {
			problems = append(problems, fmt.Sprintf("backend replica %d has negative accounting: %+v", br.Replica, br))
		}
		if br.ReclaimedNS < 0 || br.AbandonedWorkFraction < 0 || br.AbandonedWorkFraction > 1 {
			problems = append(problems, fmt.Sprintf("backend replica %d waste accounting out of range: %+v", br.Replica, br))
		}
	}
	// Live shards plus the folded counters of shards retired by a
	// resize must account for every booked request.
	var shardServed, shardShed uint64
	for _, so := range r.ShardOccupancy {
		shardServed += uint64(so.Served)
		shardShed += uint64(so.Shed)
	}
	shardServed += uint64(r.RetiredServed)
	shardShed += uint64(r.RetiredShed)
	if len(r.ShardOccupancy) > 0 && (shardServed != r.Served || shardShed != r.Shed) {
		problems = append(problems, fmt.Sprintf("shard occupancy (live + retired) sums %d served / %d shed, report says %d / %d",
			shardServed, shardShed, r.Served, r.Shed))
	}
	if len(r.Classes) > 0 {
		var clsServed, clsShed, clsCanceled uint64
		for _, cr := range r.Classes {
			clsServed += cr.Served
			clsShed += cr.Shed
			clsCanceled += cr.Canceled
		}
		if clsServed != r.Served || clsShed != r.Shed || clsCanceled != r.Canceled {
			problems = append(problems, fmt.Sprintf(
				"class rows sum to %d served / %d shed / %d canceled, report says %d / %d / %d",
				clsServed, clsShed, clsCanceled, r.Served, r.Shed, r.Canceled))
		}
	}

	if r.Energy == nil {
		problems = append(problems, "report has no energy ledger block")
	} else {
		e := r.Energy
		for _, n := range []struct {
			name string
			v    float64
		}{
			{"device_base_j", e.DeviceBaseJ}, {"radio_j", e.RadioJ}, {"device_j", e.DeviceJ},
			{"shard_idle_j", e.ShardIdleJ}, {"shard_active_j", e.ShardActiveJ},
			{"shard_j", e.ShardJ}, {"fleet_j", e.FleetJ}, {"per_answered_j", e.PerAnsweredJ},
		} {
			if n.v < 0 {
				problems = append(problems, fmt.Sprintf("energy.%s negative: %g", n.name, n.v))
			}
		}
		if !near(e.DeviceBaseJ+e.RadioJ, e.DeviceJ) {
			problems = append(problems, fmt.Sprintf("energy: device base %g + radio %g != device %g",
				e.DeviceBaseJ, e.RadioJ, e.DeviceJ))
		}
		if !near(e.ShardIdleJ+e.ShardActiveJ, e.ShardJ) {
			problems = append(problems, fmt.Sprintf("energy: shard idle %g + active %g != shard %g",
				e.ShardIdleJ, e.ShardActiveJ, e.ShardJ))
		}
		if !near(e.DeviceJ+e.ShardJ, e.FleetJ) {
			problems = append(problems, fmt.Sprintf("energy: device %g + shard %g != fleet %g",
				e.DeviceJ, e.ShardJ, e.FleetJ))
		}
		if !near(e.DeviceJ, r.EnergyJ) {
			problems = append(problems, fmt.Sprintf(
				"energy: ledger device joules %g disagree with collector energy_j %g", e.DeviceJ, r.EnergyJ))
		}
		if answered := int64(r.Served) - int64(r.Unavailable); answered > 0 &&
			!near(e.PerAnsweredJ*float64(answered), e.FleetJ) {
			problems = append(problems, fmt.Sprintf("energy: per_answered %g × %d answered != fleet %g",
				e.PerAnsweredJ, answered, e.FleetJ))
		}
	}

	if !autoscaleOn && r.Autoscale != nil {
		problems = append(problems, "autoscale block present with the autoscaler off")
	}
	if autoscaleOn {
		if r.Autoscale == nil {
			problems = append(problems, "autoscaler on but the report has no autoscale block")
		} else {
			a := r.Autoscale
			if a.Samples <= 0 {
				problems = append(problems, "autoscaler on but recorded no occupancy samples")
			}
			cur := -1
			for i, act := range a.Actions {
				if act.To < a.Min || act.To > a.Max {
					problems = append(problems, fmt.Sprintf("autoscale action %d targets %d shards, outside [%d, %d]",
						i, act.To, a.Min, a.Max))
				}
				if act.To == act.From {
					problems = append(problems, fmt.Sprintf("autoscale action %d is a no-op resize at %d shards", i, act.To))
				}
				if cur >= 0 && act.From != cur {
					problems = append(problems, fmt.Sprintf(
						"autoscale actions do not chain: action %d starts from %d shards, previous ended at %d",
						i, act.From, cur))
				}
				cur = act.To
			}
			if cur >= 0 && a.FinalShards != cur {
				problems = append(problems, fmt.Sprintf("autoscale final shard count %d != last action target %d",
					a.FinalShards, cur))
			}
		}
	}
	return problems
}

// near reports whether two joule totals agree within the ledger's
// rounding slack: the ledger accumulates in integer nanojoules while
// the collector sums float64 per response, so totals drift by at most
// a relative hair.
func near(a, b float64) bool {
	scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return math.Abs(a-b) <= 1e-6*scale
}
