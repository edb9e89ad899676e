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
// -resize-to N reshards the fleet to N shards at model offset
// -resize-at: the flags are shorthand for one spec event,
// events[0] = {"at": T, "resize": N, "drop": D}. The offset is into the
// arrival schedule in open mode and into the users' month logs in
// closed mode, so the resize lands at the same point of the tape on any
// host. Requests wait while the resize drains, moves and publishes.
// Movers' personal caches are migrated with them (unless -resize-drop
// discards them — the remap-and-cold-start baseline), and the report's
// resizes/migrated_* fields quantify the migration work.
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
// capped at -batchmax misses after a -batchlinger collection window,
// one dispatcher per shard. The report's
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
// report's answered_rate, degraded, unavailable, retries and exhausted
// fields quantify availability under the scenario.
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
// workload flag conflicts. Each workload flag is shorthand for one key
// of that spec (DESIGN.md, "Configuration surface"; README's flag table
// names the key).
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
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"pocketcloudlets"
	"pocketcloudlets/internal/scenario"
	"pocketcloudlets/internal/searchlog"
)

// knob is one workload flag: a shorthand for one key of the scenario
// spec. The table below is the only place a workload flag is declared;
// its type and default come from the key it names (in baseSpec), its
// decoding and every check on its value from internal/scenario.
type knob struct {
	name, path, usage string
	block             string // on a switch, the JSON the flag stands for: -faults is "faults": {}
	enables           bool   // may create the absent pointer block or list element its key lies in; the flags under it "require" this one
	nonzero           bool   // the key's 0 means "the default" in a spec file, but the flag has always refused it
}

// knobs are overlaid onto the base spec in this order, so the flag that
// creates a block comes before the flags that set keys inside it.
var knobs = []knob{
	{name: "mode", path: "mode", usage: "load protocol: open (Poisson at -qps) or closed (-users concurrent users)"},
	{name: "users", path: "users", usage: "simulated user population (and closed-loop concurrency)"},
	{name: "qps", path: "qps", usage: "open-loop target mean arrival rate"},
	{name: "arrivals", path: "classes[0].arrival.process", enables: true, usage: "open-loop arrival process: poisson, diurnal or peruser"},
	{name: "diurnal-peak", path: "classes[0].arrival.peak_trough", usage: "diurnal peak/trough rate ratio (with -arrivals diurnal); 0 = default 4"},
	{name: "pace", path: "classes[0].think.scale", enables: true, usage: "closed-loop think-time scale: sleep this fraction of each modeled response time between a user's requests; 0 = unpaced"},
	{name: "duration", path: "duration", usage: "run length; 0 in closed mode replays exactly one month"},
	{name: "shards", path: "fleet.shards", nonzero: true, usage: "user shards (community cache replicas)"},
	{name: "workers", path: "fleet.workers", usage: "worker pool size; 0 selects min(shards, GOMAXPROCS)"},
	{name: "queue", path: "fleet.queue", nonzero: true, usage: "per-worker queue depth before shedding"},
	{name: "seed", path: "seed", usage: "simulation and arrival-schedule seed"},
	{name: "share", path: "community_share", nonzero: true, usage: "community cache cumulative-volume share"},
	{name: "month", path: "month", nonzero: true, usage: "month to replay (content is built from the preceding month)"},
	{name: "radio", path: "fleet.radio", usage: "radio technology: 3g, edge, wifi"},
	{name: "userbudget", path: "fleet.user_budget_bytes", usage: "per-user personal flash cap in bytes; 0 = unlimited"},
	{name: "placement", path: "fleet.placement", usage: "user→shard routing: modulo (legacy static) or ring (consistent hashing)"},
	{name: "vnodes", path: "fleet.vnodes", usage: "virtual nodes per shard on the ring (with -placement ring); 0 = default 64"},
	{name: "resize-to", path: "events[0].resize", enables: true, usage: "live-reshard the fleet to this many shards at -resize-at"},
	{name: "resize-at", path: "events[0].at", usage: "model offset of the -resize-to resize: into the arrival schedule (open) or the users' month logs (closed)"},
	{name: "resize-drop", path: "events[0].drop", usage: "discard movers' personal state on the -resize-to resize instead of migrating it (cold-start baseline)"},
	{name: "autoscale", path: "fleet.autoscale", block: "{}", enables: true, usage: "drive shard count from per-shard occupancy sampled on a model-time cadence (open mode with -placement ring)"},
	{name: "autoscale-interval", path: "fleet.autoscale.interval", usage: "autoscaler model-time sampling cadence (with -autoscale); 0 = default 1s"},
	{name: "autoscale-min", path: "fleet.autoscale.min", usage: "autoscaler shard floor (with -autoscale); 0 = default 1"},
	{name: "autoscale-max", path: "fleet.autoscale.max", usage: "autoscaler shard ceiling (with -autoscale); 0 = default 4x the initial -shards"},
	{name: "autoscale-high", path: "fleet.autoscale.high", usage: "occupancy watermark above which samples count toward scaling up (with -autoscale); 0 = default 0.75"},
	{name: "autoscale-low", path: "fleet.autoscale.low", usage: "occupancy watermark below which samples count toward scaling down (with -autoscale); 0 = default 0.35"},
	{name: "autoscale-up", path: "fleet.autoscale.up_after", usage: "consecutive hot samples before a scale-up fires (with -autoscale); 0 = default 2"},
	{name: "autoscale-down", path: "fleet.autoscale.down_after", usage: "consecutive cold samples before a scale-down fires (with -autoscale); 0 = default 3"},
	{name: "autoscale-rate", path: "fleet.autoscale.rate_per_shard", usage: "model-time serving rate (req/s) at which one shard counts as fully occupied (with -autoscale); 0 = default 50"},
	{name: "batch", path: "fleet.batch.enabled", usage: "coalesce concurrent cloud misses into batched radio sessions"},
	{name: "batchmax", path: "fleet.batch.max", usage: "max misses per batched radio session; 0 = default 16"},
	{name: "batchlinger", path: "fleet.batch.linger", usage: "how long a dispatcher holds an open batch for more misses; 0 = default 200µs"},
	{name: "faults", path: "faults", block: "{}", enables: true, usage: "enable the deterministic connectivity-fault model"},
	{name: "loss", path: "faults.loss", usage: "per-attempt probability a radio exchange is dropped (with -faults)"},
	{name: "engineerr", path: "faults.engine_err", usage: "per-attempt probability of a transient cloud engine error (with -faults)"},
	{name: "outage", path: "faults.outage", usage: `outage spec (with -faults): "6s/30s" duty cycle or "10s-20s,40s-45s" windows`},
	{name: "retries", path: "faults.retries", usage: "max radio attempts per cloud miss (with -faults); 0 = default 4"},
	{name: "faultseed", path: "faults.seed", usage: "fault-model seed (with -faults); 0 reuses -seed"},
	{name: "replicas", path: "fleet.replicas", usage: "modeled cloud backend replicas with independent fault draws (with -faults); 0 = single backend"},
	{name: "hedge", path: "classes[0].hedge.clone_factor", enables: true, usage: "hedged-miss clone factor: dispatch each cloud miss to up to this many replicas, first success wins (with -faults and -replicas ≥ 2); 0 or 1 = no hedging"},
	{name: "hedgedelay", path: "classes[0].hedge.delay", usage: "model-time delay before each hedge clone launches (with -hedge); 0 = immediate clones"},
	{name: "hedgemax", path: "classes[0].hedge.max_inflight", usage: "max concurrent dispatches per hedged miss (with -hedge); 0 = clone factor"},
	{name: "backend-rate", path: "fleet.backend.service_rate", enables: true, usage: `model the cloud replicas as finite-capacity queues at this per-replica service rate in requests/second, or "inf" for an infinitely fast server (with -faults); empty = analytic miss path`},
	{name: "backend-queue", path: "fleet.backend.queue", usage: "replica queue bound (with -backend-rate): fifo caps backlog at this many mean service times, ps caps concurrent sharing; 0 = unbounded"},
	{name: "backend-disc", path: "fleet.backend.discipline", usage: "replica queueing discipline (with -backend-rate): fifo or ps; empty = fifo"},
	{name: "backend-dist", path: "fleet.backend.dist", usage: "replica service-time distribution (with -backend-rate): exp or fixed; empty = exp"},
	{name: "backend-offered", path: "fleet.backend.offered", usage: "fleet-wide background miss arrival rate in requests/second the replica queues simmer under (with -backend-rate); 0 = no background load"},
	{name: "backend-cancel", path: "fleet.backend.cancel_on_win", usage: "reclaim a hedge loser's unexecuted service when the winner's answer cancels it (with -backend-rate)"},
}

// baseSpec is the bare run — what loadtest does with no workload flag
// set — and so also where -h reads every workload flag's default. The
// implicit class is tagged "default", which gives flag runs a per-class
// report row; a closed run schedules no arrivals, so its base carries
// neither a rate nor an arrival block.
func baseSpec(closed bool) *scenario.Spec {
	s := &scenario.Spec{
		Version:        scenario.Version,
		Mode:           "closed",
		Users:          4000,
		Seed:           1,
		Month:          1,
		Duration:       scenario.Duration(5 * time.Second),
		CommunityShare: 0.55,
		Fleet:          scenario.FleetSpec{Shards: 8, Queue: 1024, Radio: "3g", Placement: "modulo"},
		Classes:        []scenario.ClassSpec{{Name: "default", Share: 1}},
	}
	if !closed {
		s.Mode, s.QPS = "open", 2000
		s.Classes[0].Arrival = &scenario.ArrivalSpec{Process: "poisson", RateFraction: 1}
	}
	return s
}

// runFlags is the parsed command line: the process-side switches and
// the text of every flag the command line set. compile turns it into a
// runnable scenario before any of the expensive ecosystem build starts,
// so a bad invocation fails in microseconds with a usage message.
type runFlags struct {
	scenarioRef    string
	communityUsers int
	check, jsonOut bool
	cpuProfile     string
	memProfile     string

	// set maps each flag the command line set explicitly to its value's
	// text (see noteSet).
	set map[string]string
}

// register declares each knob with the flag type and default of the
// key it names, so -h and the flag package's own type errors read as
// they always have, and then the flags that have no spec key.
func (rf *runFlags) register(fs *flag.FlagSet) {
	defaults := baseSpec(false)
	for _, k := range knobs {
		leaf, err := scenario.Field(defaults, k.path, true)
		if err != nil {
			panic(err) // a typo in the table; TestKnobPathsResolve reports it properly
		}
		switch def := leaf.Interface().(type) {
		case int:
			fs.Int(k.name, def, k.usage)
		case int64:
			fs.Int64(k.name, def, k.usage)
		case float64:
			fs.Float64(k.name, def, k.usage)
		case scenario.Duration:
			fs.Duration(k.name, def.D(), k.usage)
		case string:
			fs.String(k.name, def, k.usage)
		case scenario.Rate:
			fs.String(k.name, "", k.usage)
		default: // a bool key, or a block the switch makes present
			fs.Bool(k.name, false, k.usage)
		}
	}
	fs.StringVar(&rf.scenarioRef, "scenario", "", "run a declarative scenario: a JSON file path or a preset (clone-storm, commuter, flash-crowd, regional-outage, mixed-fleet)")
	fs.IntVar(&rf.communityUsers, "communityusers", 0, "build community content from only the first N users' logs (million-user fleets: avoids materializing the full month log); 0 = all users")
	fs.BoolVar(&rf.check, "check", false, "verify report invariants after the run and exit non-zero on violation")
	fs.BoolVar(&rf.jsonOut, "json", false, "emit the report as JSON only")
	fs.StringVar(&rf.cpuProfile, "cpuprofile", "", "write a CPU profile of the whole invocation (ecosystem build, fleet set-up and run) to this file on clean exit; read it with go tool pprof")
	fs.StringVar(&rf.memProfile, "memprofile", "", "write a heap profile (live objects after a final GC, and cumulative allocations) to this file on clean exit")
}

// noteSet records which flags the command line set explicitly, and to
// what. Call it right after fs.Parse.
func (rf *runFlags) noteSet(fs *flag.FlagSet) {
	rf.set = map[string]string{}
	fs.Visit(func(f *flag.Flag) { rf.set[f.Name] = f.Value.String() })
}

// under reports whether key path a is b or lies inside b.
func under(a, b string) bool {
	return a == b || strings.HasPrefix(a, b+".") || strings.HasPrefix(a, b+"[")
}

// compile resolves the command line to a compiled scenario: the set
// knobs overlaid in table order onto the base spec — or, with
// -scenario, -users and -seed onto the loaded one — and handed to the
// one validator. It returns every problem with the invocation, each
// naming the flags it concerns, or none and a runnable scenario.
func (rf *runFlags) compile() (*scenario.Compiled, []string) {
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
		if f, err := os.OpenFile(pf.path, os.O_WRONLY|os.O_CREATE, 0o644); err != nil {
			bad("-%s: %v", pf.name, err)
		} else {
			f.Close()
		}
	}
	if rf.cpuProfile != "" && rf.cpuProfile == rf.memProfile {
		bad("-cpuprofile and -memprofile name the same file %q", rf.cpuProfile)
	}
	if rf.communityUsers < 0 {
		bad("-communityusers must be non-negative, got %d", rf.communityUsers)
	}

	spec, source := baseSpec(rf.set["mode"] == "closed"), ""
	conflict := func(name string) {
		bad("-%s conflicts with -scenario (the scenario owns the workload shape; only -users, -seed, -json and -check compose)", name)
	}
	if rf.scenarioRef != "" {
		var err error
		if spec, source, err = scenario.Load(rf.scenarioRef); err != nil {
			bad("-scenario: %v", err)
			return nil, problems
		}
	}
	for _, k := range knobs {
		v, set := rf.set[k.name]
		switch {
		case !set, k.block != "" && v != "true":
			continue
		case rf.scenarioRef != "" && k.name != "users" && k.name != "seed":
			conflict(k.name)
			continue
		case k.nonzero && v == "0":
			bad("-%s: must not be 0 (only a spec file's %s: 0 selects the default)", k.name, k.path)
			continue
		case k.block != "":
			v = k.block
		}
		err := scenario.Set(spec, k.path, v, k.enables)
		var absent *scenario.AbsentBlockError
		if errors.As(err, &absent) {
			for _, e := range knobs {
				if e.enables && under(e.path, absent.Block) {
					bad("-%s requires -%s", k.name, e.name)
				}
			}
		} else if err != nil {
			bad("-%s: %s", k.name, strings.TrimPrefix(err.Error(), "scenario: "))
		}
	}

	comp, err := scenario.Compile(spec, source)
	var invalid *scenario.Error
	if errors.As(err, &invalid) {
		// Name, for each problem at a spec path, the flags set at, under
		// or above it.
		for _, p := range invalid.Problems {
			path, _, _ := strings.Cut(p, ": ")
			var names []string
			for _, k := range knobs {
				if _, set := rf.set[k.name]; set && (under(k.path, path) || under(path, k.path)) {
					names = append(names, "-"+k.name)
				}
			}
			if len(names) > 0 {
				p = strings.Join(names, ", ") + ": " + p
			}
			bad("%s", p)
		}
	} else if err != nil {
		bad("%v", err)
	}
	return comp, problems
}

func main() {
	var rf runFlags
	rf.register(flag.CommandLine)
	flag.Parse()
	rf.noteSet(flag.CommandLine)

	comp, problems := rf.compile()
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "loadtest: %s\n", p)
		}
		fmt.Fprintln(os.Stderr, "run with -h for usage")
		os.Exit(2)
	}
	spec := comp.Spec

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
	f, err := sim.NewFleet(content, fcfg)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	progress("fleet up: %d shards (%s placement), %d workers, radio %s, batching %v, faults %v\n",
		f.NumShards(), f.PlacementName(), f.NumWorkers(), spec.Fleet.Radio,
		spec.Fleet.Batch.Enabled, spec.Faults != nil)

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
		if problems := check(comp, f, report); len(problems) > 0 {
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

// hedgedMisses reports whether anybody's cloud misses were planned
// across replicas and how many cloud misses the report books to those
// who were: it asks the fleet, which resolved who hedges when it was
// built, about one user of each class, and sums the hedging classes'
// rows (the fleet-wide count when every class hedges). The count is -1
// when the report cannot tell: a class that does not hedge shares a
// hedging class's SLO tag, or the run replayed a trace, whose requests
// carry the tags they were recorded under.
func hedgedMisses(f *pocketcloudlets.Fleet, comp *scenario.Compiled, r pocketcloudlets.LoadReport) (on bool, misses int64) {
	hedging, plain := map[string]bool{}, map[string]bool{}
	for _, rg := range comp.Ranges {
		if rg.Lo == rg.Hi {
			continue
		}
		if f.Hedges(searchlog.UserID(rg.Lo)) {
			hedging[rg.SLO] = true
		} else {
			plain[rg.SLO] = true
		}
	}
	on = len(hedging) > 0
	switch {
	case len(plain) == 0:
		return on, int64(r.CloudMisses)
	case comp.Spec.Mode == "trace":
		return on, -1
	}
	for _, cr := range r.Classes {
		if hedging[cr.Class] && plain[cr.Class] {
			return on, -1
		}
		if hedging[cr.Class] {
			misses += int64(cr.CloudMisses)
		}
	}
	return on, misses
}

// check is -check: it verifies the accounting invariants of the report
// of a run of comp on f — each one holds two sources that could
// disagree against each other, or a model invariant, never a field
// against the arithmetic that derived it: the collector's total row
// agrees with the fleet's serving counters, the fault counters are
// silent when fault injection is off, the hedge counters cross-foot
// (every cloud serve of a user who hedges was won by exactly one
// dispatch; wasted clones never exceed clones launched), the backend
// replica rows cross-foot (arrivals partition into served, rejected
// and abandoned), the fleet's energy ledger tracks the collector's
// per-response sums (device and radio joules), and the autoscale action
// log stays within bounds and chains shard counts.
func check(comp *scenario.Compiled, f *pocketcloudlets.Fleet, r pocketcloudlets.LoadReport) []string {
	spec := comp.Spec
	faultsOn := spec.Faults != nil
	for _, cls := range spec.Classes {
		if cls.Faults != nil {
			faultsOn = true
		}
	}
	backendOn := spec.Fleet.Backend != nil
	autoscaleOn := spec.Fleet.Autoscale != nil
	hedgeOn, hedged := hedgedMisses(f, comp, r)
	var problems []string
	if r.Errors != 0 {
		problems = append(problems, fmt.Sprintf("errors: %d", r.Errors))
	}
	// The collector's total row and the fleet's Stats are two folds of
	// the same responses (the fleet is fresh, so its lifetime counters
	// are the run's).
	st := f.Stats()
	var off []string
	for _, c := range []struct {
		key        string
		row, fleet uint64
	}{
		{"served", r.Served, uint64(st.Served)}, {"shed", r.Shed, uint64(st.Shed)}, {"errors", r.Errors, uint64(st.Errors)},
		{"personal_hits", r.PersonalHits, uint64(st.PersonalHits)}, {"community_hits", r.CommunityHits, uint64(st.CommunityHits)},
		{"cloud_misses", r.CloudMisses, uint64(st.CloudMisses)}, {"degraded", r.Degraded, uint64(st.Degraded)},
		{"unavailable", r.Unavailable, uint64(st.Unavailable)},
	} {
		if c.row != c.fleet {
			off = append(off, fmt.Sprintf("%s %d vs %d", c.key, c.row, c.fleet))
		}
	}
	if len(off) > 0 {
		problems = append(problems, "collector total row disagrees with the fleet's counters: "+strings.Join(off, ", "))
	}
	if !faultsOn && r.Degraded+r.Unavailable+uint64(r.Retries)+uint64(r.Exhausted) != 0 {
		problems = append(problems, fmt.Sprintf("fault counters nonzero with faults off: degraded %d unavailable %d retries %d exhausted %d",
			r.Degraded, r.Unavailable, r.Retries, r.Exhausted))
	}
	if !hedgeOn && r.ClonesLaunched+r.PrimaryWins+r.CloneWins+r.WastedAttempts != 0 {
		problems = append(problems, fmt.Sprintf("hedge counters nonzero with hedging off: clones %d primary wins %d clone wins %d wasted %d",
			r.ClonesLaunched, r.PrimaryWins, r.CloneWins, r.WastedAttempts))
	}
	if hedgeOn {
		// Every hedged cloud miss is won by exactly one dispatch, so the
		// wins partition the cloud serves of the users who hedge
		// (hedgedMisses; negative when the report cannot tell them
		// apart).
		if hedged >= 0 && r.PrimaryWins+r.CloneWins != hedged {
			problems = append(problems, fmt.Sprintf("primary wins %d + clone wins %d != %d cloud misses of the classes that hedge",
				r.PrimaryWins, r.CloneWins, hedged))
		}
		if r.CloneWins > r.ClonesLaunched {
			problems = append(problems, fmt.Sprintf("clone wins %d exceed clones launched %d", r.CloneWins, r.ClonesLaunched))
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
	if r.Energy == nil {
		problems = append(problems, "report has no energy ledger block")
	} else {
		e := r.Energy
		for _, n := range []struct {
			name string
			v    float64
		}{
			{"device_base_j", e.DeviceBaseJ}, {"radio_j", e.RadioJ},
			{"shard_idle_j", e.ShardIdleJ}, {"shard_active_j", e.ShardActiveJ},
		} {
			if n.v < 0 {
				problems = append(problems, fmt.Sprintf("energy.%s negative: %g", n.name, n.v))
			}
		}
		// Both accounts fold each response's joules to integer
		// nanojoules and convert with one expression (loadgen's
		// counters.row), so they agree to the bit or not at all.
		if e.DeviceJ != r.EnergyJ {
			problems = append(problems, fmt.Sprintf(
				"energy: ledger device joules %g disagree with collector energy_j %g", e.DeviceJ, r.EnergyJ))
		}
		if e.RadioJ != r.RadioEnergyJ {
			problems = append(problems, fmt.Sprintf(
				"energy: ledger radio joules %g disagree with collector radio_energy_j %g", e.RadioJ, r.RadioEnergyJ))
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
