package loadgen

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"pocketcloudlets/internal/autoscale"
	"pocketcloudlets/internal/backend"
	"pocketcloudlets/internal/energy"
	"pocketcloudlets/internal/fleet"
)

// Report is the machine-readable result of one load phase: the
// collector's total row, the fleet's counters for what the collector
// cannot see, and the per-class rows. Counters and the modeled-latency
// summary are deterministic given the workload seed (when nothing was
// shed); wall-clock figures are measurements.
type Report struct {
	Mode string `json:"mode"`
	// Scenario names the scenario (file or preset) that produced the
	// run; empty for plain flag-driven runs.
	Scenario string `json:"scenario,omitempty"`
	Seed     int64  `json:"seed"`
	Users    int    `json:"users"`
	Shards   int    `json:"shards"`
	Workers  int    `json:"workers"`

	// Row is the run's total row: every response the collector observed,
	// derived by the same function as each class row. Errors sits beside
	// it because a class row omits a zero count and the total row does
	// not.
	Row
	Errors uint64 `json:"errors"`

	// Retries and Exhausted quantify the retry machinery; zero when
	// fault injection is off. Canceled is always zero, so the JSON omits
	// it (fleet.Stats.Canceled); it stays only because the benchmark
	// module (bench/) still reads it.
	Canceled  uint64 `json:"canceled,omitempty"`
	Retries   int64  `json:"retries,omitempty"`
	Exhausted int64  `json:"exhausted,omitempty"`
	// Hedging counters (replicated cloud backends): Replicas is the
	// configured backend replica count; ClonesLaunched counts hedge
	// clones dispatched to secondary replicas, CloneWins / PrimaryWins
	// split hedged cloud misses by which dispatch answered first, and
	// WastedAttempts counts clone ladder attempts charged to the radio
	// waste budget without contributing the answer. Cross-footing:
	// hedged misses = PrimaryWins + CloneWins, and wasted clones
	// (ClonesLaunched − CloneWins) never exceed ClonesLaunched. All
	// zero/absent without hedging.
	Replicas       int   `json:"replicas,omitempty"`
	ClonesLaunched int64 `json:"clones_launched,omitempty"`
	PrimaryWins    int64 `json:"hedged_primary_wins,omitempty"`
	CloneWins      int64 `json:"clone_wins,omitempty"`
	WastedAttempts int64 `json:"wasted_attempts,omitempty"`

	// MeanUserHitRate averages per-user hit rates — the paper's
	// Figure 17 metric — over the fleet's resident users
	// (fleet.MeanUserHitRate), which is what the capacity study's
	// hit-rate-invariance check compares across population sizes.
	MeanUserHitRate float64 `json:"mean_user_hit_rate"`
	// ClassHitRate is the same mean by workload class (closed loop
	// only).
	ClassHitRate map[string]float64 `json:"class_hit_rate,omitempty"`

	ElapsedNS int64 `json:"elapsed_ns"`
	// OfferedQPS is the generator's target mean arrival rate (open loop).
	OfferedQPS float64 `json:"offered_qps"`
	// ServedQPS is completed requests per wall-clock second.
	ServedQPS float64 `json:"served_qps"`
	// MaxScheduleLagNS is how far the open-loop generator fell behind
	// its arrival schedule at worst (a saturated generator, not fleet).
	MaxScheduleLagNS int64 `json:"max_schedule_lag_ns,omitempty"`

	// Arrivals names the open-loop arrival process ("poisson",
	// "diurnal" or "peruser"); DiurnalPeak is the configured diurnal
	// peak/trough rate ratio (diurnal runs only).
	Arrivals    string  `json:"arrivals,omitempty"`
	DiurnalPeak float64 `json:"diurnal_peak,omitempty"`
	// OfferedCurve is the measured per-bucket arrival view of an
	// open-loop run: what the generator offered, what backpressure shed,
	// and the resulting rates — the curve that makes a diurnal overload
	// visible where run-wide aggregates hide it.
	OfferedCurve []RateBucket `json:"offered_curve,omitempty"`
	// PeakTroughServedRatio is max/min served QPS across the offered
	// curve's buckets (buckets that offered nothing are skipped) — the
	// measured counterpart of the configured DiurnalPeak.
	PeakTroughServedRatio float64 `json:"peak_trough_served_ratio,omitempty"`
	// ModelMakespanNS is the fleet-wide model-time makespan after the
	// run: the furthest any model clock advanced serving its requests.
	ModelMakespanNS int64 `json:"model_makespan_ns,omitempty"`
	// Paced and PaceScale record closed-loop think-time pacing. Pacing
	// is wall-only; it never changes per-user outcomes.
	Paced     bool    `json:"paced,omitempty"`
	PaceScale float64 `json:"pace_scale,omitempty"`

	// RadioWakeups counts cold radio wake-ups paid during the run: one
	// per session-opening unbatched miss plus one per batched session.
	RadioWakeups uint64 `json:"radio_wakeups"`

	// Batches and BatchedMisses count coalesced radio sessions and the
	// misses they carried (zero when batching is disabled); MeanBatchSize
	// is misses per session, and BatchSizes the per-size session counts.
	Batches       int64            `json:"batches,omitempty"`
	BatchedMisses int64            `json:"batched_misses,omitempty"`
	MeanBatchSize float64          `json:"mean_batch_size,omitempty"`
	BatchSizes    map[string]int64 `json:"batch_sizes,omitempty"`

	// PersonalBytes is the fleet's personal flash footprint after the
	// run; ResidentUsers the number of materialized personal states.
	PersonalBytes int64 `json:"personal_bytes"`
	ResidentUsers int   `json:"resident_users"`
	// HeapAllocBytes is the Go heap in use at the end of the run
	// (runtime.MemStats.HeapAlloc) — the process-memory side of the
	// capacity model's users-vs-RSS curve. A measurement of this
	// process, not a modeled quantity.
	HeapAllocBytes uint64 `json:"heap_alloc_bytes,omitempty"`

	// Placement names the routing policy ("modulo" or "ring").
	Placement string `json:"placement,omitempty"`
	// ShardOccupancy is the end-of-run snapshot of per-shard serving
	// and residency — the skew view a fleet-wide aggregate hides. The
	// counters are cumulative over the fleet's lifetime, which equals
	// the run for the freshly built fleets the CLI drives.
	ShardOccupancy []ShardOccupancy `json:"shard_occupancy,omitempty"`
	// ShardSkew is max/mean served across shards; 1.0 is perfectly even.
	ShardSkew float64 `json:"shard_skew,omitempty"`

	// Migration counters for live resizes performed during the run
	// (timeline or autoscaler); all zero when no resize ran.
	Resizes                int64 `json:"resizes,omitempty"`
	MigratedUsers          int64 `json:"migrated_users,omitempty"`
	MigratedBytes          int64 `json:"migrated_bytes,omitempty"`
	MigrationTransferBytes int64 `json:"migration_transfer_bytes,omitempty"`
	DroppedUsers           int64 `json:"dropped_users,omitempty"`
	// RetiredServed/RetiredShed are the serving counters of shards a
	// shrink retired (fleet.RetiredLoad). Like ShardOccupancy the
	// counters are cumulative over the fleet's lifetime, which equals
	// the run for the freshly built fleets the CLI drives. Absent unless
	// a shrink actually retired shards.
	RetiredServed int64 `json:"retired_served,omitempty"`
	RetiredShed   int64 `json:"retired_shed,omitempty"`

	// Energy is the fleet energy ledger for the run: the device-side
	// joules broken down radio vs baseline, the shard-side (cloudlet
	// server) idle floor and active increment, and the whole-system
	// total per answered query. Always present.
	Energy *EnergyReport `json:"energy,omitempty"`
	// Autoscale summarizes the occupancy-driven controller's run:
	// samples taken, resize actions fired and the bounds they respected.
	// Absent when autoscaling is off.
	Autoscale *AutoscaleReport `json:"autoscale,omitempty"`

	// Backend is the per-replica accounting of the modeled cloud servers
	// (scenario fleet.backend / loadtest -backend-rate), as run deltas.
	// Cross-footing (cmd/loadtest -check): arrivals = served + rejected
	// + abandoned on every replica. Absent without the backend model.
	Backend []BackendReport `json:"backend,omitempty"`

	// Classes breaks the run down per SLO class when requests were
	// tagged (scenario runs), sorted by class name: the total row's
	// fields restricted to the responses carrying the class tag.
	Classes []ClassReport `json:"classes,omitempty"`
}

// Row is one slice of a run's responses as the collector observed them
// — the whole run in Report, one SLO class in ClassReport — derived by
// one function, counters.row.
type Row struct {
	// Requests = Served + Shed; Served counts completed requests,
	// errored ones included.
	Requests uint64 `json:"requests"`
	Served   uint64 `json:"served"`
	Shed     uint64 `json:"shed"`

	// The tier a response came from. Degraded and Unavailable are the
	// fault model's fallback serves (stale cached answers and explicit
	// "unavailable" pages), zero when fault injection is off.
	PersonalHits  uint64 `json:"personal_hits"`
	CommunityHits uint64 `json:"community_hits"`
	CloudMisses   uint64 `json:"cloud_misses"`
	Degraded      uint64 `json:"degraded,omitempty"`
	Unavailable   uint64 `json:"unavailable,omitempty"`

	// HitRate is the on-device share of served requests; AnsweredRate
	// the share that got real results, fresh or stale — the availability
	// headline under faults.
	HitRate      float64 `json:"hit_rate"`
	ShedRate     float64 `json:"shed_rate"`
	AnsweredRate float64 `json:"answered_rate"`

	// Wall is measured submit-to-completion latency including queue
	// wait; Model is the modeled on-device response time.
	Wall  LatencySummary `json:"wall_latency"`
	Model LatencySummary `json:"model_latency"`

	// EnergyJ is the total modeled energy over observed responses
	// (device base power over modeled response time, plus radio);
	// EnergyPerQueryJ divides it by observed responses. RadioEnergyJ is
	// the radio-only share; RadioEnergyPerMissJ divides the cloud misses'
	// radio energy by the miss count — the headline number miss batching
	// drives down.
	EnergyJ             float64 `json:"energy_j"`
	EnergyPerQueryJ     float64 `json:"energy_per_query_j"`
	RadioEnergyJ        float64 `json:"radio_energy_j"`
	RadioEnergyPerMissJ float64 `json:"radio_energy_per_miss_j"`
}

// ClassReport is one SLO class's row of a tagged run.
type ClassReport struct {
	Class string `json:"class"`
	Row
	Errors uint64 `json:"errors,omitempty"`
}

// BackendReport is one modeled cloud replica's row in Report.Backend.
type BackendReport struct {
	Replica   int   `json:"replica"`
	Arrivals  int64 `json:"arrivals"`
	Served    int64 `json:"served"`
	Rejected  int64 `json:"rejected,omitempty"`
	Abandoned int64 `json:"abandoned,omitempty"`
	// Utilization is charged busy time over the model horizon (above 1
	// the replica was offered more work than time passed); BusyNS the
	// busy time itself, ReclaimedNS the service cancel-on-win returned.
	Utilization float64 `json:"utilization"`
	BusyNS      int64   `json:"busy_ns"`
	ReclaimedNS int64   `json:"reclaimed_ns,omitempty"`
	// MeanWaitNS and P99WaitNS summarize the queue waits non-rejected
	// dispatches experienced.
	MeanWaitNS int64 `json:"mean_wait_ns"`
	P99WaitNS  int64 `json:"p99_wait_ns"`
	// AbandonedWorkFraction is the share of busy time burned on
	// dispatches nobody consumed — the clone-storm waste metric.
	AbandonedWorkFraction float64 `json:"abandoned_work_fraction,omitempty"`
}

// backendReport folds one replica's stats delta into its report row.
func backendReport(replica int, bs backend.ReplicaStats) BackendReport {
	return BackendReport{
		Replica:               replica,
		Arrivals:              bs.Arrivals,
		Served:                bs.Served,
		Rejected:              bs.Rejected,
		Abandoned:             bs.Abandoned,
		Utilization:           bs.Utilization(),
		BusyNS:                bs.BusyNs,
		ReclaimedNS:           bs.ReclaimedNs,
		MeanWaitNS:            int64(bs.MeanWait()),
		P99WaitNS:             int64(bs.P99Wait()),
		AbandonedWorkFraction: bs.AbandonedWorkFraction(),
	}
}

// EnergyReport is the run's energy ledger (fleet.EnergyStats deltas),
// in joules: DeviceJ = DeviceBaseJ + RadioJ, ShardJ = ShardIdleJ +
// ShardActiveJ, FleetJ = DeviceJ + ShardJ and PerAnsweredJ = FleetJ over
// answered requests, by construction. cmd/loadtest -check holds DeviceJ
// and RadioJ equal to the collector's energy_j and radio_energy_j: on a
// fleet whose ledger is empty as the run starts, as every cmd/loadtest
// fleet's is, the two are one expression over the same nanojoules.
type EnergyReport struct {
	// DeviceBaseJ is the devices' screen+CPU baseline over modeled
	// response time; RadioJ their extra radio draw; DeviceJ the sum —
	// the device-side energy the reports have always totaled.
	DeviceBaseJ float64 `json:"device_base_j"`
	RadioJ      float64 `json:"radio_j"`
	DeviceJ     float64 `json:"device_j"`
	// ShardIdleJ is the provisioned shards' idle floor — what a shard
	// burns just by existing, the term autoscaling reclaims on the
	// trough; ShardActiveJ the active increment over busy time; ShardJ
	// the cloudlet-server-side sum.
	ShardIdleJ   float64 `json:"shard_idle_j"`
	ShardActiveJ float64 `json:"shard_active_j"`
	ShardJ       float64 `json:"shard_j"`
	// FleetJ is the whole-system total; PerAnsweredJ divides it by the
	// requests that got real results (served − unavailable) — the
	// headline joules-per-answered-query metric of the autoscaling
	// study.
	FleetJ       float64 `json:"fleet_j"`
	PerAnsweredJ float64 `json:"per_answered_j,omitempty"`
}

// AutoscaleReport summarizes the occupancy-driven controller's run.
type AutoscaleReport struct {
	IntervalNS int64 `json:"interval_ns"`
	Min        int   `json:"min"`
	Max        int   `json:"max"`
	// Samples counts occupancy observations; MeanOccupancy averages
	// them. FinalShards is the topology size the run ended with.
	Samples       int     `json:"samples"`
	MeanOccupancy float64 `json:"mean_occupancy"`
	FinalShards   int     `json:"final_shards"`
	// Actions are the resizes the controller fired, in order.
	Actions []AutoscaleAction `json:"actions,omitempty"`
}

// AutoscaleAction is one controller-driven resize.
type AutoscaleAction struct {
	AtNS      int64   `json:"at_ns"`
	From      int     `json:"from"`
	To        int     `json:"to"`
	Occupancy float64 `json:"occupancy"`
}

// ShardOccupancy is one shard's row in Report.ShardOccupancy.
type ShardOccupancy struct {
	Shard         int   `json:"shard"`
	Served        int64 `json:"served"`
	Shed          int64 `json:"shed,omitempty"`
	Users         int   `json:"users"`
	PersonalBytes int64 `json:"personal_bytes"`
}

// RateBucket is one time slice of an open-loop run's offered curve.
// Offered counts arrivals scheduled into the bucket; Shed is how many
// of them backpressure rejected; the QPS fields divide by the bucket's
// width. Bucketing is by scheduled arrival time, so the curve is
// deterministic given the spec even when the generator lags.
type RateBucket struct {
	StartNS    int64   `json:"start_ns"`
	EndNS      int64   `json:"end_ns"`
	Offered    uint64  `json:"offered"`
	Shed       uint64  `json:"shed,omitempty"`
	OfferedQPS float64 `json:"offered_qps"`
	ServedQPS  float64 `json:"served_qps"`
}

// JSON renders the report as indented JSON.
func (r Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// String renders a human-readable summary.
func (r Report) String() string {
	var b strings.Builder
	mode := r.Mode
	if r.Scenario != "" {
		mode = fmt.Sprintf("%s [scenario %s]", r.Mode, r.Scenario)
	}
	fmt.Fprintf(&b, "%s load: %d requests in %v (%.0f served QPS", mode, r.Requests, time.Duration(r.ElapsedNS).Round(time.Millisecond), r.ServedQPS)
	if r.OfferedQPS > 0 {
		fmt.Fprintf(&b, ", %.0f offered", r.OfferedQPS)
	}
	fmt.Fprintf(&b, ")\n")
	if r.Arrivals != "" && r.Arrivals != "poisson" {
		fmt.Fprintf(&b, "  arrivals: %s", r.Arrivals)
		if r.DiurnalPeak > 0 {
			fmt.Fprintf(&b, " (peak/trough %.1f:1 configured", r.DiurnalPeak)
			if r.PeakTroughServedRatio > 0 {
				fmt.Fprintf(&b, ", %.1f:1 served", r.PeakTroughServedRatio)
			}
			fmt.Fprintf(&b, ")")
		} else if r.PeakTroughServedRatio > 0 {
			fmt.Fprintf(&b, " (peak/trough %.1f:1 served)", r.PeakTroughServedRatio)
		}
		fmt.Fprintf(&b, "\n")
	}
	if r.Paced {
		fmt.Fprintf(&b, "  paced: think time at %.3gx modeled response time\n", r.PaceScale)
	}
	fmt.Fprintf(&b, "  served %d  shed %d (%.2f%%)  errors %d\n", r.Served, r.Shed, 100*r.ShedRate, r.Errors)
	fmt.Fprintf(&b, "  hit rate %.1f%% (personal %d, community %d, cloud misses %d)\n",
		100*r.HitRate, r.PersonalHits, r.CommunityHits, r.CloudMisses)
	if r.Degraded+r.Unavailable > 0 || r.Retries > 0 || r.Exhausted > 0 {
		fmt.Fprintf(&b, "  faults: answered %.1f%% (degraded %d, unavailable %d, retries %d, exhausted %d)\n",
			100*r.AnsweredRate, r.Degraded, r.Unavailable, r.Retries, r.Exhausted)
	}
	if r.Replicas > 1 || r.ClonesLaunched > 0 {
		fmt.Fprintf(&b, "  hedging: %d replicas, %d clones launched, wins primary %d / clone %d, wasted attempts %d\n",
			r.Replicas, r.ClonesLaunched, r.PrimaryWins, r.CloneWins, r.WastedAttempts)
	}
	for _, br := range r.Backend {
		fmt.Fprintf(&b, "  backend replica %d: util %.2f  wait mean %s p99 %s  (%d arrivals: %d served, %d rejected, %d abandoned",
			br.Replica, br.Utilization, time.Duration(br.MeanWaitNS).Round(10*time.Microsecond),
			time.Duration(br.P99WaitNS).Round(10*time.Microsecond),
			br.Arrivals, br.Served, br.Rejected, br.Abandoned)
		if br.ReclaimedNS > 0 {
			fmt.Fprintf(&b, ", reclaimed %v", time.Duration(br.ReclaimedNS).Round(time.Microsecond))
		}
		if br.AbandonedWorkFraction > 0 {
			fmt.Fprintf(&b, ", %.1f%% work abandoned", 100*br.AbandonedWorkFraction)
		}
		fmt.Fprintf(&b, ")\n")
	}
	if r.MeanUserHitRate > 0 {
		fmt.Fprintf(&b, "  mean per-user hit rate %.1f%%", 100*r.MeanUserHitRate)
		if len(r.ClassHitRate) > 0 {
			classes := make([]string, 0, len(r.ClassHitRate))
			for c := range r.ClassHitRate {
				classes = append(classes, c)
			}
			sort.Strings(classes)
			parts := make([]string, 0, len(classes))
			for _, c := range classes {
				parts = append(parts, fmt.Sprintf("%s %.1f%%", c, 100*r.ClassHitRate[c]))
			}
			fmt.Fprintf(&b, " (%s)", strings.Join(parts, ", "))
		}
		fmt.Fprintf(&b, "\n")
	}
	ms := func(ns int64) string { return time.Duration(ns).Round(10 * time.Microsecond).String() }
	fmt.Fprintf(&b, "  wall latency  p50 %s  p90 %s  p99 %s  p99.9 %s  max %s\n",
		ms(r.Wall.P50NS), ms(r.Wall.P90NS), ms(r.Wall.P99NS), ms(r.Wall.P999NS), ms(r.Wall.MaxNS))
	fmt.Fprintf(&b, "  model latency p50 %s  p90 %s  p99 %s  p99.9 %s  max %s\n",
		ms(r.Model.P50NS), ms(r.Model.P90NS), ms(r.Model.P99NS), ms(r.Model.P999NS), ms(r.Model.MaxNS))
	if r.ModelMakespanNS > 0 {
		fmt.Fprintf(&b, "  model makespan %v\n", time.Duration(r.ModelMakespanNS).Round(time.Microsecond))
	}
	if r.EnergyJ > 0 {
		fmt.Fprintf(&b, "  energy %.1f J (%.3f J/query, radio %.1f J, %.3f J/miss radio, %d wake-ups)\n",
			r.EnergyJ, r.EnergyPerQueryJ, r.RadioEnergyJ, r.RadioEnergyPerMissJ, r.RadioWakeups)
	}
	if r.Batches > 0 {
		fmt.Fprintf(&b, "  batching: %d misses in %d sessions (mean size %.2f)\n",
			r.BatchedMisses, r.Batches, r.MeanBatchSize)
	}
	if e := r.Energy; e != nil {
		fmt.Fprintf(&b, "  ledger: fleet %.1f J = device %.1f (base %.1f + radio %.1f) + shards %.1f (idle %.1f + active %.1f)",
			e.FleetJ, e.DeviceJ, e.DeviceBaseJ, e.RadioJ, e.ShardJ, e.ShardIdleJ, e.ShardActiveJ)
		if e.PerAnsweredJ > 0 {
			fmt.Fprintf(&b, "; %.3f J/answered", e.PerAnsweredJ)
		}
		fmt.Fprintf(&b, "\n")
	}
	if a := r.Autoscale; a != nil {
		fmt.Fprintf(&b, "  autoscale: %d samples (mean occupancy %.2f), %d actions within [%d, %d], final %d shards",
			a.Samples, a.MeanOccupancy, len(a.Actions), a.Min, a.Max, a.FinalShards)
		for _, act := range a.Actions {
			fmt.Fprintf(&b, " %v:%d→%d", time.Duration(act.AtNS).Round(time.Millisecond), act.From, act.To)
		}
		fmt.Fprintf(&b, "\n")
	}
	for _, cr := range r.Classes {
		fmt.Fprintf(&b, "  class %-12s %6d req  served %6d  hit %5.1f%%  shed %5.2f%%  model p99 %s  p99.9 %s  energy %.1f J\n",
			cr.Class, cr.Requests, cr.Served, 100*cr.HitRate, 100*cr.ShedRate,
			ms(cr.Model.P99NS), ms(cr.Model.P999NS), cr.EnergyJ)
	}
	fmt.Fprintf(&b, "  personal flash %d bytes across %d resident users\n", r.PersonalBytes, r.ResidentUsers)
	if len(r.ShardOccupancy) > 0 {
		fmt.Fprintf(&b, "  shards (%s): skew %.2f;", r.Placement, r.ShardSkew)
		for _, so := range r.ShardOccupancy {
			fmt.Fprintf(&b, " [%d] %d srv/%d usr", so.Shard, so.Served, so.Users)
		}
		fmt.Fprintf(&b, "\n")
	}
	if r.Resizes > 0 {
		fmt.Fprintf(&b, "  resizes: %d (moved %d users / %d bytes, shipped %d bytes, dropped %d)\n",
			r.Resizes, r.MigratedUsers, r.MigratedBytes, r.MigrationTransferBytes, r.DroppedUsers)
	}
	if r.RetiredServed+r.RetiredShed > 0 {
		fmt.Fprintf(&b, "  retired shards served %d / shed %d before retirement\n", r.RetiredServed, r.RetiredShed)
	}
	return b.String()
}

// baseline is the fleet's cumulative accounting as a run starts; the
// run's report is the delta from it.
type baseline struct {
	stats  fleet.Stats
	mig    fleet.MigrationStats
	energy energy.Snapshot
}

// begin starts a measured run: it refuses a fleet the collector would
// not hear from, resets the collector and captures the baseline.
func begin(f *fleet.Fleet, col *Collector) (baseline, error) {
	if f == nil || col == nil {
		return baseline{}, fmt.Errorf("loadgen: fleet and collector are required")
	}
	if f.Observer() == nil {
		return baseline{}, fmt.Errorf("loadgen: fleet has no Observer; set fleet.Config.Observer to the collector or latencies and energy go unrecorded")
	}
	col.Reset()
	return baseline{f.Stats(), f.MigrationStats(), f.EnergyStats()}, nil
}

// fill populates the shared report fields. The total row and the class
// rows come from the collector, one fold of the observed responses; the
// counters it cannot see — retries, hedging, batches, wake-ups, the
// backend rows, residency, migration and the energy ledger — are the
// fleet's own, as before/after deltas.
func fill(r *Report, f *fleet.Fleet, col *Collector, base baseline, elapsed time.Duration) {
	cnt := col.snapshot()
	st := f.Stats()
	r.Shards = f.NumShards()
	r.Workers = f.NumWorkers()
	r.Row, r.Errors = cnt.row(), cnt.errors
	r.Retries = st.Retries - base.stats.Retries
	r.Exhausted = st.Exhausted - base.stats.Exhausted
	r.Replicas = st.Replicas
	r.ClonesLaunched = st.ClonesLaunched - base.stats.ClonesLaunched
	r.PrimaryWins = st.PrimaryWins - base.stats.PrimaryWins
	r.CloneWins = st.CloneWins - base.stats.CloneWins
	r.WastedAttempts = st.WastedAttempts - base.stats.WastedAttempts
	r.Batches = st.Batches - base.stats.Batches
	r.BatchedMisses = st.BatchedMisses - base.stats.BatchedMisses
	r.RadioWakeups = uint64(st.RadioWakeups - base.stats.RadioWakeups)
	if r.Batches > 0 {
		r.MeanBatchSize = float64(r.BatchedMisses) / float64(r.Batches)
		r.BatchSizes = make(map[string]int64)
		for size, n := range delta(st.BatchSizes, base.stats.BatchSizes) {
			if n > 0 {
				r.BatchSizes[strconv.Itoa(size)] = n
			}
		}
	}
	if len(st.Backend) > 0 {
		r.Backend = make([]BackendReport, len(st.Backend))
		for i, bs := range st.Backend {
			if i < len(base.stats.Backend) {
				bs = bs.Sub(base.stats.Backend[i])
			}
			r.Backend[i] = backendReport(i, bs)
		}
	}
	r.ElapsedNS = int64(elapsed)
	if elapsed > 0 {
		r.ServedQPS = float64(r.Served) / elapsed.Seconds()
	}
	r.ModelMakespanNS = int64(f.ModelMakespan())
	r.MeanUserHitRate = f.MeanUserHitRate()

	r.PersonalBytes = st.PersonalBytes
	r.ResidentUsers = st.Users
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.HeapAllocBytes = ms.HeapAlloc

	r.Placement = f.PlacementName()
	loads := f.ShardLoads()
	r.ShardOccupancy = make([]ShardOccupancy, len(loads))
	var servedSum, servedMax int64
	for i, sl := range loads {
		r.ShardOccupancy[i] = ShardOccupancy{
			Shard:         sl.Shard,
			Served:        sl.Served,
			Shed:          sl.Shed,
			Users:         sl.Users,
			PersonalBytes: sl.PersonalBytes,
		}
		servedSum += sl.Served
		if sl.Served > servedMax {
			servedMax = sl.Served
		}
	}
	if servedSum > 0 {
		r.ShardSkew = float64(servedMax) * float64(len(loads)) / float64(servedSum)
	}

	mig := f.MigrationStats()
	r.Resizes = mig.Resizes - base.mig.Resizes
	r.MigratedUsers = mig.MovedUsers - base.mig.MovedUsers
	r.MigratedBytes = mig.MovedBytes - base.mig.MovedBytes
	r.MigrationTransferBytes = mig.TransferBytes - base.mig.TransferBytes
	r.DroppedUsers = mig.DroppedUsers - base.mig.DroppedUsers
	rl := f.RetiredLoad()
	r.RetiredServed = rl.Served
	r.RetiredShed = rl.Shed

	es := f.EnergyStats()
	er := &EnergyReport{
		DeviceBaseJ:  es.DeviceBaseJ - base.energy.DeviceBaseJ,
		RadioJ:       es.RadioJ - base.energy.RadioJ,
		ShardIdleJ:   es.ShardIdleJ - base.energy.ShardIdleJ,
		ShardActiveJ: es.ShardActiveJ - base.energy.ShardActiveJ,
	}
	er.DeviceJ = er.DeviceBaseJ + er.RadioJ
	er.ShardJ = er.ShardIdleJ + er.ShardActiveJ
	er.FleetJ = er.DeviceJ + er.ShardJ
	if answered := r.Served - r.Unavailable; answered > 0 {
		er.PerAnsweredJ = er.FleetJ / float64(answered)
	}
	r.Energy = er

	if byClass := col.classSnapshot(); len(byClass) > 0 {
		names := make([]string, 0, len(byClass))
		for name := range byClass {
			names = append(names, name)
		}
		sort.Strings(names)
		r.Classes = make([]ClassReport, 0, len(names))
		for _, name := range names {
			c := byClass[name]
			r.Classes = append(r.Classes, ClassReport{Class: name, Row: c.row(), Errors: c.errors})
		}
	}
}

// delta subtracts a per-index counter baseline (which may be shorter)
// from cur; nil when cur is empty.
func delta(cur, base []int64) []int64 {
	if len(cur) == 0 {
		return nil
	}
	out := make([]int64, len(cur))
	for i, n := range cur {
		if i < len(base) {
			n -= base[i]
		}
		out[i] = n
	}
	return out
}

// autoscaleReport folds the controller's run into its report block.
func autoscaleReport(ctl *autoscale.Controller, finalShards int) *AutoscaleReport {
	cfg := ctl.Config()
	ar := &AutoscaleReport{
		IntervalNS:  int64(cfg.Interval),
		Min:         cfg.Min,
		Max:         cfg.Max,
		Samples:     len(ctl.Samples()),
		FinalShards: finalShards,
	}
	var sum float64
	for _, s := range ctl.Samples() {
		sum += s.Occupancy
	}
	if ar.Samples > 0 {
		ar.MeanOccupancy = sum / float64(ar.Samples)
	}
	for _, a := range ctl.Actions() {
		ar.Actions = append(ar.Actions, AutoscaleAction{
			AtNS: int64(a.At), From: a.From, To: a.To, Occupancy: a.Occupancy,
		})
	}
	return ar
}

// offeredCurve folds the per-bucket arrival counters into the report's
// curve and the measured peak/trough served-QPS ratio (buckets that
// offered nothing are skipped; the ratio is zero when no bucket served).
// Bucket bounds are whole nanoseconds; a horizon too short to give each
// bucket one prices its rates over the fractional width instead.
func offeredCurve(horizon time.Duration, offered, shed []uint64) ([]RateBucket, float64) {
	width := horizon / time.Duration(len(offered))
	secs := width.Seconds()
	if width == 0 {
		secs = horizon.Seconds() / float64(len(offered))
	}
	curve := make([]RateBucket, len(offered))
	peak, trough := 0.0, math.Inf(1)
	for b := range offered {
		served := float64(offered[b]-shed[b]) / secs
		curve[b] = RateBucket{
			StartNS:    int64(width) * int64(b),
			EndNS:      int64(width) * int64(b+1),
			Offered:    offered[b],
			Shed:       shed[b],
			OfferedQPS: float64(offered[b]) / secs,
			ServedQPS:  served,
		}
		if offered[b] == 0 {
			continue
		}
		if served > peak {
			peak = served
		}
		if served < trough {
			trough = served
		}
	}
	if trough <= 0 || math.IsInf(trough, 1) {
		return curve, 0
	}
	return curve, peak / trough
}
