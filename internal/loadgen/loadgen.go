// Package loadgen drives a fleet (internal/fleet) with calibrated
// load and measures it, the way the milvus-benchmark and ReqBench
// style harnesses measure a serving system:
//
//   - Open loop: requests arrive on a model-timestamped schedule drawn
//     from internal/modeltime — homogeneous Poisson at a target QPS, a
//     diurnal rate curve with the same total arrivals, or per-user
//     renewal processes weighted by workload class — replayed against
//     the fleet regardless of how fast it keeps up: overload shows up
//     as queue sheds and wall-latency inflation, never as a silently
//     slowed-down generator.
//   - Closed loop: K concurrent simulated users each replay their own
//     workload stream (internal/workload cursor) and wait for each
//     response before issuing the next query, reusing the replay
//     harness's per-user outcome accounting so fleet hit rates are
//     directly comparable with the paper's Figure 17 numbers. With a
//     Pacer configured the user also "thinks" for their modeled
//     response time (wall-compressed), which changes concurrency and
//     wall timing but — by construction — no per-user outcome.
//
// Both record per-request latency into log-bucketed histograms — the
// measured wall latency including queue wait, and the modeled
// on-device response time, which is deterministic given the workload
// seed — plus throughput, hit-, miss- and shed-rates, emitted as a
// machine-readable Report.
//
// Reports also account modeled energy: total and per-query joules
// (device base power plus radio), radio-only joules per cloud miss,
// and — when the fleet coalesces misses (fleet.BatchOptions) — the
// batched-session counters (batches, batched misses, radio wake-ups,
// batch-size histogram) needed to quantify how much session overhead
// batching amortized. Serving counters (served/shed/errors and the
// per-tier hit counts) are taken from before/after deltas of the
// fleet's own Stats, so they are authoritative even if the collector
// observes only part of the traffic; the latency histograms and energy
// sums require the collector to be installed as the fleet's Observer,
// and the runners refuse to start when no observer is wired at all.
package loadgen

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pocketcloudlets/internal/autoscale"
	"pocketcloudlets/internal/backend"
	"pocketcloudlets/internal/energy"
	"pocketcloudlets/internal/fleet"
	"pocketcloudlets/internal/modeltime"
	"pocketcloudlets/internal/replay"
	"pocketcloudlets/internal/searchlog"
	"pocketcloudlets/internal/workload"
)

// counters is the aggregate a Collector accumulates.
type counters struct {
	wall     Histogram
	model    Histogram
	shed     uint64
	errors   uint64
	canceled uint64
	// bySource is a fixed array indexed by fleet.Source — no map churn
	// on the per-response observation path.
	bySource [fleet.NumSources]uint64
	// Modeled energy sums over observed non-error responses: total,
	// radio-only, and radio-only restricted to cloud misses.
	energyJ    float64
	radioJ     float64
	missRadioJ float64
	// wakeups counts cold radio wake-ups paid by unbatched misses;
	// batched sessions' wake-ups are in fleet.BatchStats.
	wakeups       uint64
	batchedMisses uint64
}

func newCounters() *counters { return &counters{} }

// observe books one response into the aggregate. Caller holds the
// owning stripe's lock.
func (c *counters) observe(r fleet.Response) {
	if r.Canceled {
		c.canceled++
		return
	}
	if r.Shed {
		c.shed++
		return
	}
	if r.Err != nil {
		c.errors++
		return
	}
	c.wall.Observe(r.Wall)
	c.model.Observe(r.Outcome.ResponseTime())
	c.bySource[r.Source]++
	c.energyJ += r.EnergyJ
	c.radioJ += r.RadioJ
	if r.Source == fleet.SourceCloud {
		c.missRadioJ += r.RadioJ
		if r.BatchSize > 0 {
			c.batchedMisses++
		} else if !r.Outcome.Radio.WasWarm {
			c.wakeups++
		}
	}
}

// merge folds another aggregate into this one. Everything is additive
// (histograms merge bucket-wise), so merging stripes in any fixed
// order yields the same counters; only the float energy sums are
// order-sensitive, and stripes are always merged in index order.
func (c *counters) merge(o *counters) {
	c.wall.Merge(&o.wall)
	c.model.Merge(&o.model)
	c.shed += o.shed
	c.errors += o.errors
	c.canceled += o.canceled
	for i := range c.bySource {
		c.bySource[i] += o.bySource[i]
	}
	c.energyJ += o.energyJ
	c.radioJ += o.radioJ
	c.missRadioJ += o.missRadioJ
	c.wakeups += o.wakeups
	c.batchedMisses += o.batchedMisses
}

// collectorStripes is the Collector's lock-stripe count. Responses
// stripe by user ID, so one stripe sees all of a user's responses and
// a wide fleet's workers stop serializing on a single observer mutex.
const collectorStripes = 16

// collectorStripe is one independently locked slice of the collector.
// Padded out to its own cache lines would be overkill here: the mutex
// hold times (a histogram bump) dominate any false sharing.
type collectorStripe struct {
	mu      sync.Mutex
	c       counters
	byClass map[string]*counters
}

// Collector aggregates fleet responses into histograms and counters.
// Install it as the fleet's Observer (fleet.Config.Observer) before
// running a load phase. Observe is safe for concurrent use — internally
// lock-striped by user ID so fleet workers do not serialize on one
// mutex. Responses carrying a Request.Class tag are additionally booked
// into a per-class aggregate, which reports surface as per-SLO-class
// breakdowns.
type Collector struct {
	stripes [collectorStripes]collectorStripe
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{}
}

// Observe implements fleet.Observer.
func (c *Collector) Observe(r fleet.Response) {
	s := &c.stripes[uint64(r.Req.User)%collectorStripes]
	s.mu.Lock()
	defer s.mu.Unlock()
	s.c.observe(r)
	if cls := r.Req.Class; cls != "" {
		cc := s.byClass[cls]
		if cc == nil {
			if s.byClass == nil {
				s.byClass = make(map[string]*counters)
			}
			cc = newCounters()
			s.byClass[cls] = cc
		}
		cc.observe(r)
	}
}

// Reset clears the collector for a fresh load phase.
func (c *Collector) Reset() {
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		s.c = *newCounters()
		s.byClass = nil
		s.mu.Unlock()
	}
}

// snapshot merges the stripes into one aggregate.
func (c *Collector) snapshot() counters {
	var out counters
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		out.merge(&s.c)
		s.mu.Unlock()
	}
	return out
}

// classSnapshot merges the per-class aggregates across stripes.
func (c *Collector) classSnapshot() map[string]*counters {
	out := make(map[string]*counters)
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		for k, v := range s.byClass {
			agg := out[k]
			if agg == nil {
				agg = newCounters()
				out[k] = agg
			}
			agg.merge(v)
		}
		s.mu.Unlock()
	}
	return out
}

// Report is the machine-readable result of one load phase. Counters
// and the modeled-latency summary are deterministic given the workload
// seed (when nothing was shed); wall-clock figures are measurements.
type Report struct {
	Mode string `json:"mode"`
	// Scenario names the scenario (file or preset) that produced the
	// run; empty for plain flag-driven runs.
	Scenario string `json:"scenario,omitempty"`
	Seed     int64  `json:"seed"`
	Users    int    `json:"users"`
	Shards   int    `json:"shards"`
	Workers  int    `json:"workers"`

	Requests uint64 `json:"requests"`
	Served   uint64 `json:"served"`
	Shed     uint64 `json:"shed"`
	Errors   uint64 `json:"errors"`

	PersonalHits  uint64 `json:"personal_hits"`
	CommunityHits uint64 `json:"community_hits"`
	CloudMisses   uint64 `json:"cloud_misses"`

	// Degraded and Unavailable are the fault model's fallback serves
	// (stale cached answers and explicit "unavailable" pages); Canceled
	// counts requests abandoned by their caller's context. Retries,
	// Exhausted and BreakerOpens quantify the retry machinery. All zero
	// when fault injection is off.
	Degraded     uint64 `json:"degraded,omitempty"`
	Unavailable  uint64 `json:"unavailable,omitempty"`
	Canceled     uint64 `json:"canceled,omitempty"`
	Retries      int64  `json:"retries,omitempty"`
	Exhausted    int64  `json:"exhausted,omitempty"`
	BreakerOpens int64  `json:"breaker_opens,omitempty"`
	// Hedging counters (replicated cloud backends): Replicas is the
	// configured backend replica count; ClonesLaunched counts hedge
	// clones dispatched to secondary replicas, CloneWins / PrimaryWins
	// split hedged cloud misses by which dispatch answered first, and
	// WastedAttempts counts clone ladder attempts charged to the radio
	// waste budget without contributing the answer. Cross-footing:
	// hedged misses = PrimaryWins + CloneWins, and wasted clones
	// (ClonesLaunched − CloneWins) never exceed ClonesLaunched.
	// ReplicaBreakerOpens breaks BreakerOpens down per replica when the
	// fleet runs more than one. All zero/absent without hedging.
	Replicas            int     `json:"replicas,omitempty"`
	ClonesLaunched      int64   `json:"clones_launched,omitempty"`
	PrimaryWins         int64   `json:"hedged_primary_wins,omitempty"`
	CloneWins           int64   `json:"clone_wins,omitempty"`
	WastedAttempts      int64   `json:"wasted_attempts,omitempty"`
	ReplicaBreakerOpens []int64 `json:"replica_breaker_opens,omitempty"`
	// AnsweredRate is the fraction of served requests that got real
	// results, fresh or stale — the availability headline under faults.
	AnsweredRate float64 `json:"answered_rate"`

	HitRate float64 `json:"hit_rate"`
	// MeanUserHitRate averages per-user hit rates — the paper's
	// Figure 17 metric. Closed loop computes it from per-user outcome
	// accounting; open and trace runs take it from the fleet's resident
	// counters (fleet.MeanUserHitRate), which is what the capacity
	// study's hit-rate-invariance check compares across population
	// sizes.
	MeanUserHitRate float64 `json:"mean_user_hit_rate"`
	// ClassHitRate is the mean per-user hit rate by user class
	// (closed loop only).
	ClassHitRate map[string]float64 `json:"class_hit_rate,omitempty"`
	ShedRate     float64            `json:"shed_rate"`

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

	// Wall is measured submit-to-completion latency including queue
	// wait; Model is the modeled on-device response time.
	Wall  LatencySummary `json:"wall_latency"`
	Model LatencySummary `json:"model_latency"`

	// EnergyJ is the total modeled energy over observed responses
	// (device base power over modeled response time, plus radio);
	// EnergyPerQueryJ divides it by observed responses.
	EnergyJ         float64 `json:"energy_j"`
	EnergyPerQueryJ float64 `json:"energy_per_query_j"`
	// RadioEnergyJ is the radio-only share; RadioEnergyPerMissJ divides
	// the cloud misses' radio energy by the miss count — the headline
	// number miss batching drives down.
	RadioEnergyJ        float64 `json:"radio_energy_j"`
	RadioEnergyPerMissJ float64 `json:"radio_energy_per_miss_j"`
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
	// (OpenConfig/ClosedConfig ResizeTo); all zero when no resize ran.
	Resizes                int64 `json:"resizes,omitempty"`
	MigratedUsers          int64 `json:"migrated_users,omitempty"`
	MigratedBytes          int64 `json:"migrated_bytes,omitempty"`
	MigrationTransferBytes int64 `json:"migration_transfer_bytes,omitempty"`
	DroppedUsers           int64 `json:"dropped_users,omitempty"`
	HeldRequests           int64 `json:"held_requests,omitempty"`
	// RetiredServed/RetiredShed are the serving counters of shards a
	// shrink retired; together with ShardOccupancy they cross-foot
	// against Served/Shed (cmd/loadtest -check). Like ShardOccupancy
	// the counters are cumulative over the fleet's lifetime, which
	// equals the run for the freshly built fleets the CLI drives.
	// Absent unless a shrink actually retired shards.
	RetiredServed int64 `json:"retired_served,omitempty"`
	RetiredShed   int64 `json:"retired_shed,omitempty"`

	// Energy is the fleet energy ledger for the run: the device-side
	// joules broken down radio vs baseline, the shard-side (cloudlet
	// server) idle floor and active increment, and the whole-system
	// total per answered query. Always present; cmd/reportnorm strips
	// it by default so byte-identity smokes keep passing.
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
	// tagged (scenario runs): latency histograms, per-tier counters and
	// energy deltas per class, sorted by class name. Sourced from the
	// collector, so it covers exactly the observed responses.
	Classes []ClassReport `json:"classes,omitempty"`

	// Outcomes carries per-user accounting for further analysis
	// (closed loop only; not serialized).
	Outcomes []replay.UserOutcome `json:"-"`
}

// ClassReport is one SLO class's slice of a tagged run: the same
// headline counters, latency summaries and energy sums as the
// fleet-wide report, restricted to responses carrying the class tag.
type ClassReport struct {
	Class    string `json:"class"`
	Requests uint64 `json:"requests"`
	// Served counts completed requests including errored ones, matching
	// the fleet-wide convention.
	Served   uint64 `json:"served"`
	Shed     uint64 `json:"shed"`
	Errors   uint64 `json:"errors,omitempty"`
	Canceled uint64 `json:"canceled,omitempty"`

	PersonalHits  uint64 `json:"personal_hits"`
	CommunityHits uint64 `json:"community_hits"`
	CloudMisses   uint64 `json:"cloud_misses"`
	Degraded      uint64 `json:"degraded,omitempty"`
	Unavailable   uint64 `json:"unavailable,omitempty"`

	HitRate      float64 `json:"hit_rate"`
	ShedRate     float64 `json:"shed_rate"`
	AnsweredRate float64 `json:"answered_rate"`

	Wall  LatencySummary `json:"wall_latency"`
	Model LatencySummary `json:"model_latency"`

	EnergyJ             float64 `json:"energy_j"`
	EnergyPerQueryJ     float64 `json:"energy_per_query_j"`
	RadioEnergyJ        float64 `json:"radio_energy_j"`
	RadioEnergyPerMissJ float64 `json:"radio_energy_per_miss_j"`
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
// in joules. Cross-footing (cmd/loadtest -check): DeviceJ =
// DeviceBaseJ + RadioJ and tracks the collector's energy_j sum within
// fixed-point rounding; ShardJ = ShardIdleJ + ShardActiveJ; FleetJ =
// DeviceJ + ShardJ; PerAnsweredJ = FleetJ over answered requests.
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

// classReport folds one class's counters into its report row.
func classReport(name string, c *counters) ClassReport {
	observed := c.bySource[fleet.SourcePersonal] + c.bySource[fleet.SourceCommunity] + c.bySource[fleet.SourceCloud] +
		c.bySource[fleet.SourceDegraded] + c.bySource[fleet.SourceUnavailable]
	cr := ClassReport{
		Class:         name,
		Served:        observed + c.errors,
		Shed:          c.shed,
		Errors:        c.errors,
		Canceled:      c.canceled,
		PersonalHits:  c.bySource[fleet.SourcePersonal],
		CommunityHits: c.bySource[fleet.SourceCommunity],
		CloudMisses:   c.bySource[fleet.SourceCloud],
		Degraded:      c.bySource[fleet.SourceDegraded],
		Unavailable:   c.bySource[fleet.SourceUnavailable],
		Wall:          c.wall.Summary(),
		Model:         c.model.Summary(),
		EnergyJ:       c.energyJ,
		RadioEnergyJ:  c.radioJ,
	}
	cr.Requests = cr.Served + cr.Shed + cr.Canceled
	if cr.Served > 0 {
		cr.HitRate = float64(cr.PersonalHits+cr.CommunityHits) / float64(cr.Served)
		cr.AnsweredRate = float64(cr.Served-cr.Unavailable) / float64(cr.Served)
	}
	if cr.Requests > 0 {
		cr.ShedRate = float64(cr.Shed) / float64(cr.Requests)
	}
	if observed > 0 {
		cr.EnergyPerQueryJ = c.energyJ / float64(observed)
	}
	if misses := cr.CloudMisses; misses > 0 {
		cr.RadioEnergyPerMissJ = c.missRadioJ / float64(misses)
	}
	return cr
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
		fmt.Fprintf(&b, "  faults: answered %.1f%% (degraded %d, unavailable %d, retries %d, exhausted %d, breaker opens %d)\n",
			100*r.AnsweredRate, r.Degraded, r.Unavailable, r.Retries, r.Exhausted, r.BreakerOpens)
	}
	if r.Canceled > 0 {
		fmt.Fprintf(&b, "  canceled %d\n", r.Canceled)
	}
	if r.Replicas > 1 || r.ClonesLaunched > 0 {
		fmt.Fprintf(&b, "  hedging: %d replicas, %d clones launched, wins primary %d / clone %d, wasted attempts %d",
			r.Replicas, r.ClonesLaunched, r.PrimaryWins, r.CloneWins, r.WastedAttempts)
		if len(r.ReplicaBreakerOpens) > 0 {
			parts := make([]string, len(r.ReplicaBreakerOpens))
			for i, n := range r.ReplicaBreakerOpens {
				parts[i] = strconv.FormatInt(n, 10)
			}
			fmt.Fprintf(&b, ", breaker opens by replica [%s]", strings.Join(parts, " "))
		}
		fmt.Fprintf(&b, "\n")
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
		fmt.Fprintf(&b, "  resizes: %d (moved %d users / %d bytes, shipped %d bytes, dropped %d, held %d requests)\n",
			r.Resizes, r.MigratedUsers, r.MigratedBytes, r.MigrationTransferBytes, r.DroppedUsers, r.HeldRequests)
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
	batch  fleet.BatchStats
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
	return baseline{f.Stats(), f.BatchStats(), f.MigrationStats(), f.EnergyStats()}, nil
}

// fill populates the shared report fields. Serving counters come from
// the fleet's own Stats as before/after deltas — authoritative no
// matter how the observer is wired — while latency histograms and
// energy sums come from the collector.
func fill(r *Report, f *fleet.Fleet, col *Collector, base baseline, elapsed time.Duration) {
	cnt := col.snapshot()
	st := f.Stats()
	r.Shards = f.NumShards()
	r.Workers = f.NumWorkers()
	r.Served = uint64(st.Served - base.stats.Served)
	r.Shed = uint64(st.Shed - base.stats.Shed)
	r.Errors = uint64(st.Errors - base.stats.Errors)
	r.PersonalHits = uint64(st.PersonalHits - base.stats.PersonalHits)
	r.CommunityHits = uint64(st.CommunityHits - base.stats.CommunityHits)
	r.CloudMisses = uint64(st.CloudMisses - base.stats.CloudMisses)
	r.Degraded = uint64(st.Degraded - base.stats.Degraded)
	r.Unavailable = uint64(st.Unavailable - base.stats.Unavailable)
	r.Canceled = uint64(st.Canceled - base.stats.Canceled)
	r.Retries = st.Retries - base.stats.Retries
	r.Exhausted = st.Exhausted - base.stats.Exhausted
	r.BreakerOpens = st.BreakerOpens - base.stats.BreakerOpens
	r.Replicas = st.Replicas
	r.ClonesLaunched = st.ClonesLaunched - base.stats.ClonesLaunched
	r.PrimaryWins = st.PrimaryWins - base.stats.PrimaryWins
	r.CloneWins = st.CloneWins - base.stats.CloneWins
	r.WastedAttempts = st.WastedAttempts - base.stats.WastedAttempts
	if len(st.ReplicaBreakerOpens) > 0 {
		r.ReplicaBreakerOpens = make([]int64, len(st.ReplicaBreakerOpens))
		for i, n := range st.ReplicaBreakerOpens {
			if i < len(base.stats.ReplicaBreakerOpens) {
				n -= base.stats.ReplicaBreakerOpens[i]
			}
			r.ReplicaBreakerOpens[i] = n
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
	r.Requests = r.Served + r.Shed + r.Canceled
	if r.Served > 0 {
		r.HitRate = float64(r.PersonalHits+r.CommunityHits) / float64(r.Served)
		r.AnsweredRate = float64(r.Served-r.Unavailable) / float64(r.Served)
	}
	if r.Requests > 0 {
		r.ShedRate = float64(r.Shed) / float64(r.Requests)
	}
	r.ElapsedNS = int64(elapsed)
	if elapsed > 0 {
		r.ServedQPS = float64(r.Served) / elapsed.Seconds()
	}
	r.ModelMakespanNS = int64(f.ModelMakespan())
	r.Wall = cnt.wall.Summary()
	r.Model = cnt.model.Summary()

	r.EnergyJ = cnt.energyJ
	r.RadioEnergyJ = cnt.radioJ
	observed := cnt.bySource[fleet.SourcePersonal] + cnt.bySource[fleet.SourceCommunity] + cnt.bySource[fleet.SourceCloud] +
		cnt.bySource[fleet.SourceDegraded] + cnt.bySource[fleet.SourceUnavailable]
	if observed > 0 {
		r.EnergyPerQueryJ = cnt.energyJ / float64(observed)
	}
	if misses := cnt.bySource[fleet.SourceCloud]; misses > 0 {
		r.RadioEnergyPerMissJ = cnt.missRadioJ / float64(misses)
	}
	bs := f.BatchStats()
	r.Batches = bs.Batches - base.batch.Batches
	r.BatchedMisses = bs.BatchedMisses - base.batch.BatchedMisses
	r.RadioWakeups = cnt.wakeups + uint64(bs.Wakeups-base.batch.Wakeups)
	if r.Batches > 0 {
		r.MeanBatchSize = float64(r.BatchedMisses) / float64(r.Batches)
		r.BatchSizes = make(map[string]int64)
		for size, n := range bs.SizeCounts {
			if d := n - base.batch.SizeCounts[size]; d > 0 {
				r.BatchSizes[strconv.Itoa(size)] = d
			}
		}
	}

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
	r.HeldRequests = mig.HeldRequests - base.mig.HeldRequests
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
			r.Classes = append(r.Classes, classReport(name, byClass[name]))
		}
	}
}

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

// offeredCurve folds the per-bucket arrival counters into the report's
// curve and the measured peak/trough served-QPS ratio (buckets that
// offered nothing are skipped; the ratio is zero when no bucket served).
func offeredCurve(horizon time.Duration, offered, shed []uint64) ([]RateBucket, float64) {
	width := horizon / time.Duration(len(offered))
	secs := width.Seconds()
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
