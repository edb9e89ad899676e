// Package scenario is the declarative workload layer: a versioned JSON
// spec that describes a whole load scenario — a fleet of client
// classes with their own arrival processes, think times, device tiers
// and fault profiles — plus named presets and a recordable trace
// format. A validated spec compiles onto the existing machinery:
// loadgen.OpenConfig/ClosedConfig for the generators, fleet.Cohort for
// per-class devices and faults, and a per-class SLO tag threaded
// through every request so reports break latency, shed and energy down
// per class.
//
// The paper's pocket-cloudlet argument rests on workload shape —
// diurnal mobile search traffic, popularity skew, personal vs
// community reuse — and a pile of CLI flags cannot express a mixed
// fleet or a replayable recorded trace. A scenario can:
//
//	{
//	  "version": 1,
//	  "name": "mixed-fleet",
//	  "mode": "open",
//	  "users": 1500,
//	  "qps": 1800,
//	  "duration": "4s",
//	  "classes": [
//	    {"name": "interactive", "share": 0.4, "slo_class": "interactive",
//	     "device": "wifi", "arrival": {"process": "diurnal", "rate_fraction": 0.5}},
//	    {"name": "background", "share": 0.6, "arrival": {"process": "flat"}}
//	  ]
//	}
//
// Everything is stdlib encoding/json; validation is strict (unknown
// fields are errors) and positional (problems name their path, e.g.
// "classes[2].arrival.process"). The struct declarations below are the
// only list of configuration keys: Parse's decoder and the path setter
// cmd/loadtest's flags go through (Field, Set) both find a key by its
// json tag.
package scenario

import (
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"pocketcloudlets/internal/engine"
)

// Version is the spec version this package reads and writes.
const Version = 1

// Duration is a time.Duration that marshals as a Go duration string
// ("3s", "250ms") instead of nanoseconds, keeping specs readable.
type Duration time.Duration

// D converts to time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", time.Duration(d))), nil
}

// UnmarshalJSON implements json.Unmarshaler; it accepts a duration
// string ("3s") or a bare number of seconds.
func (d *Duration) UnmarshalJSON(data []byte) error {
	s := strings.TrimSpace(string(data))
	if len(s) >= 2 && s[0] == '"' {
		parsed, err := time.ParseDuration(strings.Trim(s, `"`))
		if err != nil {
			return err
		}
		*d = Duration(parsed)
		return nil
	}
	var secs float64
	if _, err := fmt.Sscanf(s, "%g", &secs); err != nil {
		return fmt.Errorf("want a duration string like \"3s\"")
	}
	*d = Duration(time.Duration(secs * float64(time.Second)))
	return nil
}

// Rate is a requests-per-second rate that marshals "inf" for an
// infinite rate (JSON numbers cannot express infinity) and accepts
// either a positive number or the string "inf".
type Rate float64

// MarshalJSON implements json.Marshaler.
func (r Rate) MarshalJSON() ([]byte, error) {
	if math.IsInf(float64(r), 1) {
		return []byte(`"inf"`), nil
	}
	return []byte(fmt.Sprintf("%g", float64(r))), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *Rate) UnmarshalJSON(data []byte) error {
	s := strings.TrimSpace(string(data))
	if strings.Trim(s, `"`) == "inf" {
		*r = Rate(math.Inf(1))
		return nil
	}
	var v float64
	if _, err := fmt.Sscanf(s, "%g", &v); err != nil {
		return fmt.Errorf("want a rate number or \"inf\"")
	}
	*r = Rate(v)
	return nil
}

// Spec is one declarative scenario.
type Spec struct {
	// Version must be 1.
	Version int `json:"version"`
	// Name labels the scenario in reports.
	Name string `json:"name,omitempty"`
	// Mode selects the protocol: "open" (scheduled arrivals), "closed"
	// (concurrent users awaiting responses) or "trace" (replay a
	// recorded trace file).
	Mode string `json:"mode"`
	// Users is the simulated population size.
	Users int `json:"users"`
	// Seed drives every random draw; zero selects 1.
	Seed int64 `json:"seed,omitempty"`
	// Month is the month users replay; community content is built from
	// the preceding month. Zero selects 1.
	Month int `json:"month,omitempty"`
	// Duration bounds the run. Required (positive) in open mode; in
	// closed mode zero replays exactly one month per user.
	Duration Duration `json:"duration,omitempty"`
	// QPS is the open-loop total mean arrival rate.
	QPS float64 `json:"qps,omitempty"`
	// CommunityShare is the cumulative-volume share the community cache
	// covers; zero selects 0.55 (the paper's operating point).
	CommunityShare float64 `json:"community_share,omitempty"`
	// Trace is the trace file to replay (mode "trace" only).
	Trace string `json:"trace,omitempty"`
	// MaxRequests caps the open-loop schedule; zero selects the
	// generator default (10M).
	MaxRequests int `json:"max_requests,omitempty"`
	// Fleet shapes the serving fleet.
	Fleet FleetSpec `json:"fleet,omitempty"`
	// Faults is the fleet-wide fault profile; nil disables injection
	// for every class that does not override it.
	Faults *FaultSpec `json:"faults,omitempty"`
	// Events are scheduled operations on the run's model-time
	// timeline: live resizes and fleet-wide outage windows. Open and
	// closed mode (trace mode replays no timeline); events must be
	// sorted by offset. A resize's offset is into the arrival schedule
	// in open mode and into the users' month logs in closed mode (the
	// month replayed first starts at 0, the next at one log window).
	Events []EventSpec `json:"events,omitempty"`
	// Classes are the client classes. Empty means one implicit class
	// covering the whole population with the top-level knobs.
	Classes []ClassSpec `json:"classes,omitempty"`
}

// FleetSpec shapes the serving fleet a scenario runs against.
type FleetSpec struct {
	// Shards is the shard count (0 = fleet default 8); Workers the
	// worker-pool size (0 = min(shards, GOMAXPROCS)); Queue each
	// worker's queue depth (0 = 1024).
	Shards  int `json:"shards,omitempty"`
	Workers int `json:"workers,omitempty"`
	Queue   int `json:"queue,omitempty"`
	// Radio is the fleet-wide device radio tier: "3g" (default),
	// "edge" or "wifi". Classes may override per device.
	Radio string `json:"radio,omitempty"`
	// Placement is "modulo" (default) or "ring"; VNodes are the ring's
	// virtual nodes per shard (0 = 64).
	Placement string `json:"placement,omitempty"`
	VNodes    int    `json:"vnodes,omitempty"`
	// UserBudgetBytes caps each user's personal flash (0 = unlimited).
	UserBudgetBytes int64 `json:"user_budget_bytes,omitempty"`
	// Replicas is the number of modeled cloud engine replicas the miss
	// path may dispatch to (0 or 1 = single backend). Each replica
	// beyond the first draws its faults independently; classes opt into
	// hedging across them with a "hedge" block.
	Replicas int `json:"replicas,omitempty"`
	// Batch configures cloud-miss coalescing. Batching and per-class
	// device overrides do not compose (the shared session is priced on
	// the fleet radio), which Compile enforces.
	Batch BatchSpec `json:"batch,omitempty"`
	// Backend models the cloud replica servers as finite-capacity
	// queues; nil keeps the pre-backend analytic miss path. The block
	// requires a fault profile somewhere in the spec (the admission
	// planner runs on the faulted miss path).
	Backend *BackendSpec `json:"backend,omitempty"`
	// Autoscale enables the occupancy-driven shard autoscaler
	// (internal/autoscale); nil keeps the topology static. Requires
	// open mode and the ring placement.
	Autoscale *AutoscaleSpec `json:"autoscale,omitempty"`
}

// AutoscaleSpec turns on the occupancy-driven shard autoscaler: the
// load generator samples per-shard occupancy on a model-time cadence
// and resizes the fleet within [min, max] with hysteresis
// (internal/autoscale). Zero fields select the controller defaults.
type AutoscaleSpec struct {
	// Interval is the model-time sampling cadence (0 = 1s).
	Interval Duration `json:"interval,omitempty"`
	// Min and Max bound the shard count the controller may target
	// (0 = 1 and 4× the initial shard count).
	Min int `json:"min,omitempty"`
	Max int `json:"max,omitempty"`
	// High and Low are the occupancy watermarks (0 = 0.75 and 0.35).
	High float64 `json:"high,omitempty"`
	Low  float64 `json:"low,omitempty"`
	// UpAfter and DownAfter are the consecutive-sample streaks a
	// resize needs (0 = 2 and 3).
	UpAfter   int `json:"up_after,omitempty"`
	DownAfter int `json:"down_after,omitempty"`
	// RatePerShard is the serving rate, in requests per second of
	// model time, at which one shard counts as fully occupied
	// (0 = 50).
	RatePerShard float64 `json:"rate_per_shard,omitempty"`
}

// EventSpec is one scheduled operation on the run's model-time
// timeline. Exactly one of Resize or Outage must be set.
type EventSpec struct {
	// At is the model-time offset the event fires at.
	At Duration `json:"at"`
	// Resize reshards the fleet to this many shards; Drop discards
	// movers' personal state instead of migrating it.
	Resize int  `json:"resize,omitempty"`
	Drop   bool `json:"drop,omitempty"`
	// Outage opens a fleet-wide connectivity outage of this length
	// starting at the offset, lowered onto the fleet fault profile as
	// an absolute window (classes overriding faults keep their own
	// profile).
	Outage Duration `json:"outage,omitempty"`
}

// BackendSpec models the cloud replica servers behind the miss path as
// event-driven queues (internal/backend). Presence of the block
// enables the model; replica count and clone-load scaling are derived
// from the fleet's replicas and the heaviest hedge policy in the spec.
type BackendSpec struct {
	// ServiceRate is each replica's capacity in requests per second; the
	// string "inf" models an infinitely fast server, which reproduces
	// the no-backend fleet byte-for-byte. Required and positive.
	ServiceRate Rate `json:"service_rate"`
	// Queue bounds each replica's queue (0 = unbounded): FIFO caps the
	// backlog at queue mean service times, PS caps the sharing level at
	// queue concurrent requests. Over-bound dispatches are rejected and
	// retried like any failed attempt.
	Queue int `json:"queue,omitempty"`
	// Discipline is "fifo" (default) or "ps".
	Discipline string `json:"discipline,omitempty"`
	// Dist is the service-time distribution: "exp" (default) or "fixed".
	Dist string `json:"dist,omitempty"`
	// Offered is the fleet-wide miss arrival rate (requests/second,
	// before cloning) the replicas' background load simmers at; zero
	// means dispatches pay service time but never queue behind others.
	Offered float64 `json:"offered,omitempty"`
	// CancelOnWin reclaims a hedge loser's unexecuted service when the
	// winner's answer cancels it; off, abandoned clones burn their full
	// service time.
	CancelOnWin bool `json:"cancel_on_win,omitempty"`
	// Seed drives the background arrivals and service draws; zero reuses
	// the scenario seed.
	Seed int64 `json:"seed,omitempty"`
}

// BatchSpec configures miss coalescing.
type BatchSpec struct {
	Enabled bool `json:"enabled,omitempty"`
	// Max caps misses per session (0 = 16); Linger is the collection
	// window (0 = 200µs); FleetWide pools all shards' misses.
	Max       int      `json:"max,omitempty"`
	Linger    Duration `json:"linger,omitempty"`
	FleetWide bool     `json:"fleet_wide,omitempty"`
}

// FaultSpec is a connectivity-fault profile, fleet-wide or per class.
// A present-but-empty profile is explicitly fault-free: a class with
// "faults": {} opts out of the fleet-wide profile.
type FaultSpec struct {
	// Loss is the per-attempt probability a radio exchange is dropped;
	// EngineErr the per-attempt probability of a transient cloud error.
	Loss      float64 `json:"loss,omitempty"`
	EngineErr float64 `json:"engine_err,omitempty"`
	// Outage is the outage spec: "6s/30s" duty cycle (down the first 6s
	// of every 30s of model time) or "10s-20s,40s-45s" absolute windows.
	Outage string `json:"outage,omitempty"`
	// Retries caps radio attempts per cloud miss (0 = default 4).
	Retries int `json:"retries,omitempty"`
	// Seed drives the fault hashes; zero reuses the scenario seed.
	Seed int64 `json:"seed,omitempty"`
}

// ClassSpec is one client class.
type ClassSpec struct {
	// Name identifies the class; it must be unique within the spec.
	Name string `json:"name"`
	// Share is the class's fraction of the user population; shares must
	// sum to 1.
	Share float64 `json:"share"`
	// SLOClass tags the class's requests in reports; empty reuses Name.
	SLOClass string `json:"slo_class,omitempty"`
	// Device overrides the class's radio tier ("3g", "edge", "wifi");
	// empty inherits the fleet radio.
	Device string `json:"device,omitempty"`
	// Arrival shapes the class's open-loop arrival process.
	Arrival *ArrivalSpec `json:"arrival,omitempty"`
	// Think is the class's closed-loop think-time pacing.
	Think *ThinkSpec `json:"think,omitempty"`
	// MaxQueriesPerUser caps each class user's closed-loop stream.
	MaxQueriesPerUser int `json:"max_queries_per_user,omitempty"`
	// Faults overrides the fleet-wide fault profile for this class's
	// users; an empty object disables faults for them.
	Faults *FaultSpec `json:"faults,omitempty"`
	// Hedge opts this class's cloud misses into hedged dispatch across
	// the fleet's replicas (fleet.replicas must be ≥ 2). Nil keeps the
	// single-dispatch path.
	Hedge *HedgeSpec `json:"hedge,omitempty"`
}

// HedgeSpec is one class's hedging policy for cloud misses.
type HedgeSpec struct {
	// CloneFactor is the total dispatches one miss may make, primary
	// included; values below 2 disable hedging for the class.
	CloneFactor int `json:"clone_factor"`
	// Delay staggers each additional clone after the primary; zero
	// launches all clones immediately.
	Delay Duration `json:"delay,omitempty"`
	// MaxInflight caps concurrently outstanding dispatches per miss
	// (0 = clone_factor).
	MaxInflight int `json:"max_inflight,omitempty"`
}

// ArrivalSpec shapes one class's open-loop arrival process.
type ArrivalSpec struct {
	// Process is "flat" (homogeneous Poisson; "poisson" is accepted as
	// an alias), "diurnal" or "peruser".
	Process string `json:"process"`
	// RateFraction is the class's fraction of the scenario QPS; zero
	// defaults to the class's user share. Fractions must sum to 1.
	RateFraction float64 `json:"rate_fraction,omitempty"`
	// PeakTrough is the diurnal peak/trough rate ratio (≥ 1); zero
	// selects the default (4). Diurnal only.
	PeakTrough float64 `json:"peak_trough,omitempty"`
	// Period is the diurnal curve's period; zero spans the run with a
	// single day. Diurnal only.
	Period Duration `json:"period,omitempty"`
}

// ThinkSpec is closed-loop think-time pacing for one class.
type ThinkSpec struct {
	// Scale is the fraction of each modeled response time the user
	// "thinks" before their next query (wall-clock only).
	Scale float64 `json:"scale"`
	// MaxPause caps one think pause; zero selects the default (50ms).
	MaxPause Duration `json:"max_pause,omitempty"`
}

// Error is a validation failure: every problem found, each prefixed
// with the JSON path it was found at.
type Error struct {
	Problems []string
}

// Error implements error.
func (e *Error) Error() string {
	if len(e.Problems) == 1 {
		return "scenario: " + e.Problems[0]
	}
	return "scenario: invalid spec:\n  " + strings.Join(e.Problems, "\n  ")
}

// withDefaults resolves the spec's zero-value defaults in place.
func (s *Spec) withDefaults() {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Month == 0 {
		s.Month = 1
	}
	if s.CommunityShare == 0 {
		s.CommunityShare = 0.55
	}
	if s.Fleet.Radio == "" {
		s.Fleet.Radio = "3g"
	}
	if s.Fleet.Placement == "" {
		s.Fleet.Placement = "modulo"
	}
	for i := range s.Classes {
		c := &s.Classes[i]
		if c.SLOClass == "" {
			c.SLOClass = c.Name
		}
		if c.Arrival != nil && c.Arrival.RateFraction == 0 {
			c.Arrival.RateFraction = c.Share
		}
	}
}

// Load resolves a scenario by preset name or file path and returns the
// parsed, validated spec plus the label reports carry (the preset name
// or the file path).
func Load(nameOrPath string) (*Spec, string, error) {
	if raw, ok := Preset(nameOrPath); ok {
		spec, err := Parse([]byte(raw))
		if err != nil {
			return nil, "", fmt.Errorf("scenario: preset %s: %w", nameOrPath, err)
		}
		return spec, nameOrPath, nil
	}
	data, err := os.ReadFile(nameOrPath)
	if err != nil {
		return nil, "", fmt.Errorf("scenario: %w (not a preset either; presets: %s)",
			err, strings.Join(PresetNames(), ", "))
	}
	spec, err := Parse(data)
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", nameOrPath, err)
	}
	return spec, nameOrPath, nil
}

// UniverseConfig is the corpus sizing the scenario CLIs share: small
// enough that cmd/loadtest and cmd/tracegen build their ecosystem in
// well under a second, big enough that the popularity skew survives.
// Both commands must use the same corpus or a recorded trace would
// replay against different strings than it was drawn from.
func UniverseConfig() engine.Config {
	return engine.Config{
		NavPairs:    24000,
		NonNavPairs: 120000,
		NonNavSegments: []engine.Segment{
			{Queries: 100, ResultsPerQuery: 6},
			{Queries: 400, ResultsPerQuery: 4},
			{Queries: 1500, ResultsPerQuery: 3},
			{Queries: 8000, ResultsPerQuery: 2},
		},
	}
}
