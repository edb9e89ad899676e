package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"time"

	"pocketcloudlets/internal/autoscale"
	"pocketcloudlets/internal/backend"
	"pocketcloudlets/internal/faults"
	"pocketcloudlets/internal/modeltime"
)

// problems accumulates validation failures so one Parse reports every
// problem in the spec, not just the first.
type problems struct {
	list []string
}

func (p *problems) addf(format string, args ...any) {
	p.list = append(p.list, fmt.Sprintf(format, args...))
}

// Parse decodes and validates a scenario spec. Decoding is strict —
// unknown fields and type mismatches are errors, reported with the
// JSON path they occur at — and the returned spec has defaults
// resolved. On failure the error is an *Error listing every problem.
func Parse(data []byte) (*Spec, error) {
	p := &problems{}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		p.addf("spec is not a JSON object: %v", err)
	}
	s := &Spec{}
	decodeFields(p, "", raw, reflect.ValueOf(s).Elem())
	if len(p.list) > 0 {
		return nil, &Error{Problems: p.list}
	}
	s.withDefaults()
	validateSpec(p, s)
	if len(p.list) > 0 {
		return nil, &Error{Problems: p.list}
	}
	return s, nil
}

// decodeInto unmarshals one leaf value, translating encoding/json's
// error into a positional problem.
func decodeInto(p *problems, path string, raw json.RawMessage, dst any) {
	if err := json.Unmarshal(raw, dst); err != nil {
		if te, ok := err.(*json.UnmarshalTypeError); ok {
			p.addf("%s: want %s, got JSON %s", path, te.Type, te.Value)
			return
		}
		p.addf("%s: %v", path, err)
	}
}

// jsonField finds the field of block v that a JSON key names; a leaf
// has none. The json tags on scenario.go's declarations are the only
// list of keys — the decoder and Field both look a key up here — and a
// key must match its tag exactly (encoding/json itself would fold case).
func jsonField(v reflect.Value, key string) (reflect.Value, bool) {
	if v.Kind() != reflect.Struct {
		return reflect.Value{}, false
	}
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		if name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ","); name == key {
			return v.Field(i), true
		}
	}
	return reflect.Value{}, false
}

// decode unmarshals raw into dst: a block (a struct or a pointer to
// one), a list, or a leaf. A pointer block is allocated once raw turns
// out to be an object — JSON null counts, so "faults": null is a
// present-but-empty profile — and every leaf, Duration and Rate
// included, goes through json.Unmarshal and so its own UnmarshalJSON.
func decode(p *problems, path string, raw json.RawMessage, dst reflect.Value) {
	switch dst.Kind() {
	case reflect.Struct, reflect.Pointer:
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			p.addf("%s: want a JSON object", path)
			return
		}
		if dst.Kind() == reflect.Pointer {
			dst.Set(reflect.New(dst.Type().Elem()))
			dst = dst.Elem()
		}
		decodeFields(p, path+".", m, dst)
	case reflect.Slice:
		var items []json.RawMessage
		if err := json.Unmarshal(raw, &items); err != nil {
			p.addf("%s: want a JSON array", path)
			return
		}
		dst.SetZero()
		for i, item := range items {
			dst.Set(reflect.Append(dst, reflect.Zero(dst.Type().Elem())))
			decode(p, fmt.Sprintf("%s[%d]", path, i), item, dst.Index(i))
		}
	default:
		decodeInto(p, path, raw, dst.Addr().Interface())
	}
}

// decodeFields fills block dst from one object level, walking the keys
// in sorted order so problem lists are deterministic. A key no json tag
// of the block declares is a problem.
func decodeFields(p *problems, prefix string, m map[string]json.RawMessage, dst reflect.Value) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if f, ok := jsonField(dst, key); ok {
			decode(p, prefix+key, m[key], f)
		} else {
			p.addf("%s%s: unknown field", prefix, key)
		}
	}
}

// validRadios are the radio tiers the facade knows how to price.
var validRadios = map[string]bool{"3g": true, "edge": true, "wifi": true}

// validateSpec runs the semantic checks on a structurally sound spec
// with defaults already resolved.
func validateSpec(p *problems, s *Spec) {
	if s.Version != Version {
		p.addf("version: want %d, got %d", Version, s.Version)
	}
	switch s.Mode {
	case "open", "closed", "trace":
	default:
		p.addf("mode: want \"open\", \"closed\" or \"trace\", got %q", s.Mode)
		return
	}
	if s.Users <= 0 {
		p.addf("users: must be positive, got %d", s.Users)
	}
	if s.Month < 1 {
		p.addf("month: must be ≥ 1, got %d", s.Month)
	}
	if s.Duration < 0 {
		p.addf("duration: must be non-negative, got %v", s.Duration.D())
	}
	if s.Mode == "open" && s.Duration <= 0 {
		p.addf("duration: open mode needs a positive duration")
	}
	if s.Mode == "open" && s.QPS <= 0 {
		p.addf("qps: open mode needs a positive rate, got %g", s.QPS)
	}
	if s.Mode != "open" && s.QPS != 0 {
		p.addf("qps: only open mode schedules arrivals")
	}
	if s.CommunityShare <= 0 || s.CommunityShare > 1 {
		p.addf("community_share: must be in (0, 1], got %g", s.CommunityShare)
	}
	if s.MaxRequests < 0 {
		p.addf("max_requests: must be non-negative, got %d", s.MaxRequests)
	}
	if s.Mode == "trace" && s.Trace == "" {
		p.addf("trace: trace mode needs a trace file path")
	}
	if s.Mode != "trace" && s.Trace != "" {
		p.addf("trace: only trace mode replays a trace file")
	}
	validateFleet(p, &s.Fleet)
	if s.Fleet.Autoscale != nil {
		validateAutoscale(p, s.Fleet.Autoscale, s)
	}
	validateEvents(p, s)
	if s.Faults != nil {
		validateFaults(p, "faults", s.Faults)
	}
	if s.Fleet.Backend != nil && !anyFaults(s) {
		p.addf("fleet.backend: needs a fault profile (fleet-wide \"faults\" or a class override) — the admission planner runs on the faulted miss path")
	}
	if s.Fleet.Replicas > 0 && !anyFaults(s) {
		p.addf("fleet.replicas: needs a fault profile (fleet-wide \"faults\" or a class override) — replicas differ only in the faults they draw")
	}
	validateClasses(p, s)
}

func validateFleet(p *problems, f *FleetSpec) {
	for _, n := range []struct {
		name string
		v    int64
	}{
		{"fleet.shards", int64(f.Shards)},
		{"fleet.workers", int64(f.Workers)},
		{"fleet.queue", int64(f.Queue)},
		{"fleet.vnodes", int64(f.VNodes)},
		{"fleet.user_budget_bytes", f.UserBudgetBytes},
		{"fleet.replicas", int64(f.Replicas)},
		{"fleet.batch.max", int64(f.Batch.Max)},
		{"fleet.batch.linger", int64(f.Batch.Linger)},
	} {
		if n.v < 0 {
			p.addf("%s: must be non-negative, got %d", n.name, n.v)
		}
	}
	overLimit(p, "fleet.shards", f.Shards, maxShards, shardsWhy)
	overLimit(p, "fleet.replicas", f.Replicas, maxReplicas, "every cohort keeps an injector, and a backend a queue, per replica")
	overLimit(p, "fleet.batch.max", f.Batch.Max, maxBatchMax, "every shard keeps a session-size counter per batch size")
	overLimit(p, "fleet.vnodes", f.VNodes, maxVNodes, "the ring holds every shard's virtual nodes")
	if !validRadios[f.Radio] {
		p.addf("fleet.radio: want \"3g\", \"edge\" or \"wifi\", got %q", f.Radio)
	}
	switch f.Placement {
	case "modulo", "ring":
	default:
		p.addf("fleet.placement: want \"modulo\" or \"ring\", got %q", f.Placement)
	}
	if f.VNodes > 0 && f.Placement != "ring" {
		p.addf("fleet.vnodes: only the ring placement uses virtual nodes")
	}
	if !f.Batch.Enabled && (f.Batch.Max > 0 || f.Batch.Linger > 0 || f.Batch.FleetWide) {
		p.addf("fleet.batch: knobs set but batch.enabled is false")
	}
	if f.Backend != nil {
		validateBackend(p, f.Backend)
	}
}

func validateBackend(p *problems, b *BackendSpec) {
	if b.ServiceRate <= 0 {
		p.addf("fleet.backend.service_rate: must be positive (or \"inf\"), got %g", float64(b.ServiceRate))
	}
	if b.Queue < 0 {
		p.addf("fleet.backend.queue: must be non-negative, got %d", b.Queue)
	}
	if _, err := backend.ParseDiscipline(b.Discipline); err != nil {
		p.addf("fleet.backend.discipline: want \"fifo\" or \"ps\", got %q", b.Discipline)
	}
	if _, err := backend.ParseDist(b.Dist); err != nil {
		p.addf("fleet.backend.dist: want \"exp\" or \"fixed\", got %q", b.Dist)
	}
	switch {
	case b.Offered < 0 || math.IsInf(b.Offered, 1):
		p.addf("fleet.backend.offered: must be a non-negative finite rate, got %g", b.Offered)
	case b.Offered > maxBackendOffered:
		p.addf("fleet.backend.offered: %g/s is over the %g/s limit: pricing a miss replays every background arrival before it", b.Offered, float64(maxBackendOffered))
	}
}

// maxBackendOffered bounds the background miss rate a backend may
// simmer under. A priced miss replays every background arrival between
// the saved state it resumes from and its own instant, so its cost grows
// with the rate. On a 2-vCPU Xeon host a 20-user closed month with
// three PS replicas takes about 70 ms at 20/s and 2.5 s at 1e5/s; at
// 1e6/s it was still running after 20 s.
const maxBackendOffered = 1e5

// Ceilings on the keys that size per-shard arrays or a per-miss loop:
// far past any modeled fleet, they exhaust host memory or time before
// the run serves. Timings are a 20-user closed month on a 2-vCPU Xeon
// host, faulted at loss 0.2 where replicas or hedging are set; the
// presets and the benchmark use at most 20 shards, 3 replicas, clone
// factor 2, batches of 20 and the default 64 vnodes.
const (
	// maxShards bounds fleet.shards, fleet.autoscale.max and every
	// events[i].resize: every shard preloads a community replica, about
	// 0.4 ms of wall time each — a 50-user closed month takes 53 ms at 8
	// shards, 461 ms at 1,024 and 1.9 s at 4,096, and at 1e7 shards would
	// run for about an hour before it served a request.
	maxShards = 1024
	// maxReplicas: every cohort keeps a fault injector per replica, and
	// a queued backend a replica queue — a 50-user faulted closed month
	// hedged across 100,000 replicas takes 97 ms and across 1,000,000
	// 214 ms; with a backend model, 81 ms at 1,000 replicas and 1.8 s at
	// 100,000.
	maxReplicas = 64
	// maxCloneFactor: a hedged miss counts the launches in flight at
	// every clone slot, so its planning is quadratic in the clone factor
	// — 43 ms at 64, 117 ms at 256, 1.1 s at 1,000.
	maxCloneFactor = 64
	// maxBatchMax: every shard keeps a session-size counter per batch
	// size — 111 ms at 4,096, 544 ms at 1,048,576, and at 1e9 an 8 GB
	// allocation.
	maxBatchMax = 4096
	// maxVNodes: the ring holds every shard's virtual nodes — 61 ms at
	// 4,096, 459 ms at 65,536, 5.9 s at 1,048,576, and at 1e8 a 12.8 GB
	// allocation.
	maxVNodes = 4096
)

// shardsWhy is why maxShards is a ceiling.
const shardsWhy = "every shard preloads a community replica"

// overLimit refuses a sizing key above its ceiling, saying why there is
// one.
func overLimit(p *problems, name string, v, limit int, why string) {
	if v > limit {
		p.addf("%s: %d is over the %d limit: %s", name, v, limit, why)
	}
}

// validateAutoscale vets the raw (pre-WithDefaults) autoscale block;
// the controller's own WithDefaults/Validate run again at lowering
// with the real initial shard count, so here only explicitly-set
// fields are judged.
func validateAutoscale(p *problems, a *AutoscaleSpec, s *Spec) {
	if s.Mode != "open" {
		p.addf("fleet.autoscale: only open mode drives the autoscaler (mode is %q)", s.Mode)
	}
	if s.Fleet.Placement != "ring" {
		p.addf("fleet.autoscale: resizing needs the ring placement, got %q", s.Fleet.Placement)
	}
	if a.Interval < 0 {
		p.addf("fleet.autoscale.interval: must be non-negative, got %v", a.Interval.D())
	} else if n := autoscaleSamples(s.Duration.D(), a.Interval.D()); n > maxAutoscaleSamples {
		p.addf("fleet.autoscale.interval: %v samples the %v run %d times, over the %d-sample limit; use at least %v",
			a.Interval.D(), s.Duration.D(), n, maxAutoscaleSamples, (s.Duration.D()+maxAutoscaleSamples-1)/maxAutoscaleSamples)
	}
	for _, n := range []struct {
		name string
		v    int
	}{
		{"min", a.Min}, {"max", a.Max}, {"up_after", a.UpAfter}, {"down_after", a.DownAfter},
	} {
		if n.v < 0 {
			p.addf("fleet.autoscale.%s: must be non-negative, got %d", n.name, n.v)
		}
	}
	overLimit(p, "fleet.autoscale.max", a.Max, maxShards, shardsWhy)
	if a.Min > 0 && a.Max > 0 && a.Min > a.Max {
		p.addf("fleet.autoscale: min %d > max %d", a.Min, a.Max)
	}
	if a.High < 0 || a.High > 1 {
		p.addf("fleet.autoscale.high: must be in [0, 1], got %g", a.High)
	}
	if a.Low < 0 {
		p.addf("fleet.autoscale.low: must be non-negative, got %g", a.Low)
	}
	if a.High > 0 && a.Low > 0 && a.Low >= a.High {
		p.addf("fleet.autoscale: low watermark %g must be below high %g", a.Low, a.High)
	}
	if a.RatePerShard < 0 {
		p.addf("fleet.autoscale.rate_per_shard: must be non-negative, got %g", a.RatePerShard)
	}
}

// maxAutoscaleSamples bounds how often the autoscaler may sample one
// run. A sample drains the fleet and costs about 1.7 µs of wall time
// even with nothing to drain, so the limit is some 17 s of sampling; a
// 2 ns cadence over a 200 ms run would take minutes.
const maxAutoscaleSamples = 10_000_000

// autoscaleSamples is the number of samples the autoscaler takes over a
// run of duration d at interval (zero selects the controller default).
func autoscaleSamples(d, interval time.Duration) int64 {
	if interval <= 0 {
		interval = autoscale.DefaultInterval
	}
	return int64(d / interval)
}

func validateEvents(p *problems, s *Spec) {
	if len(s.Events) == 0 {
		return
	}
	if s.Mode == "trace" {
		p.addf("events: trace mode replays no timeline")
	}
	for i, e := range s.Events {
		path := fmt.Sprintf("events[%d]", i)
		if e.At < 0 {
			p.addf("%s.at: must be non-negative, got %v", path, e.At.D())
		}
		if i > 0 && e.At < s.Events[i-1].At {
			p.addf("%s.at: events must be sorted by offset (%v after %v)",
				path, e.At.D(), s.Events[i-1].At.D())
		}
		if e.Resize < 0 {
			p.addf("%s.resize: must be non-negative, got %d", path, e.Resize)
		}
		overLimit(p, path+".resize", e.Resize, maxShards, shardsWhy)
		if e.Outage < 0 {
			p.addf("%s.outage: must be non-negative, got %v", path, e.Outage.D())
		}
		switch {
		case e.Resize > 0 && e.Outage > 0:
			p.addf("%s: pick one of resize or outage per event", path)
		case e.Outage > 0 && e.Drop:
			p.addf("%s.drop: only resize events move state", path)
		case e.Resize <= 0 && e.Outage <= 0:
			p.addf("%s: needs a positive resize target or outage length", path)
		}
	}
}

func validateFaults(p *problems, path string, f *FaultSpec) {
	if f.Loss < 0 || f.Loss >= 1 {
		p.addf("%s.loss: must be in [0, 1), got %g", path, f.Loss)
	}
	if f.EngineErr < 0 || f.EngineErr >= 1 {
		p.addf("%s.engine_err: must be in [0, 1), got %g", path, f.EngineErr)
	}
	if f.Outage != "" {
		if _, _, _, err := faults.ParseOutageSpec(f.Outage); err != nil {
			p.addf("%s.outage: %v", path, err)
		}
	}
	if f.Retries < 0 {
		p.addf("%s.retries: must be non-negative, got %d", path, f.Retries)
	}
}

func validateClasses(p *problems, s *Spec) {
	if len(s.Classes) == 0 {
		return
	}
	seen := map[string]int{}
	var shareSum, rateSum float64
	for i, c := range s.Classes {
		path := fmt.Sprintf("classes[%d]", i)
		if c.Name == "" {
			p.addf("%s.name: required", path)
		} else if prev, dup := seen[c.Name]; dup {
			p.addf("%s.name: duplicates classes[%d].name %q", path, prev, c.Name)
		} else {
			seen[c.Name] = i
		}
		if c.Share <= 0 || c.Share > 1 {
			p.addf("%s.share: must be in (0, 1], got %g", path, c.Share)
		}
		shareSum += c.Share
		if c.Device != "" && !validRadios[c.Device] {
			p.addf("%s.device: want \"3g\", \"edge\" or \"wifi\", got %q", path, c.Device)
		}
		if c.Device != "" && c.Device != s.Fleet.Radio && s.Fleet.Batch.Enabled {
			p.addf("%s.device: per-class radios do not compose with batching (shared sessions are priced on the fleet radio)", path)
		}
		if c.MaxQueriesPerUser < 0 {
			p.addf("%s.max_queries_per_user: must be non-negative, got %d", path, c.MaxQueriesPerUser)
		}
		if s.Mode != "closed" && (c.Think != nil || c.MaxQueriesPerUser > 0) {
			p.addf("%s: think pacing and per-user caps only apply in closed mode", path)
		}
		if s.Mode != "open" && c.Arrival != nil {
			p.addf("%s.arrival: only open mode schedules arrivals", path)
		}
		if s.Mode == "open" {
			rateSum += c.effectiveRateFraction()
		}
		if c.Arrival != nil {
			validateArrival(p, path+".arrival", c.Arrival)
		}
		if c.Think != nil {
			if c.Think.Scale < 0 {
				p.addf("%s.think.scale: must be non-negative, got %g", path, c.Think.Scale)
			}
			if c.Think.MaxPause < 0 {
				p.addf("%s.think.max_pause: must be non-negative, got %v", path, c.Think.MaxPause.D())
			}
		}
		if c.Faults != nil {
			validateFaults(p, path+".faults", c.Faults)
		}
		if c.Hedge != nil {
			validateHedge(p, path+".hedge", c.Hedge, s)
		}
	}
	if math.Abs(shareSum-1) > 1e-6 {
		p.addf("classes: shares sum to %g, want 1", shareSum)
	}
	if s.Mode == "open" && math.Abs(rateSum-1) > 1e-6 {
		p.addf("classes: arrival rate_fractions sum to %g, want 1", rateSum)
	}
}

func validateHedge(p *problems, path string, h *HedgeSpec, s *Spec) {
	if h.CloneFactor < 1 {
		p.addf("%s.clone_factor: must be ≥ 1, got %d", path, h.CloneFactor)
	}
	overLimit(p, path+".clone_factor", h.CloneFactor, maxCloneFactor, "planning a hedged miss is quadratic in it")
	if h.Delay < 0 {
		p.addf("%s.delay: must be non-negative, got %v", path, h.Delay.D())
	}
	if h.MaxInflight < 0 {
		p.addf("%s.max_inflight: must be non-negative, got %d", path, h.MaxInflight)
	}
	if h.MaxInflight > h.CloneFactor {
		p.addf("%s.max_inflight: exceeds clone_factor %d", path, h.CloneFactor)
	}
	if h.CloneFactor >= 2 && s.Fleet.Replicas < 2 {
		p.addf("%s: clone_factor %d needs fleet.replicas ≥ 2, got %d", path, h.CloneFactor, s.Fleet.Replicas)
	}
	if h.CloneFactor < 2 && (h.Delay != 0 || h.MaxInflight != 0) {
		p.addf("%s: delay and max_inflight shape clones, which need clone_factor ≥ 2", path)
	}
	if !anyFaults(s) {
		p.addf("%s: needs a fault profile (fleet-wide \"faults\" or a class override) — hedging runs on the faulted miss path", path)
	}
}

// anyFaults reports whether the spec carries a fault profile at all,
// fleet-wide or on a class (an empty override still enables the
// injector for the class).
func anyFaults(s *Spec) bool {
	for _, c := range s.Classes {
		if c.Faults != nil {
			return true
		}
	}
	return s.Faults != nil
}

// effectiveRateFraction is the class's share of the scenario QPS: the
// explicit rate_fraction, or the user share when no arrival is given.
func (c *ClassSpec) effectiveRateFraction() float64 {
	if c.Arrival != nil && c.Arrival.RateFraction > 0 {
		return c.Arrival.RateFraction
	}
	return c.Share
}

func validateArrival(p *problems, path string, a *ArrivalSpec) {
	kind, err := modeltime.ParseKind(a.Process)
	if err != nil {
		p.addf("%s.process: unknown arrival process %q (want \"flat\", \"diurnal\" or \"peruser\")", path, a.Process)
		return
	}
	if a.RateFraction < 0 || a.RateFraction > 1 {
		p.addf("%s.rate_fraction: must be in [0, 1], got %g", path, a.RateFraction)
	}
	if kind != modeltime.Diurnal {
		if a.PeakTrough != 0 {
			p.addf("%s.peak_trough: only the diurnal process has a peak/trough ratio", path)
		}
		if a.Period != 0 {
			p.addf("%s.period: only the diurnal process has a period", path)
		}
		return
	}
	if a.PeakTrough != 0 && a.PeakTrough < 1 {
		p.addf("%s.peak_trough: must be ≥ 1, got %g", path, a.PeakTrough)
	}
	if a.Period < 0 {
		p.addf("%s.period: must be non-negative, got %v", path, a.Period.D())
	}
}
