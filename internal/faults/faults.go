// Package faults is the deterministic connectivity-fault model of the
// fleet serving layer. The paper's Section 1 argument for pocket
// cloudlets is precisely that the cellular path is slow *and
// unreliable* — multi-second radio wake-ups, dead zones, airplane mode
// — yet an un-faulted simulation never exercises the "unreliable"
// half. This package injects three failure classes into the cloud-miss
// path:
//
//   - Outage windows: intervals of model time during which the radio
//     cannot attach at all (a dead zone, or airplane mode), given
//     either as absolute windows or as a periodic duty cycle.
//   - Per-attempt loss: each radio exchange attempt is independently
//     dropped with a fixed probability (fades, handovers, congestion).
//   - Transient engine errors: the exchange reaches the cloud but the
//     engine answers with a retryable error (the 5xx class).
//
// Determinism is the design constraint everything here serves. Every
// fault decision is a pure function of the injector seed, the user,
// the query hash, the user's per-miss sequence number, the attempt
// index and the user's own model clock — never of wall time, goroutine
// interleaving or batch composition. A whole retry sequence is
// therefore *plannable*: PlanMiss simulates the attempt/backoff ladder
// analytically and returns the attempts taken, the model time and
// radio-active time burned by the failures, and whether the miss
// ultimately succeeded, all before any model state is touched. The
// fleet executes the plan against the device model afterwards, which
// is what makes per-user outcomes byte-identical run to run even with
// faults active (see internal/fleet's determinism tests).
package faults

import (
	"fmt"
	"strings"
	"time"

	"pocketcloudlets/internal/hash64"
	"pocketcloudlets/internal/radio"
)

// Window is one absolute connectivity outage interval in model time:
// the radio cannot attach from Start (inclusive) to End (exclusive).
type Window struct {
	Start time.Duration
	End   time.Duration
}

// Options configure the fault model. The zero value disables it.
type Options struct {
	// Enabled turns fault injection on. With Enabled set and every
	// other field zero the model is inert: every miss is planned through
	// an injector that injects nothing, producing outcomes identical to
	// a disabled model (the "inert ≡ faults off" rows of the fleet's
	// TestMissPathTable rely on this).
	Enabled bool
	// Seed drives the loss and engine-error hashes. Independent of the
	// workload seed so fault scenarios can vary against a fixed load.
	Seed int64
	// LossProb is the probability that one radio exchange attempt is
	// dropped by the network, per attempt, in [0, 1).
	LossProb float64
	// EngineErrProb is the probability that one attempt reaches the
	// cloud but receives a transient engine error, per attempt.
	EngineErrProb float64
	// Windows are absolute outage intervals in model time.
	Windows []Window
	// OutageEvery and OutageFor describe a periodic duty cycle: the
	// first OutageFor of every OutageEvery period is an outage (a
	// commuter's daily dead zones). Both must be positive to apply.
	OutageEvery time.Duration
	OutageFor   time.Duration
	// OutagePhase shifts the duty cycle forward in time. Replica
	// derivation (ReplicaOptions) uses it to give each modeled backend
	// an independently phased outage schedule; zero keeps the legacy
	// alignment. Must be non-negative.
	OutagePhase time.Duration
}

// Active reports whether any fault is actually configured — Enabled
// with at least one non-zero failure source.
func (o Options) Active() bool {
	return o.Enabled &&
		(o.LossProb > 0 || o.EngineErrProb > 0 || len(o.Windows) > 0 ||
			(o.OutageEvery > 0 && o.OutageFor > 0))
}

// Down reports whether the radio is inside an outage at model time
// now. Pure function of the options and now.
func (o Options) Down(now time.Duration) bool {
	if o.OutageEvery > 0 && o.OutageFor > 0 && (now+o.OutagePhase)%o.OutageEvery < o.OutageFor {
		return true
	}
	for _, w := range o.Windows {
		if now >= w.Start && now < w.End {
			return true
		}
	}
	return false
}

// OutageShare returns the fraction of the duty-cycle period spent in
// outage (zero when no periodic outage is configured) — the headline
// severity knob of the availability experiments.
func (o Options) OutageShare() float64 {
	if o.OutageEvery <= 0 || o.OutageFor <= 0 {
		return 0
	}
	s := float64(o.OutageFor) / float64(o.OutageEvery)
	if s > 1 {
		return 1
	}
	return s
}

// ParseOutageSpec parses the cmd/loadtest -outage syntax. Two forms:
//
//	"6s/30s"           periodic duty cycle: down the first 6s of every 30s
//	"10s-20s,40s-45s"  absolute model-time outage windows
func ParseOutageSpec(spec string) (every, down time.Duration, windows []Window, err error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return 0, 0, nil, fmt.Errorf("faults: empty outage spec")
	}
	if before, after, ok := strings.Cut(spec, "/"); ok {
		down, err = time.ParseDuration(strings.TrimSpace(before))
		if err != nil {
			return 0, 0, nil, fmt.Errorf("faults: outage spec %q: %w", spec, err)
		}
		every, err = time.ParseDuration(strings.TrimSpace(after))
		if err != nil {
			return 0, 0, nil, fmt.Errorf("faults: outage spec %q: %w", spec, err)
		}
		if down <= 0 || every <= 0 || down >= every {
			return 0, 0, nil, fmt.Errorf("faults: outage spec %q: want 0 < down < period", spec)
		}
		return every, down, nil, nil
	}
	for _, part := range strings.Split(spec, ",") {
		lo, hi, ok := strings.Cut(strings.TrimSpace(part), "-")
		if !ok {
			return 0, 0, nil, fmt.Errorf("faults: outage window %q: want start-end", part)
		}
		w := Window{}
		if w.Start, err = time.ParseDuration(strings.TrimSpace(lo)); err != nil {
			return 0, 0, nil, fmt.Errorf("faults: outage window %q: %w", part, err)
		}
		if w.End, err = time.ParseDuration(strings.TrimSpace(hi)); err != nil {
			return 0, 0, nil, fmt.Errorf("faults: outage window %q: %w", part, err)
		}
		if w.Start < 0 {
			return 0, 0, nil, fmt.Errorf("faults: outage window %q: negative start", part)
		}
		if w.End <= w.Start {
			return 0, 0, nil, fmt.Errorf("faults: outage window %q: end before start", part)
		}
		windows = append(windows, w)
	}
	return 0, 0, windows, nil
}

// Injector answers fault questions for the serve path. All methods are
// pure (no internal state mutates), so an Injector is safe for
// unsynchronized concurrent use.
type Injector struct {
	opts Options
}

// New builds an injector from the options.
func New(o Options) *Injector { return &Injector{opts: o} }

// Options returns the injector's configuration.
func (in *Injector) Options() Options { return in.opts }

// RadioDown reports whether the radio is inside an outage at the
// user's model time now.
func (in *Injector) RadioDown(now time.Duration) bool { return in.opts.Down(now) }

// roll hashes (seed, salt, uid, qh, seq, attempt) to a uniform float
// in [0, 1). seq is the user's miss sequence number, so repeats of the
// same query draw fresh outcomes instead of failing identically
// forever.
func (in *Injector) roll(salt, uid, qh, seq uint64, attempt int) float64 {
	x := hash64.Mix(uint64(in.opts.Seed) ^ salt)
	x = hash64.Mix(x ^ uid*0x9E3779B97F4A7C15)
	x = hash64.Mix(x ^ qh)
	x = hash64.Mix(x ^ seq*0xD1B54A32D192ED03)
	x = hash64.Mix(x ^ uint64(attempt))
	return float64(x>>11) / float64(1<<53)
}

// LostAttempt reports whether the network drops attempt number attempt
// (1-based) of the user's seq-th cloud miss for query qh.
func (in *Injector) LostAttempt(uid, qh, seq uint64, attempt int) bool {
	return in.opts.LossProb > 0 && in.roll(0x10C5_D0BE_EF11_A7E5, uid, qh, seq, attempt) < in.opts.LossProb
}

// EngineError reports whether the cloud engine answers attempt number
// attempt with a transient (retryable) error.
func (in *Injector) EngineError(uid, qh, seq uint64, attempt int) bool {
	return in.opts.EngineErrProb > 0 && in.roll(0x5E_E7_1E_55_C0_FF_EE_01, uid, qh, seq, attempt) < in.opts.EngineErrProb
}

// Default retry-policy constants.
const (
	DefaultMaxAttempts   = 4
	DefaultBaseBackoff   = 500 * time.Millisecond
	DefaultMaxBackoff    = 8 * time.Second
	DefaultRetryDeadline = 30 * time.Second
)

// RetryPolicy governs how the fleet retries a failed cloud exchange:
// capped exponential backoff in model time, bounded by a per-miss
// attempt cap and a model-time deadline. A retry costs the user modeled
// latency and radio joules, never host time.
type RetryPolicy struct {
	// MaxAttempts caps radio attempts per cloud miss (first try
	// included). Zero selects DefaultMaxAttempts; 1 disables retrying.
	MaxAttempts int
	// BaseBackoff is the pause after the first failed attempt; each
	// further failure doubles it up to MaxBackoff. Zeros select the
	// defaults.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Deadline bounds the model time one miss may spend failing and
	// backing off before it stops retrying. Zero selects
	// DefaultRetryDeadline; negative means no deadline.
	Deadline time.Duration
	// WallPauseScale is inert: nothing reads it, and a miss never
	// pauses its server. The field stays only because the benchmark
	// module (bench/) still sets it.
	WallPauseScale float64
}

// WithDefaults resolves zero fields to the default policy.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultMaxAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = DefaultBaseBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = DefaultMaxBackoff
	}
	if p.Deadline == 0 {
		p.Deadline = DefaultRetryDeadline
	}
	return p
}

// Backoff returns the model-time pause after failed attempt number
// attempt (1-based): BaseBackoff doubled per failure, capped at
// MaxBackoff.
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	b := p.BaseBackoff
	for i := 1; i < attempt; i++ {
		b *= 2
		if b >= p.MaxBackoff {
			return p.MaxBackoff
		}
	}
	if b > p.MaxBackoff {
		return p.MaxBackoff
	}
	return b
}

// Plan is the analytically simulated outcome of one cloud miss's
// attempt/backoff ladder, before any model state is touched.
type Plan struct {
	// Attempts is how many radio attempts the miss made (≥ 1).
	Attempts int
	// Success reports whether the final attempt got through; false
	// means the miss exhausted its policy and must degrade.
	Success bool
	// FinalWarm reports whether the radio is warm (in its tail) when
	// the successful exchange starts — on the first attempt this is
	// just the link's state, after failures it depends on the last
	// backoff versus the tail duration.
	FinalWarm bool
	// FailedWait is the model time burned by failed attempts and the
	// backoffs between attempts; FailedActive is the radio-active part
	// (the wake-ups and handshakes of the failed attempts — energy the
	// device pays for nothing: the radio costs the same whether or not
	// the network delivers).
	FailedWait   time.Duration
	FailedActive time.Duration
	// BackendWait is the modeled backend time — queue wait plus service —
	// burned by failed attempts' exchanges (an engine error still queued
	// and got served before it answered 5xx). It advances the ladder
	// clock alongside FailedWait but is tracked separately: it is server
	// time, not radio time. Zero without a Pricer.
	BackendWait time.Duration
	// FinalQueueWait and FinalService are the successful exchange's
	// priced admission: the queue delay before its service began and the
	// service time it consumed. The fleet charges them on top of the
	// normal exchange cost, the way it charges hedge wait. Zero without
	// a Pricer.
	FinalQueueWait time.Duration
	FinalService   time.Duration
	// Arrivals is the priced-dispatch ledger: one entry per attempt that
	// reached the replica, in attempt order, for the fleet to book into
	// the backend's accounting after the plan replays. A dispatch the
	// replica's bounded queue turned away — a failure that cost a radio
	// attempt but no backend time — is an ArrivalRejected entry. Nil
	// without a Pricer (an unpriced ladder allocates nothing).
	Arrivals []Arrival
	// Backoffs are the pauses taken between attempts, in order, so the
	// fleet can replay the exact failure sequence against the device
	// model (failed attempt i is followed by Backoffs[i-1] when present).
	Backoffs []time.Duration
}

// Failures is the number of failed attempts in the plan.
func (pl Plan) Failures() int {
	if pl.Success {
		return pl.Attempts - 1
	}
	return pl.Attempts
}

// LadderWait is the model time the ladder burned before its final
// exchange: failed waits, backoffs, and the backend time of failed
// exchanges. Without a Pricer it equals FailedWait.
func (pl Plan) LadderWait() time.Duration { return pl.FailedWait + pl.BackendWait }

// FinalBackend is the backend time of the successful exchange: queue
// wait plus service. Zero without a Pricer or on an exhausted ladder.
func (pl Plan) FinalBackend() time.Duration { return pl.FinalQueueWait + pl.FinalService }

// PlanMiss simulates the whole retry ladder of one cloud miss as an
// admission planner: at each attempt the radio may be inside an outage
// window (evaluated against the user's advancing model clock) or the
// attempt may be lost — either way it never reaches a replica. An
// attempt that does reach replica is priced against the backend model:
// the replica's bounded queue may reject it outright (a failed attempt
// that costs the radio but no server time), or admit it with a queue
// wait and service time — after which the engine may still answer a
// transient error, in which case the exchange's backend time is burned
// on the ladder clock (BackendWait). Each failure costs the radio's
// session overhead (wake-up when cold, plus the handshake) and is
// followed by the policy's backoff, which can itself carry the clock
// out of an outage window — retrying *escapes* dead zones, which is
// the point of backing off. The ladder ends on success, on the attempt
// cap, or when the model-time deadline passes.
//
// now is the user's model clock and warm the user link's state at the
// start; uid, qh and seq key the pure fault hashes; replica indexes
// the backend replica this ladder dispatches to. A nil injector plans
// a clean single-attempt success and skips pricing (the fleet gates
// backends on the fault model); a nil pricer admits everything at zero
// cost, reproducing the legacy planner byte-for-byte.
func PlanMiss(in *Injector, pol RetryPolicy, p radio.Params, pr Pricer, replica int, now time.Duration, warm bool, uid, qh, seq uint64) Plan {
	pl := Plan{FinalWarm: warm}
	if in == nil {
		pl.Attempts, pl.Success = 1, true
		return pl
	}
	deadline := now + pol.Deadline
	for attempt := 1; attempt <= pol.MaxAttempts; attempt++ {
		pl.Attempts = attempt
		lost := in.RadioDown(now) || in.LostAttempt(uid, qh, seq, attempt)
		var backendTime time.Duration
		if !lost {
			var adm Admission
			if pr != nil {
				adm = pr.Price(replica, now, uid, qh, seq, attempt)
			}
			switch {
			case adm.Rejected:
				pl.Arrivals = append(pl.Arrivals, Arrival{
					Replica: replica, Attempt: attempt, At: now, Status: ArrivalRejected,
				})
			case !in.EngineError(uid, qh, seq, attempt):
				pl.Success, pl.FinalWarm = true, warm
				pl.FinalQueueWait, pl.FinalService = adm.Wait, adm.Service
				if pr != nil {
					pl.Arrivals = append(pl.Arrivals, Arrival{
						Replica: replica, Attempt: attempt, At: now,
						Wait: adm.Wait, Service: adm.Service, Status: ArrivalServed,
					})
				}
				return pl
			default:
				// Engine error: the replica queued and served the exchange
				// before answering 5xx — the backend time is spent.
				backendTime = adm.Wait + adm.Service
				pl.BackendWait += backendTime
				if pr != nil {
					pl.Arrivals = append(pl.Arrivals, Arrival{
						Replica: replica, Attempt: attempt, At: now,
						Wait: adm.Wait, Service: adm.Service, Status: ArrivalServed,
					})
				}
			}
		}
		cost := radio.FailedAttemptCost(p, warm)
		pl.FailedWait += cost
		pl.FailedActive += cost
		now += cost + backendTime
		warm = true // the failed attempt left the radio promoted
		if attempt == pol.MaxAttempts {
			break
		}
		if pol.Deadline >= 0 && now >= deadline {
			break
		}
		b := pol.Backoff(attempt)
		pl.Backoffs = append(pl.Backoffs, b)
		pl.FailedWait += b
		now += b
		warm = b < p.TailDuration
	}
	pl.FinalWarm = warm
	return pl
}
