// Package modeltime is the single source of truth for *model time* in
// the serving stack. The paper states every latency and energy number
// in modeled device time, and before this layer existed the stack
// tracked that time in uncoordinated places: each device's own clock,
// the fault planner's per-user view of it, and the load generator's
// wall-only Poisson schedule. This package gives each of those a named
// home:
//
//   - UserClock is one user's virtual model clock — a monotonic view
//     over the user's simulated device, registered on a fleet-wide
//     Timeline. The fleet reads a user's model time and syncs it
//     forward across migrations exclusively through UserClock; no
//     package outside internal/device and this one touches
//     device.SyncClock.
//   - Timeline is the fleet-wide model timeline: the deterministic
//     high-water mark (makespan) over every registered clock, safe for
//     concurrent observation from worker goroutines.
//   - Arrivals (arrivals.go) turns a seed into a model-timestamped
//     arrival schedule: homogeneous Poisson, a diurnal rate curve that
//     preserves the arrival count exactly, or per-user renewal
//     processes merged in deterministic order.
//   - Pacer converts modeled response time into the wall pause a
//     closed-loop runner takes between a user's requests, so fleet
//     capacity can be studied in paper-faithful time. Pacing is
//     wall-clock only by design: it must never perturb model state, so
//     paced and unpaced runs produce byte-identical per-user outcomes.
//
// The one wall-clock wait the serving stack keeps for itself — the
// batch dispatcher's linger window — deliberately stays outside this
// package: it is real time spent serving, not model time.
package modeltime

import (
	"sync/atomic"
	"time"
)

// Clock is anything that exposes a model-time reading.
type Clock interface {
	Now() time.Duration
}

// DeviceClock is the contract a simulated device offers the model-time
// layer: a readable clock plus a monotonic forward sync.
// device.Device satisfies it; SyncClock is documented (and tested) to
// clamp rather than rewind, which is what makes UserClock.SyncForward
// safe to call with any historical timestamp.
type DeviceClock interface {
	Clock
	SyncClock(t time.Duration)
}

// Timeline is a fleet-wide model timeline: the high-water mark over
// every model clock observed on it. Observation is lock-free and
// order-independent (a max is commutative), so the makespan is
// deterministic for a deterministic workload no matter how worker
// goroutines interleave.
type Timeline struct {
	max atomic.Int64
}

// NewTimeline returns an empty timeline at model time zero.
func NewTimeline() *Timeline { return &Timeline{} }

// Observe folds one model-time reading into the high-water mark.
func (tl *Timeline) Observe(t time.Duration) {
	if tl == nil {
		return
	}
	for {
		cur := tl.max.Load()
		if int64(t) <= cur || tl.max.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// Makespan returns the highest model time observed so far — the
// fleet-wide model-time makespan of everything served.
func (tl *Timeline) Makespan() time.Duration {
	if tl == nil {
		return 0
	}
	return time.Duration(tl.max.Load())
}

// UserClock is one user's virtual model clock: a view over the user's
// device clock, registered on a fleet-wide Timeline. It is the only
// sanctioned path from the serving layers to a device's clock — reads
// go through Now, migration hand-offs through SyncForward — so model
// time has exactly one owner per user and one aggregate view per
// fleet.
//
// UserClock adds no locking of its own: callers synchronize access the
// same way they synchronize the underlying device (in the fleet, the
// user's lock stripe, or for a community replica the shard's community
// lock).
type UserClock struct {
	dev DeviceClock
	tl  *Timeline
}

// UserClock registers a user's device clock on the timeline.
func (tl *Timeline) UserClock(dev DeviceClock) *UserClock {
	c := tl.BoundClock(dev)
	return &c
}

// BoundClock is UserClock returning the clock by value, for callers
// that bind a user's clock where they use it instead of heap-allocating
// one clock per user. The value is a valid UserClock; its methods take
// the clock by value, so any copy works.
func (tl *Timeline) BoundClock(dev DeviceClock) UserClock {
	return UserClock{dev: dev, tl: tl}
}

// Now returns the user's current model time.
func (c UserClock) Now() time.Duration { return c.dev.Now() }

// Observe publishes the user's current model time to the timeline.
// Serving paths call it after charging work to the device, so the
// timeline's makespan tracks the furthest-advanced user.
func (c UserClock) Observe() { c.tl.Observe(c.dev.Now()) }

// SyncForward advances the user's model clock monotonically to t and
// publishes the result. A t at or before the current clock is a no-op
// (the device-level monotonic contract), so replaying a stale
// timestamp — a migration import racing a fresher serve — can never
// rewind time.
func (c UserClock) SyncForward(t time.Duration) {
	c.dev.SyncClock(t)
	c.Observe()
}

// Pacer converts a modeled duration into the wall-clock pause a
// closed-loop runner takes between one user's requests: the user
// "experiences" their modeled response time, compressed by Scale so a
// load test finishes in reasonable wall time. The zero value disables
// pacing entirely (Pause always returns 0), which is the unpaced
// as-fast-as-possible protocol.
//
// Pacing is wall-only: it inserts real sleeps between a user's own
// requests and touches no model state, so a paced run's per-user
// outcomes are byte-identical to an unpaced run on the same tape.
type Pacer struct {
	// Scale multiplies the modeled duration to get the wall pause.
	// Zero or negative disables pacing.
	Scale float64
	// MaxPause caps one wall pause. Zero selects DefaultMaxPause.
	MaxPause time.Duration
}

// DefaultMaxPause caps a single paced wall pause so one slow modeled
// response (a multi-second faulted retry ladder) cannot stall a run.
const DefaultMaxPause = 50 * time.Millisecond

// Enabled reports whether the pacer actually paces.
func (p Pacer) Enabled() bool { return p.Scale > 0 }

// Pause returns the wall pause for a modeled duration.
func (p Pacer) Pause(model time.Duration) time.Duration {
	if p.Scale <= 0 || model <= 0 {
		return 0
	}
	max := p.MaxPause
	if max <= 0 {
		max = DefaultMaxPause
	}
	d := time.Duration(float64(model) * p.Scale)
	if d > max {
		d = max
	}
	return d
}
