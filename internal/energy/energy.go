// Package energy is the single source of truth for the simulation's
// power constants and the typed joule accounting every layer charges
// through.
//
// Three layers consume energy, and before this package each kept its
// own ad-hoc float fields and duplicated constants:
//
//   - the radio link (internal/radio): extra active/tail/idle draw on
//     top of the device baseline, per technology;
//   - the device (internal/device): the screen+CPU baseline while the
//     user is busy or waiting;
//   - the fleet (internal/fleet): shards as cloudlet servers with an
//     idle/active power envelope, so a provisioned-but-empty shard
//     still costs joules — the quantity the autoscaler exists to
//     reclaim (Green Cloudlet Network is the reference model).
//
// Two accumulator types cover the two concurrency regimes:
//
//   - Meter: a plain float64 accumulator for single-owner components
//     (one radio link, one device). Its arithmetic is exactly the
//     `j += watts * d.Seconds()` the historic fields used, in the same
//     call order, so the refactor is bit-identical.
//   - Counter: a fixed-point (nanojoule) atomic counter for the fleet,
//     where many workers charge concurrently. Each Add rounds its
//     contribution to integer nanojoules independently and the integer
//     adds commute, so totals are independent of worker interleaving —
//     the same determinism discipline as modeltime.Timeline.
package energy

import (
	"math"
	"sync/atomic"
	"time"
)

// RadioPower is the energy-relevant parameter slice of one radio
// technology: the extra draw (on top of the device baseline) in each
// link state, and how long the post-transfer tail lasts.
type RadioPower struct {
	// ExtraActiveW is the added draw while transmitting or receiving.
	ExtraActiveW float64
	// ExtraTailW is the added draw during the post-transfer tail.
	ExtraTailW float64
	// ExtraIdleW is the added draw while idle (paging, beacons).
	ExtraIdleW float64
	// TailDuration is how long the link lingers in Tail after a
	// transfer before demoting to Idle.
	TailDuration time.Duration
}

// The built-in technologies, calibrated to the paper's Figure 15b/16
// energy measurements. internal/radio composes these with its latency
// parameters; nothing else may restate the numbers.

// Radio3G is the 3G (UMTS/HSPA) power envelope.
func Radio3G() RadioPower {
	return RadioPower{
		ExtraActiveW: 0.45,
		ExtraTailW:   0.30,
		ExtraIdleW:   0.01,
		TailDuration: 5 * time.Second,
	}
}

// RadioEDGE is the EDGE (2.75G) power envelope.
func RadioEDGE() RadioPower {
	return RadioPower{
		ExtraActiveW: 0.55,
		ExtraTailW:   0.30,
		ExtraIdleW:   0.01,
		TailDuration: 5 * time.Second,
	}
}

// RadioWiFi is the 802.11g power envelope.
func RadioWiFi() RadioPower {
	return RadioPower{
		ExtraActiveW: 0.65,
		ExtraTailW:   0.25,
		ExtraIdleW:   0.02,
		TailDuration: 2 * time.Second,
	}
}

// DeviceBaseW is the screen+CPU draw while the device is in use, in
// watts. Figure 16 shows ~900 mW during local serving.
const DeviceBaseW = 0.9

// ShardPower is the power envelope of one fleet shard modeled as a
// cloudlet server: a constant idle draw for as long as the shard is
// provisioned, plus an active increment while it is serving.
// DefaultShardPower describes a small edge server, not a phone — provisioning a
// shard that serves nothing still costs IdleW continuously, which is
// exactly the waste an occupancy-driven autoscaler reclaims on the
// trough of the diurnal curve.
type ShardPower struct {
	// IdleW is the draw of a provisioned shard doing nothing, in watts.
	IdleW float64
	// ActiveW is the draw while serving; the increment over IdleW is
	// integrated over the shard's busy time.
	ActiveW float64
}

// DefaultShardPower is the cloudlet-server envelope every fleet shard
// draws.
func DefaultShardPower() ShardPower {
	return ShardPower{IdleW: 10, ActiveW: 25}
}

// IdleJ is the joules a shard draws over a provisioned window,
// independent of load.
func (p ShardPower) IdleJ(provisioned time.Duration) float64 {
	return Integrate(p.IdleW, provisioned)
}

// ActiveJ is the joules a shard draws on top of idle over its busy
// time.
func (p ShardPower) ActiveJ(busy time.Duration) float64 {
	return Integrate(p.ActiveW-p.IdleW, busy)
}

// Integrate is the one power-integration formula in the system:
// watts over a model-time interval. Every energy charge — radio,
// device and shard — reduces to it, so refactored call sites stay
// bit-identical with the historic inline `watts * d.Seconds()`.
func Integrate(watts float64, d time.Duration) float64 {
	return watts * d.Seconds()
}

// Meter is a sequential joule accumulator for a single-owner component
// (a radio link, a device). It is intentionally a plain float64 with
// no locking: the owners are single-threaded under their model clocks,
// and float addition in call order preserves the exact historic sums.
type Meter struct {
	j float64
}

// Charge integrates watts over d and adds the joules.
func (m *Meter) Charge(watts float64, d time.Duration) {
	m.j += Integrate(watts, d)
}

// Add adds a precomputed joule amount.
func (m *Meter) Add(j float64) { m.j += j }

// Joules returns the accumulated total.
func (m *Meter) Joules() float64 { return m.j }

// Reset clears the meter.
func (m *Meter) Reset() { m.j = 0 }

// Nanojoules is the one rounding of a joule amount in the system: to
// the nearest integer nanojoule, the fixed-point unit every joule
// account (a Counter, loadgen's Collector) sums in, so two accounts of
// the same responses agree exactly.
func Nanojoules(j float64) int64 { return int64(math.Round(j * 1e9)) }

// Joules converts a nanojoule sum to joules.
func Joules(nj int64) float64 { return float64(nj) / 1e9 }

// Counter is a concurrency-safe joule counter in fixed-point
// nanojoules. Each Add converts its contribution to integer
// nanojoules independently; the integer additions commute and
// associate, so the total is deterministic under any worker
// interleaving (unlike accumulating float64s, where summation order
// changes the low bits).
type Counter struct {
	nj atomic.Int64
}

// Add accumulates j joules. Adding nothing writes nothing: a request
// that used no radio leaves the radio counter's cache line alone.
func (c *Counter) Add(j float64) {
	if nj := Nanojoules(j); nj != 0 {
		c.nj.Add(nj)
	}
}

// Charge integrates watts over d and accumulates the joules.
func (c *Counter) Charge(watts float64, d time.Duration) {
	c.Add(Integrate(watts, d))
}

// Joules returns the accumulated total.
func (c *Counter) Joules() float64 {
	return Joules(c.nj.Load())
}

// Merge adds o's total to c as integer nanojoules — no rounding, so a
// sum of counters reads exactly what one counter charged with all of
// their Adds would.
func (c *Counter) Merge(o *Counter) {
	if nj := o.nj.Load(); nj != 0 {
		c.nj.Add(nj)
	}
}

// Ledger groups a fleet's atomic joule counters by origin, so one
// cross-footable breakdown — device radios, device baselines, shard
// idle floor, shard active increment — comes out of a single API
// instead of being reassembled from per-package fields.
type Ledger struct {
	// Radio is the devices' extra radio draw (active shares, tails)
	// on the cloud-miss path.
	Radio Counter
	// DeviceBase is the devices' baseline draw over modeled response
	// time.
	DeviceBase Counter
	// ShardIdle is the shards' provisioned idle floor. Retired shards'
	// integrals are folded in when they leave the fleet; live shards'
	// accrue lazily against the model timeline at snapshot time.
	ShardIdle Counter
	// ShardActive is the shards' active increment over busy time.
	ShardActive Counter
}

// Merge adds every counter of o into l, as integers (Counter.Merge): a
// fleet keeps one ledger per shard, so that serving a request writes no
// fleet-wide counter, and reads them merged.
func (l *Ledger) Merge(o *Ledger) {
	l.Radio.Merge(&o.Radio)
	l.DeviceBase.Merge(&o.DeviceBase)
	l.ShardIdle.Merge(&o.ShardIdle)
	l.ShardActive.Merge(&o.ShardActive)
}

// Snapshot is a point-in-time ledger reading, in joules.
type Snapshot struct {
	RadioJ       float64
	DeviceBaseJ  float64
	ShardIdleJ   float64
	ShardActiveJ float64
}

// Snapshot reads every counter.
func (l *Ledger) Snapshot() Snapshot {
	return Snapshot{
		RadioJ:       l.Radio.Joules(),
		DeviceBaseJ:  l.DeviceBase.Joules(),
		ShardIdleJ:   l.ShardIdle.Joules(),
		ShardActiveJ: l.ShardActive.Joules(),
	}
}

// ShardJ is the fleet-side total: idle floor plus active increment.
func (s Snapshot) ShardJ() float64 { return s.ShardIdleJ + s.ShardActiveJ }

// TotalJ is the whole-system total across device and fleet sides.
func (s Snapshot) TotalJ() float64 {
	return s.RadioJ + s.DeviceBaseJ + s.ShardJ()
}
