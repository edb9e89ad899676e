// Package device models the mobile device hosting pocket cloudlets: a
// power baseline for the screen/CPU, a browser rendering cost, a
// DRAM/PCM/NAND memory hierarchy, and the composition of the flash
// storage (internal/flashsim) and radio link (internal/radio) models
// under a single model clock with joint energy accounting.
//
// The model is calibrated to the paper's prototype measurements: a
// cache hit costs ~378 ms end to end, dominated by 361 ms of browser
// rendering (Table 4); the device draws ~900 mW while serving locally
// and ~1.4-1.5 W with the radio active (Figure 16).
package device

import (
	"time"

	"pocketcloudlets/internal/energy"
	"pocketcloudlets/internal/flashsim"
	"pocketcloudlets/internal/radio"
)

// Config sets the device's timing and power constants.
type Config struct {
	// BasePower is the screen+CPU draw while the device is in use, in
	// watts. Figure 16 shows ~900 mW during local serving.
	BasePower float64
	// RenderBase is the fixed browser cost to lay out a result page.
	RenderBase time.Duration
	// RenderPerByte is the marginal render cost per byte of page
	// content. With the defaults a ~100 KB search result page renders
	// in ~361 ms, matching Table 4.
	RenderPerByte time.Duration
	// MiscPerQuery is the application overhead per query outside of
	// lookup, fetch and render (Table 4's 7 ms "miscellaneous" row).
	MiscPerQuery time.Duration
	// DRAMBandwidth and PCMBandwidth are bulk-copy rates used by the
	// Section 3.3 index-placement ablation, in bytes per second.
	DRAMBandwidth float64
	PCMBandwidth  float64
}

// DefaultConfig returns the paper-calibrated constants. The power
// baseline comes from internal/energy, the single source of truth for
// the power constants.
func DefaultConfig() Config {
	return Config{
		BasePower:     energy.DeviceBaseW,
		RenderBase:    200 * time.Millisecond,
		RenderPerByte: 1610 * time.Nanosecond,
		MiscPerQuery:  7 * time.Millisecond,
		DRAMBandwidth: 1e9,
		PCMBandwidth:  300e6,
	}
}

// Stage is what a span of device time was spent on. Every advance of a
// device's clock but SyncClock is charged to exactly one stage, and the
// device keeps a running total per stage (DESIGN.md, "Where a response's
// time goes"). The first NumResponseStages are a response's: a serve's
// time is what it charged to them. Store and Boot are device time no
// user waits on — a miss's expansion write and an eviction's rewrite run
// off the critical path, and the index loads before the first query.
type Stage uint8

const (
	Lookup      Stage = iota // the hash-table lookup (Table 4)
	Fetch                    // reading result records from flash (Table 4)
	Render                   // the browser laying out the page (Table 4)
	Misc                     // the per-query application overhead (Table 4)
	Radio                    // an exchange that carried the page, solo or a batch member's wait
	RadioFailed              // an exchange attempt the network dropped
	Backoff                  // a retry's wait before its next attempt
	Hedge                    // a clone win's launch stagger
	Backend                  // queue and service time at the cloud replica
	Store                    // flash writes: cache expansion, eviction, updates
	Boot                     // loading the index at power-on (Section 3.3)
	NumStages
)

// NumResponseStages is how many stages a response's time is made of:
// every stage before Store.
const NumResponseStages = int(Store)

var stageNames = [NumStages]string{
	"lookup", "fetch", "render", "misc", "radio", "radio-failed", "backoff", "hedge", "backend", "store", "boot",
}

func (s Stage) String() string { return stageNames[s] }

// Stages is a response's time by stage: what one serve charged to each
// response stage of the devices that served it.
type Stages [NumResponseStages]time.Duration

// Total is the response time: the sum of the stages.
func (s *Stages) Total() time.Duration { return sum(s[:]) }

// Add adds o's stages to s: a response served by two devices.
func (s *Stages) Add(o *Stages) {
	for i, d := range o {
		s[i] += d
	}
}

// Network is the part of the response time spent on the cloud: the
// stages from Radio on, in which the device only waits.
func (s *Stages) Network() time.Duration { return sum(s[Radio:]) }

func sum(ds []time.Duration) (t time.Duration) {
	for _, d := range ds {
		t += d
	}
	return t
}

// PowerSegment is one piece of a device power trace (Figure 16): the
// total device draw over an interval of model time, and the stage it
// was charged to.
type PowerSegment struct {
	Start    time.Duration
	Duration time.Duration
	Watts    float64
	Stage    Stage
}

// End returns the model time at which the segment finishes.
func (s PowerSegment) End() time.Duration { return s.Start + s.Duration }

// Device is a simulated smartphone.
type Device struct {
	cfg   Config
	flash *flashsim.Device
	store *flashsim.FileStore
	link  *radio.Link

	clock   time.Duration
	meter   energy.Meter // joules from BasePower over busy time
	stages  [NumStages]time.Duration
	trace   []PowerSegment
	tracing bool
}

// New creates a device with the given configuration, radio technology
// and flash parameters. Zero-value Config fields are filled from
// DefaultConfig.
func New(cfg Config, link radio.Params, flash flashsim.Params) *Device {
	def := DefaultConfig()
	if cfg.BasePower <= 0 {
		cfg.BasePower = def.BasePower
	}
	if cfg.RenderBase <= 0 {
		cfg.RenderBase = def.RenderBase
	}
	if cfg.RenderPerByte <= 0 {
		cfg.RenderPerByte = def.RenderPerByte
	}
	if cfg.MiscPerQuery <= 0 {
		cfg.MiscPerQuery = def.MiscPerQuery
	}
	if cfg.DRAMBandwidth <= 0 {
		cfg.DRAMBandwidth = def.DRAMBandwidth
	}
	if cfg.PCMBandwidth <= 0 {
		cfg.PCMBandwidth = def.PCMBandwidth
	}
	fd := flashsim.NewDevice(flash)
	return &Device{
		cfg:   cfg,
		flash: fd,
		store: flashsim.NewFileStore(fd),
		link:  radio.NewLink(link),
	}
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Flash returns the device's flash part.
func (d *Device) Flash() *flashsim.Device { return d.flash }

// Store returns the device's flash file store.
func (d *Device) Store() *flashsim.FileStore { return d.store }

// Link returns the device's radio link.
func (d *Device) Link() *radio.Link { return d.link }

// Now returns the device's model time.
func (d *Device) Now() time.Duration { return d.clock }

// TotalEnergy returns the joules consumed so far: device baseline over
// busy time plus the radio's extra draw.
func (d *Device) TotalEnergy() float64 { return d.meter.Joules() + d.link.RadioEnergy() }

// StartTrace begins recording power segments for Figure 16.
func (d *Device) StartTrace() {
	d.tracing = true
	d.trace = nil
}

// Trace returns the recorded power segments.
func (d *Device) Trace() []PowerSegment { return d.trace }

// Stages returns the device's running totals on the response stages. A
// serve reads them before it starts and hands them to Since when it is
// done.
func (d *Device) Stages() Stages { return Stages(d.stages[:NumResponseStages]) }

// Since returns the response-stage time charged since the device's
// totals were mark.
func (d *Device) Since(mark Stages) Stages {
	for i := range mark {
		mark[i] = d.stages[i] - mark[i]
	}
	return mark
}

// StageTotal returns all the time the device has charged to s.
func (d *Device) StageTotal(s Stage) time.Duration { return d.stages[s] }

// charge advances the model clock by dur, charged to stage s at base
// power plus extraWatts: the one place device time is booked.
func (d *Device) charge(dur time.Duration, extraWatts float64, s Stage) {
	if d.tracing && dur > 0 {
		d.trace = append(d.trace, PowerSegment{
			Start:    d.clock,
			Duration: dur,
			Watts:    d.cfg.BasePower + extraWatts,
			Stage:    s,
		})
	}
	d.meter.Charge(d.cfg.BasePower, dur)
	d.stages[s] += dur
	d.clock += dur
}

// Busy advances the model clock by d with the device active locally
// (CPU/screen on, radio not transmitting), charged to stage s. The
// radio continues its own tail/idle accounting in parallel.
func (d *Device) Busy(dur time.Duration, s Stage) {
	if dur <= 0 {
		return
	}
	d.charge(dur, d.link.InactiveExtraPower(), s)
	d.link.Advance(dur)
}

// NetworkRequest performs a request/response exchange over the radio,
// advancing the model clock by the exchange latency. The device stays
// at base power while waiting (screen on, spinner visible).
func (d *Device) NetworkRequest(reqBytes, respBytes int) radio.Transfer {
	tr := d.link.Request(reqBytes, respBytes)
	d.charge(tr.Total(), d.link.Params().ExtraActivePower, Radio)
	return tr
}

// NetworkFailedRequest models one radio exchange attempt the network
// dropped (an outage, a lost packet, a transient server error): the
// radio pays its full session overhead — wake-up when idle, plus the
// handshake — and the user stares at a spinner for all of it, but no
// payload ever arrives. The model clock and energy advance exactly as
// a successful exchange's overhead would.
func (d *Device) NetworkFailedRequest() radio.Transfer {
	tr := d.link.FailedRequest()
	d.charge(tr.Total(), d.link.Params().ExtraActivePower, RadioFailed)
	return tr
}

// NetworkBatchShare charges this device's membership in a coalesced
// radio exchange (radio.BatchTransfer) computed on a shared uplink:
// the device waits wait of model time at base power (screen on,
// spinner visible) while its link absorbs share of the session's
// radio-active time and is left in the post-transfer tail.
func (d *Device) NetworkBatchShare(wait, share time.Duration) {
	if wait < 0 {
		wait = 0
	}
	d.charge(wait, d.link.Params().ExtraActivePower, Radio)
	d.link.JoinBatch(wait, share)
}

// RenderLatency models the browser rendering a page of the given size.
func (d *Device) RenderLatency(pageBytes int) time.Duration {
	if pageBytes < 0 {
		pageBytes = 0
	}
	return d.cfg.RenderBase + time.Duration(pageBytes)*d.cfg.RenderPerByte
}

// Render advances the clock by the render latency for a page and
// returns that latency.
func (d *Device) Render(pageBytes int) time.Duration {
	lat := d.RenderLatency(pageBytes)
	d.Busy(lat, Render)
	return lat
}

// Misc charges the per-query application overhead.
func (d *Device) Misc() time.Duration {
	d.Busy(d.cfg.MiscPerQuery, Misc)
	return d.cfg.MiscPerQuery
}

// SyncClock advances the model clock to t without charging energy.
//
// Monotonic contract: the clock never rewinds. A t at or before the
// current clock is a clamp — a guaranteed no-op, not an error — so a
// caller replaying a historical timestamp (a migration import racing a
// fresher serve) can never move model time backwards; internal/modeltime
// builds UserClock.SyncForward on this guarantee and is the only
// package outside this one that may call SyncClock (enforced by test).
//
// State migration hands a user's records to a fresh device whose clock
// must not run behind the state it inherited — the user was not
// holding this device on during the transfer, so no busy time is
// billed; the radio link still observes the gap so its tail/idle state
// stays consistent.
func (d *Device) SyncClock(t time.Duration) {
	if gap := t - d.clock; gap > 0 {
		d.link.Advance(gap)
		d.clock = t
	}
}

// Reset returns the device to model time zero with energy and trace
// cleared. Flash contents are preserved; the radio link is reset.
func (d *Device) Reset() {
	d.clock = 0
	d.meter.Reset()
	d.stages = [NumStages]time.Duration{}
	d.trace = nil
	d.tracing = false
	d.link.Reset()
	d.flash.ResetStats()
}
