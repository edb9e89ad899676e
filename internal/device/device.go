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
// device's clock but SyncClock is charged to exactly one stage
// (DESIGN.md, "Where a response's time goes"). The first
// NumResponseStages are a response's: a serve's time is what it charged
// to them, through the Window its server opened on the response's stage
// vector. Store is device time no user waits on: a miss's expansion
// write and an eviction's rewrite run off the critical path, and the
// device keeps their sum (Stored).
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
	NumStages
)

// NumResponseStages is how many stages a response's time is made of:
// every stage before Store.
const NumResponseStages = int(Store)

var stageNames = [NumStages]string{
	"lookup", "fetch", "render", "misc", "radio", "radio-failed", "backoff", "hedge", "backend", "store",
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

// Profile is one device tier's constants — the device's timing and
// power, its radio technology and its flash part — resolved, so a device
// reads them as they are. Immutable once built: every device of a tier
// reads its constants, and its flash part and link theirs, through one
// pointer to it (the fleet's cohort table builds one per radio tier).
type Profile struct {
	Config Config
	Link   radio.Params
	Flash  flashsim.Params
}

// NewProfile resolves a tier's constants. Zero-value Config fields are
// filled from DefaultConfig, zero-valued flash fields from
// flashsim.DefaultParams.
func NewProfile(cfg Config, link radio.Params, flash flashsim.Params) *Profile {
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
	return &Profile{Config: cfg, Link: link, Flash: flash.Resolve()}
}

// Device is a simulated smartphone: its own state — clock, energy, flash
// part, file store and radio link, held in one allocation — and its
// tier's Profile.
type Device struct {
	p     *Profile
	flash flashsim.Device
	store flashsim.FileStore
	link  radio.Link

	clock time.Duration
	// stored is the device time charged to Store.
	stored time.Duration
	meter  energy.Meter // joules from BasePower over busy time
	// trace is the Figure 16 power trace; nil unless StartTrace ran.
	trace *[]PowerSegment
}

// New creates a device with the given configuration, radio technology
// and flash parameters, on a profile of its own (NewProfile). Zero-value
// Config fields are filled from DefaultConfig.
func New(cfg Config, link radio.Params, flash flashsim.Params) *Device {
	return On(NewProfile(cfg, link, flash))
}

// On creates a device of the tier p describes. p must not change while
// the device lives.
func On(p *Profile) *Device {
	d := &Device{p: p, flash: flashsim.MakeDevice(&p.Flash), link: radio.MakeLink(&p.Link)}
	d.store = flashsim.MakeFileStore(&d.flash)
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.p.Config }

// Flash returns the device's flash part.
func (d *Device) Flash() *flashsim.Device { return &d.flash }

// Store returns the device's flash file store.
func (d *Device) Store() *flashsim.FileStore { return &d.store }

// Link returns the device's radio link.
func (d *Device) Link() *radio.Link { return &d.link }

// Now returns the device's model time.
func (d *Device) Now() time.Duration { return d.clock }

// TotalEnergy returns the joules consumed so far: device baseline over
// busy time plus the radio's extra draw.
func (d *Device) TotalEnergy() float64 { return d.meter.Joules() + d.link.RadioEnergy() }

// StartTrace begins recording power segments for Figure 16.
func (d *Device) StartTrace() { d.trace = new([]PowerSegment) }

// Trace returns the recorded power segments.
func (d *Device) Trace() []PowerSegment {
	if d.trace == nil {
		return nil
	}
	return *d.trace
}

// Stored returns all the time the device has charged to Store.
func (d *Device) Stored() time.Duration { return d.stored }

// Window is a device serving one response: the charges made through it
// book their response-stage time into the response's stage vector, the
// one its server handed Device.Window. A serve that runs inside another
// (a miss's cache exchange inside the fleet's retry ladder) opens its own
// window on its own vector, which the outer serve adds to its vector. The
// device holds nothing of a window, so a vector on its server's stack
// stays there. Store time goes to the device's own sum, in a window or
// not.
type Window struct {
	d *Device
	v *Stages
}

// Window opens a window that books the device's response-stage time into
// v. A nil v books it nowhere: the device's own charge methods (Busy,
// Render, ...) are a nil window's, for work no response waits on.
func (d *Device) Window(v *Stages) Window { return Window{d: d, v: v} }

// charge advances the model clock by dur, charged to stage s at base
// power plus extraWatts: the one place device time is booked.
func (w Window) charge(dur time.Duration, extraWatts float64, s Stage) {
	d := w.d
	if d.trace != nil && dur > 0 {
		*d.trace = append(*d.trace, PowerSegment{
			Start:    d.clock,
			Duration: dur,
			Watts:    d.p.Config.BasePower + extraWatts,
			Stage:    s,
		})
	}
	d.meter.Charge(d.p.Config.BasePower, dur)
	if s == Store {
		d.stored += dur
	} else if w.v != nil {
		w.v[s] += dur
	}
	d.clock += dur
}

// Busy advances the model clock by d with the device active locally
// (CPU/screen on, radio not transmitting), charged to stage s. The
// radio continues its own tail/idle accounting in parallel.
func (w Window) Busy(dur time.Duration, s Stage) {
	if dur <= 0 {
		return
	}
	w.charge(dur, w.d.link.InactiveExtraPower(), s)
	w.d.link.Advance(dur)
}

// NetworkRequest performs a request/response exchange over the radio,
// advancing the model clock by the exchange latency. The device stays
// at base power while waiting (screen on, spinner visible).
func (w Window) NetworkRequest(reqBytes, respBytes int) radio.Transfer {
	tr := w.d.link.Request(reqBytes, respBytes)
	w.charge(tr.Total(), w.d.p.Link.ExtraActivePower, Radio)
	return tr
}

// NetworkFailedRequest models one radio exchange attempt the network
// dropped (an outage, a lost packet, a transient server error): the
// radio pays its full session overhead — wake-up when idle, plus the
// handshake — and the user stares at a spinner for all of it, but no
// payload ever arrives. The model clock and energy advance exactly as
// a successful exchange's overhead would.
func (w Window) NetworkFailedRequest() radio.Transfer {
	tr := w.d.link.FailedRequest()
	w.charge(tr.Total(), w.d.p.Link.ExtraActivePower, RadioFailed)
	return tr
}

// NetworkBatchShare charges this device's membership in a coalesced
// radio exchange (radio.BatchTransfer) computed on a shared uplink:
// the device waits wait of model time at base power (screen on,
// spinner visible) while its link absorbs share of the session's
// radio-active time and is left in the post-transfer tail.
func (w Window) NetworkBatchShare(wait, share time.Duration) {
	if wait < 0 {
		wait = 0
	}
	w.charge(wait, w.d.p.Link.ExtraActivePower, Radio)
	w.d.link.JoinBatch(wait, share)
}

// Render advances the clock by the render latency for a page and
// returns that latency.
func (w Window) Render(pageBytes int) time.Duration {
	lat := w.d.RenderLatency(pageBytes)
	w.Busy(lat, Render)
	return lat
}

// Misc charges the per-query application overhead.
func (w Window) Misc() time.Duration {
	w.Busy(w.d.p.Config.MiscPerQuery, Misc)
	return w.d.p.Config.MiscPerQuery
}

// Busy is Window.Busy charged to no response.
func (d *Device) Busy(dur time.Duration, s Stage) { d.Window(nil).Busy(dur, s) }

// NetworkRequest is Window.NetworkRequest charged to no response.
func (d *Device) NetworkRequest(reqBytes, respBytes int) radio.Transfer {
	return d.Window(nil).NetworkRequest(reqBytes, respBytes)
}

// Render is Window.Render charged to no response.
func (d *Device) Render(pageBytes int) time.Duration { return d.Window(nil).Render(pageBytes) }

// Misc is Window.Misc charged to no response.
func (d *Device) Misc() time.Duration { return d.Window(nil).Misc() }

// RenderLatency models the browser rendering a page of the given size.
func (d *Device) RenderLatency(pageBytes int) time.Duration {
	if pageBytes < 0 {
		pageBytes = 0
	}
	return d.p.Config.RenderBase + time.Duration(pageBytes)*d.p.Config.RenderPerByte
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
	d.stored = 0
	d.meter.Reset()
	d.trace = nil
	d.link.Reset()
	d.flash.ResetStats()
}
