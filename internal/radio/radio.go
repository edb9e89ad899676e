// Package radio models the wireless links of a late-2000s smartphone:
// 3G (UMTS/HSPA), EDGE and 802.11g WiFi.
//
// The model captures the two properties the Pocket Cloudlets paper
// identifies as the mobile bottleneck (Section 1): a radio that is idle
// must first be woken up — a 1.5–2 s promotion that is independent of
// link throughput — and small request/response exchanges are dominated
// by round-trip latency rather than bandwidth. A link is a small state
// machine (Idle → Wakeup → Active → Tail → Idle) driven by a model
// clock; each request reports the modeled latency decomposition and the
// radio-power segments needed for energy accounting (Figures 15b, 16).
package radio

import (
	"fmt"
	"time"

	"pocketcloudlets/internal/energy"
)

// State is the radio state at a point in model time.
type State int

const (
	// Idle: radio in its low-power standby state.
	Idle State = iota
	// Active: radio transmitting or receiving.
	Active
	// Tail: radio holding its high-power channel after a transfer,
	// awaiting demotion back to idle.
	Tail
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Idle:
		return "idle"
	case Active:
		return "active"
	case Tail:
		return "tail"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Params describes one link technology.
type Params struct {
	Name string
	// WakeupLatency is the idle→active promotion time. The paper cites
	// 1.5–2 s for cellular radios and notes it is expected to persist
	// across radio generations.
	WakeupLatency time.Duration
	// RTT is one network round trip to the service.
	RTT time.Duration
	// HandshakeRTTs is the number of round trips a request costs before
	// payload flows (DNS, TCP, TLS/HTTP request — the paper's "users
	// exchange small data packets, making link latency the bottleneck").
	HandshakeRTTs int
	// UplinkBps and DownlinkBps are effective payload throughputs in
	// bytes per second.
	UplinkBps   float64
	DownlinkBps float64
	// ExtraActivePower is the radio's added power draw while active,
	// on top of the device baseline.
	ExtraActivePower float64 // watts
	// ExtraTailPower is the added draw during the post-transfer tail.
	ExtraTailPower float64 // watts
	// ExtraIdlePower is the added draw while idle (paging, beacons).
	ExtraIdlePower float64 // watts
	// TailDuration is how long the link lingers in Tail after a
	// transfer before demoting to Idle. A request issued within the
	// tail skips the wakeup — this is why the second of ten
	// back-to-back 3G queries in Figure 16 is faster than the first.
	TailDuration time.Duration
}

// The built-in technologies, calibrated so a PocketSearch miss (a
// ~100 KB search-result page fetched after a ~800 B query) reproduces
// the paper's measured user response times of Figure 15a — roughly
// 6 s over 3G, 9.5 s over EDGE and 2.6 s over 802.11g against the 378 ms
// cache hit — and the Figure 15b energy ratios.

// withPower fills a Params' energy fields from the technology's
// power envelope in internal/energy — the single source of truth for
// the power constants.
func (p Params) withPower(pw energy.RadioPower) Params {
	p.ExtraActivePower = pw.ExtraActiveW
	p.ExtraTailPower = pw.ExtraTailW
	p.ExtraIdlePower = pw.ExtraIdleW
	p.TailDuration = pw.TailDuration
	return p
}

// ThreeG returns the 3G (UMTS/HSPA) parameter set.
func ThreeG() Params {
	return Params{
		Name:          "3G",
		WakeupLatency: 2000 * time.Millisecond,
		RTT:           475 * time.Millisecond,
		HandshakeRTTs: 4,
		UplinkBps:     8e3,  // ~64 kbit/s effective uplink
		DownlinkBps:   60e3, // ~480 kbit/s effective downlink
	}.withPower(energy.Radio3G())
}

// EDGE returns the EDGE (2.75G) parameter set.
func EDGE() Params {
	return Params{
		Name:          "Edge",
		WakeupLatency: 2000 * time.Millisecond,
		RTT:           700 * time.Millisecond,
		HandshakeRTTs: 4,
		UplinkBps:     3.75e3, // ~30 kbit/s
		DownlinkBps:   25e3,   // ~200 kbit/s
	}.withPower(energy.RadioEDGE())
}

// WiFi returns the 802.11g parameter set. The wakeup term models the
// extra steps the paper notes make WiFi "not instantly available":
// waking from power-save, scanning and (re)associating with an access
// point before the first packet flows.
func WiFi() Params {
	return Params{
		Name:          "802.11g",
		WakeupLatency: 1550 * time.Millisecond,
		RTT:           100 * time.Millisecond,
		HandshakeRTTs: 4,
		UplinkBps:     125e3, // ~1 Mbit/s
		DownlinkBps:   400e3, // ~3.2 Mbit/s
	}.withPower(energy.RadioWiFi())
}

// Technologies returns every built-in link parameter set.
func Technologies() []Params { return []Params{ThreeG(), EDGE(), WiFi()} }

// ActiveEnergy returns the radio energy of holding the link in the
// Active state for d.
func (p Params) ActiveEnergy(d time.Duration) float64 {
	return energy.Integrate(p.ExtraActivePower, d)
}

// TailEnergy returns the energy of one full post-transfer tail — the
// cost every radio session eventually pays once, however many
// exchanges it carried. Together with the wakeup this is the session
// overhead the paper's batching argument amortizes.
func (p Params) TailEnergy() float64 {
	return energy.Integrate(p.ExtraTailPower, p.TailDuration)
}

// Transfer is the modeled outcome of one request/response exchange.
type Transfer struct {
	// Wakeup is the promotion latency paid (zero if the link was warm).
	Wakeup time.Duration
	// Handshake is the connection-establishment round-trip time.
	Handshake time.Duration
	// Payload is the request upload plus response download time.
	Payload time.Duration
	// RadioActive is the time the radio spent in Active state,
	// including the wakeup.
	RadioActive time.Duration
	// WasWarm reports whether the link skipped the wakeup.
	WasWarm bool
	// Failed reports that the exchange attempt carried no payload: the
	// network dropped it (or the far end errored) after the radio had
	// already paid the session overhead.
	Failed bool
}

// Total is the end-to-end network latency of the exchange.
func (t Transfer) Total() time.Duration { return t.Wakeup + t.Handshake + t.Payload }

// Link is a radio link instance with its own model clock. It reads its
// technology's constants through a pointer, so the links of one tier
// share one Params (internal/device's Profile).
type Link struct {
	params *Params
	now    time.Duration // model time
	// tailEnds is the model time at which the current tail expires;
	// zero or past means the link is idle.
	tailEnds time.Duration
	// meter accumulates the radio-only energy in joules.
	meter energy.Meter
	// accounting
	activeTime time.Duration
	wakeups    int
}

// NewLink creates a link in the Idle state at model time zero.
func NewLink(p Params) *Link {
	l := MakeLink(&p)
	return &l
}

// MakeLink returns a link in the Idle state at model time zero, by value
// for embedding, that reads its constants through p: parameters that
// must not change while the link lives.
func MakeLink(p *Params) Link { return Link{params: p} }

// Params returns the link's technology parameters.
func (l *Link) Params() Params { return *l.params }

// Now returns the link's current model time.
func (l *Link) Now() time.Duration { return l.now }

// State reports the link state at the current model time.
func (l *Link) State() State {
	if l.now < l.tailEnds {
		return Tail
	}
	return Idle
}

// InactiveExtraPower returns the radio's extra draw while it is not
// transferring, at the current model time: the tail power while the
// post-transfer tail lasts, the idle power afterwards.
func (l *Link) InactiveExtraPower() float64 {
	if l.State() == Tail {
		return l.params.ExtraTailPower
	}
	return l.params.ExtraIdlePower
}

// TailRemaining returns how much of the post-transfer tail is left at
// the current model time — zero when the link is idle. The hedging
// planner (internal/faults.PlanHedged) uses it to decide whether a
// staggered clone dispatch will still find the radio warm.
func (l *Link) TailRemaining() time.Duration {
	if d := l.tailEnds - l.now; d > 0 {
		return d
	}
	return 0
}

// RadioEnergy returns the accumulated radio-only energy in joules
// (excluding the device baseline, which internal/device adds).
func (l *Link) RadioEnergy() float64 { return l.meter.Joules() }

// ActiveTime returns the cumulative time spent in the Active state.
func (l *Link) ActiveTime() time.Duration { return l.activeTime }

// Wakeups returns how many idle→active promotions the link performed.
func (l *Link) Wakeups() int { return l.wakeups }

func transferTime(bytes int, bps float64) time.Duration {
	if bytes <= 0 || bps <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / bps * float64(time.Second))
}

// FailedAttemptCost is the modeled duration of one failed exchange
// attempt under p: the wake-up (when the link starts cold) plus the
// handshake round trips. No payload moves, but the radio was fully
// active for all of it — the fault model's "you pay for the radio even
// when the network drops you".
func FailedAttemptCost(p Params, warm bool) time.Duration {
	d := time.Duration(p.HandshakeRTTs) * p.RTT
	if !warm {
		d += p.WakeupLatency
	}
	return d
}

// ExchangeCost models one request/response exchange under p without a
// live link, with the link's warmth supplied by the caller. The
// arithmetic mirrors Link.Request exactly, so a transfer planned
// analytically (internal/faults) matches what a live link would have
// charged.
func ExchangeCost(p Params, reqBytes, respBytes int, warm bool) Transfer {
	t := Transfer{
		Handshake: time.Duration(p.HandshakeRTTs) * p.RTT,
		Payload:   transferTime(reqBytes, p.UplinkBps) + transferTime(respBytes, p.DownlinkBps),
		WasWarm:   warm,
	}
	if !warm {
		t.Wakeup = p.WakeupLatency
	}
	t.RadioActive = t.Wakeup + t.Handshake + t.Payload
	return t
}

// Request models sending reqBytes upstream and receiving respBytes
// downstream at the current model time, advancing the clock by the
// exchange's total latency and accounting the radio energy.
func (l *Link) Request(reqBytes, respBytes int) Transfer {
	t := Transfer{
		Handshake: time.Duration(l.params.HandshakeRTTs) * l.params.RTT,
		Payload:   transferTime(reqBytes, l.params.UplinkBps) + transferTime(respBytes, l.params.DownlinkBps),
	}
	if l.State() == Idle {
		t.Wakeup = l.params.WakeupLatency
		l.wakeups++
	} else {
		t.WasWarm = true
	}
	t.RadioActive = t.Wakeup + t.Handshake + t.Payload
	l.meter.Charge(l.params.ExtraActivePower, t.RadioActive)
	l.activeTime += t.RadioActive
	l.now += t.Total()
	l.tailEnds = l.now + l.params.TailDuration
	return t
}

// FailedRequest models an exchange attempt the network dropped: the
// link pays the full session overhead — the wake-up when it was idle,
// plus the handshake — with nothing to show for it, and is left in its
// post-attempt tail (the radio was promoted; it demotes on its own).
// The clock and energy advance exactly as Request's overhead would;
// only the payload never flows.
func (l *Link) FailedRequest() Transfer {
	t := Transfer{
		Handshake: time.Duration(l.params.HandshakeRTTs) * l.params.RTT,
		Failed:    true,
	}
	if l.State() == Idle {
		t.Wakeup = l.params.WakeupLatency
		l.wakeups++
	} else {
		t.WasWarm = true
	}
	t.RadioActive = t.Wakeup + t.Handshake
	l.meter.Charge(l.params.ExtraActivePower, t.RadioActive)
	l.activeTime += t.RadioActive
	l.now += t.Total()
	l.tailEnds = l.now + l.params.TailDuration
	return t
}

// Advance moves the model clock forward by d with the radio inactive,
// charging tail power while the tail lasts and idle power afterwards.
func (l *Link) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	end := l.now + d
	if l.now < l.tailEnds {
		tail := l.tailEnds - l.now
		if tail > d {
			tail = d
		}
		l.meter.Charge(l.params.ExtraTailPower, tail)
		l.meter.Charge(l.params.ExtraIdlePower, d-tail)
	} else {
		l.meter.Charge(l.params.ExtraIdlePower, d)
	}
	l.now = end
}

// Reset returns the link to Idle at model time zero with counters cleared.
func (l *Link) Reset() { *l = Link{params: l.params} }

// Exchange is one request/response size pair of a batched transfer.
type Exchange struct {
	ReqBytes  int
	RespBytes int
}

// BatchTransfer is the modeled outcome of a coalesced exchange: n
// request/response pairs sharing one radio session. The wake-up and
// the connection handshake are paid once for the whole batch, then the
// payloads are serialized over the link in batch order, so item i's
// response lands only after every earlier item's payload. The
// post-transfer tail is likewise entered once. This is the paper's
// amortization argument made explicit: for small transfers nearly all
// of the radio time — and therefore energy — is session overhead, and
// overhead divided by n vanishes as batches grow.
type BatchTransfer struct {
	// Wakeup is the promotion latency paid once (zero if the session
	// started warm).
	Wakeup time.Duration
	// Handshake is the connection-establishment time, paid once.
	Handshake time.Duration
	// Payloads holds each item's upload-plus-download time, in batch
	// order.
	Payloads []time.Duration
	// WasWarm reports whether the session skipped the wakeup.
	WasWarm bool
}

// Size returns the number of items in the batch.
func (b BatchTransfer) Size() int { return len(b.Payloads) }

// Overhead is the per-session latency shared by every item: the
// wake-up plus the handshake.
func (b BatchTransfer) Overhead() time.Duration { return b.Wakeup + b.Handshake }

// TotalPayload is the serialized transfer time of all items.
func (b BatchTransfer) TotalPayload() time.Duration {
	var sum time.Duration
	for _, p := range b.Payloads {
		sum += p
	}
	return sum
}

// Total is the end-to-end latency of the whole session.
func (b BatchTransfer) Total() time.Duration { return b.Overhead() + b.TotalPayload() }

// ItemLatency is the modeled latency until item i's response has
// landed: the shared overhead plus every payload through item i.
func (b BatchTransfer) ItemLatency(i int) time.Duration {
	lat := b.Overhead()
	for j := 0; j <= i && j < len(b.Payloads); j++ {
		lat += b.Payloads[j]
	}
	return lat
}

// ItemShare is the radio-active time attributed to item i: its own
// payload plus an equal 1/n share of the session overhead. The shares
// sum to the session's total active time.
func (b BatchTransfer) ItemShare(i int) time.Duration {
	if len(b.Payloads) == 0 || i < 0 || i >= len(b.Payloads) {
		return 0
	}
	return b.Overhead()/time.Duration(len(b.Payloads)) + b.Payloads[i]
}

// SessionRadioEnergy is the radio energy of the whole session under p,
// including the attributed post-transfer tail.
func (b BatchTransfer) SessionRadioEnergy(p Params) float64 {
	return p.ActiveEnergy(b.Total()) + p.TailEnergy()
}

// ItemRadioEnergy is the radio energy attributed to item i under p:
// active power over the item's share plus 1/n of the tail.
func (b BatchTransfer) ItemRadioEnergy(p Params, i int) float64 {
	if len(b.Payloads) == 0 {
		return 0
	}
	return p.ActiveEnergy(b.ItemShare(i)) + p.TailEnergy()/float64(len(b.Payloads))
}

// BatchExchange models a coalesced exchange under p without a live
// link: the session starts cold (it always pays the wake-up). This is
// the form the fleet's miss dispatcher uses — its shared uplink sleeps
// between linger windows, so every session starts from Idle. An empty
// batch is a no-op: no session is opened and the zero BatchTransfer is
// returned (no wake-up is charged for nothing).
func BatchExchange(p Params, items []Exchange) BatchTransfer {
	if len(items) == 0 {
		return BatchTransfer{}
	}
	b := BatchTransfer{
		Wakeup:    p.WakeupLatency,
		Handshake: time.Duration(p.HandshakeRTTs) * p.RTT,
		Payloads:  make([]time.Duration, len(items)),
	}
	for i, it := range items {
		b.Payloads[i] = transferTime(it.ReqBytes, p.UplinkBps) + transferTime(it.RespBytes, p.DownlinkBps)
	}
	return b
}

// RequestBatch models a coalesced exchange on this link: n
// request/response pairs in one radio session, paying the wake-up (if
// the link is idle), the handshake and the tail once. The clock
// advances by the session total and the link is left in Tail — the
// single-device analogue of the fleet's miss coalescing (a phone
// flushing several deferred misses in one session). An empty batch is
// a no-op: the link state, clock and counters are untouched and the
// zero BatchTransfer is returned.
func (l *Link) RequestBatch(items []Exchange) BatchTransfer {
	if len(items) == 0 {
		return BatchTransfer{}
	}
	b := BatchTransfer{
		Handshake: time.Duration(l.params.HandshakeRTTs) * l.params.RTT,
		Payloads:  make([]time.Duration, len(items)),
	}
	for i, it := range items {
		b.Payloads[i] = transferTime(it.ReqBytes, l.params.UplinkBps) + transferTime(it.RespBytes, l.params.DownlinkBps)
	}
	if l.State() == Idle {
		b.Wakeup = l.params.WakeupLatency
		l.wakeups++
	} else {
		b.WasWarm = true
	}
	active := b.Total()
	l.meter.Charge(l.params.ExtraActivePower, active)
	l.activeTime += active
	l.now += active
	l.tailEnds = l.now + l.params.TailDuration
	return b
}

// JoinBatch accounts this link's membership in a batched exchange
// whose session ran on a shared uplink: the device waited wait of
// model time for its response and is attributed share of the session's
// radio-active time. The link is left in its post-transfer tail. The
// session's wake-up is owned by the uplink, so this link's own wakeup
// counter does not move.
func (l *Link) JoinBatch(wait, share time.Duration) {
	if share > 0 {
		l.meter.Charge(l.params.ExtraActivePower, share)
		l.activeTime += share
	}
	if wait < 0 {
		wait = 0
	}
	l.now += wait
	l.tailEnds = l.now + l.params.TailDuration
}
