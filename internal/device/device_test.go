package device

import (
	"math"
	"testing"
	"time"

	"pocketcloudlets/internal/flashsim"
	"pocketcloudlets/internal/radio"
)

func newTestDevice() *Device {
	return New(Config{}, radio.ThreeG(), flashsim.Params{})
}

func TestDefaultsFilled(t *testing.T) {
	d := newTestDevice()
	if d.Config() != DefaultConfig() {
		t.Errorf("config = %+v, want defaults", d.Config())
	}
}

// TestCacheHitLatencyMatchesTable4 verifies the calibrated end-to-end
// hit cost: fetch (~10 ms, charged by resultdb elsewhere) + render of a
// 100 KB page (~361 ms) + misc (7 ms) ≈ 378 ms.
func TestCacheHitLatencyMatchesTable4(t *testing.T) {
	d := newTestDevice()
	render := d.RenderLatency(100 * 1000)
	if render < 350*time.Millisecond || render > 375*time.Millisecond {
		t.Errorf("render latency for 100 KB page = %v, want ~361 ms", render)
	}
	total := render + d.Config().MiscPerQuery + 10*time.Millisecond
	if total < 360*time.Millisecond || total > 400*time.Millisecond {
		t.Errorf("hit total = %v, want ~378 ms", total)
	}
}

func TestBusyAccruesTimeAndEnergy(t *testing.T) {
	d := newTestDevice()
	d.Busy(2*time.Second, Misc)
	if d.Now() != 2*time.Second {
		t.Errorf("clock = %v, want 2 s", d.Now())
	}
	want := 0.9 * 2
	if got := d.TotalEnergy(); math.Abs(got-want) > 0.05 {
		t.Errorf("energy = %g J, want ~%g J (base only, radio idle extra small)", got, want)
	}
	d.Busy(-time.Second, Misc)
	if d.Now() != 2*time.Second {
		t.Error("negative busy advanced the clock")
	}
}

func TestNetworkRequestAdvancesClockAndEnergy(t *testing.T) {
	d := newTestDevice()
	tr := d.NetworkRequest(800, 100*1000)
	if d.Now() != tr.Total() {
		t.Errorf("clock = %v, want %v", d.Now(), tr.Total())
	}
	// Energy must exceed base-only: the radio adds active power.
	baseOnly := d.Config().BasePower * tr.Total().Seconds()
	if d.TotalEnergy() <= baseOnly {
		t.Errorf("energy %g J should exceed base-only %g J", d.TotalEnergy(), baseOnly)
	}
}

// TestEnergyRatioVs3G verifies the Figure 15b headline shape: serving a
// query locally is >15x more energy-efficient than over 3G.
func TestEnergyRatioVs3G(t *testing.T) {
	local := newTestDevice()
	local.Busy(10*time.Millisecond, Fetch)
	local.Render(100 * 1000)
	local.Misc()
	eLocal := local.TotalEnergy()

	net := newTestDevice()
	net.NetworkRequest(800, 100*1000)
	net.Render(100 * 1000)
	net.Misc()
	eNet := net.TotalEnergy()

	ratio := eNet / eLocal
	if ratio < 15 || ratio > 35 {
		t.Errorf("3G/local energy ratio = %.1f, want ~23 (15-35 acceptable)", ratio)
	}
}

func TestTraceRecordsSegments(t *testing.T) {
	d := newTestDevice()
	d.StartTrace()
	d.NetworkRequest(800, 100*1000)
	d.Render(100 * 1000)
	tr := d.Trace()
	if len(tr) != 2 {
		t.Fatalf("trace has %d segments, want 2", len(tr))
	}
	if tr[0].Stage != Radio || tr[1].Stage != Render {
		t.Errorf("stages = %v, %v", tr[0].Stage, tr[1].Stage)
	}
	if tr[0].Watts <= tr[1].Watts {
		t.Errorf("radio segment power %g should exceed render power %g", tr[0].Watts, tr[1].Watts)
	}
	if tr[1].Start != tr[0].End() {
		t.Errorf("segments not contiguous: %v then %v", tr[0].End(), tr[1].Start)
	}
	// Figure 16 magnitudes: ~1.4 W with the radio active; rendering
	// right after a transfer still carries the radio tail (~1.2 W).
	if tr[0].Watts < 1.3 || tr[0].Watts > 1.6 {
		t.Errorf("radio power %g W, want ~1.35-1.5 W", tr[0].Watts)
	}
	if tr[1].Watts < 1.1 || tr[1].Watts > 1.3 {
		t.Errorf("render-during-tail power %g W, want ~1.2 W", tr[1].Watts)
	}

	// A purely local device (radio idle throughout) serves at ~0.9 W.
	local := newTestDevice()
	local.StartTrace()
	local.Render(100 * 1000)
	seg := local.Trace()[0]
	if seg.Watts < 0.89 || seg.Watts > 1.0 {
		t.Errorf("local-serve power %g W, want ~0.9 W", seg.Watts)
	}

	// Summed per stage, the Figure 16 trace is the device's stage
	// account, through every charge entry point: a boot, a hit, a failed
	// attempt with its backoff and the hedge and backend waits, the
	// retried miss with its expansion write, and a batch member's miss.
	d = newTestDevice()
	d.StartTrace()
	d.Busy(50*time.Millisecond, Boot)
	mark := d.Stages()
	d.Busy(10*time.Microsecond, Lookup)
	d.Busy(10*time.Millisecond, Fetch)
	d.Render(100 * 1000)
	d.Misc()
	hit := d.Since(mark)
	if want := 10*time.Microsecond + 10*time.Millisecond + d.RenderLatency(100*1000) + d.Config().MiscPerQuery; hit.Total() != want || hit.Network() != 0 {
		t.Errorf("the hit's stages %v sum to %v with %v network, want %v and none", hit, hit.Total(), hit.Network(), want)
	}
	mark = d.Stages()
	failed := d.NetworkFailedRequest()
	d.Busy(500*time.Millisecond, Backoff)
	d.Busy(200*time.Millisecond, Hedge)
	d.Busy(30*time.Millisecond, Backend)
	d.Busy(10*time.Microsecond, Lookup)
	ok := d.NetworkRequest(800, 100*1000)
	d.Render(100 * 1000)
	d.Misc()
	d.Busy(3*time.Millisecond, Store)
	miss := d.Since(mark)
	if miss[RadioFailed] != failed.Total() || miss[Radio] != ok.Total() ||
		miss.Network() != failed.Total()+500*time.Millisecond+200*time.Millisecond+30*time.Millisecond+ok.Total() {
		t.Errorf("the retried miss's stages %v do not carry its exchanges %v and %v and its waits", miss, failed.Total(), ok.Total())
	}
	d.Busy(10*time.Microsecond, Lookup)
	d.NetworkBatchShare(2*time.Second, time.Second)
	d.Render(100 * 1000)
	d.Misc()

	var traced [NumStages]time.Duration
	var offResponse time.Duration
	for _, seg := range d.Trace() {
		traced[seg.Stage] += seg.Duration
	}
	for s := Stage(0); s < NumStages; s++ {
		if traced[s] != d.StageTotal(s) {
			t.Errorf("stage %v: the trace holds %v, the account %v", s, traced[s], d.StageTotal(s))
		}
		if traced[s] == 0 {
			t.Errorf("stage %v was never charged", s)
		}
		if int(s) >= NumResponseStages {
			offResponse += d.StageTotal(s)
		}
	}
	all := d.Stages()
	if all.Total() != d.Now()-offResponse {
		t.Errorf("the response stages sum to %v, the clock less store and boot to %v", all.Total(), d.Now()-offResponse)
	}
	if Store.String() != "store" || RadioFailed.String() != "radio-failed" {
		t.Errorf("stage names: %v, %v", Store, RadioFailed)
	}
}

func TestRenderLatencyClampsNegative(t *testing.T) {
	d := newTestDevice()
	if d.RenderLatency(-100) != d.Config().RenderBase {
		t.Error("negative page size should render at base cost")
	}
}

func TestReset(t *testing.T) {
	d := newTestDevice()
	d.Store().Write("f", []byte("persist"))
	d.NetworkRequest(800, 1000)
	d.Reset()
	if d.Now() != 0 || d.TotalEnergy() != 0 {
		t.Error("reset did not clear clock/energy")
	}
	if !d.Store().Exists("f") {
		t.Error("reset should preserve flash contents")
	}
}

func TestBootIndexLoadPlacement(t *testing.T) {
	d := newTestDevice()
	const idx = 1 << 30 // a 1 GiB index, the paper's "indexes can reach gigabytes"
	two := d.BootIndexLoad(idx, TwoTier)
	three := d.BootIndexLoad(idx, ThreeTier)
	if three != 0 {
		t.Errorf("three-tier boot load = %v, want 0", three)
	}
	// Streaming 1 GiB from NAND at ~13.7 MB/s effective takes minutes.
	if two < 30*time.Second {
		t.Errorf("two-tier boot load = %v, want extremely slow (>30 s)", two)
	}
}

func TestIndexAccessOrdering(t *testing.T) {
	d := newTestDevice()
	const probe = 64 * 1024
	dram := d.IndexAccess(probe, DRAM)
	pcm := d.IndexAccess(probe, PCM)
	nand := d.IndexAccess(probe, NAND)
	if !(dram < pcm && pcm < nand) {
		t.Errorf("tier ordering violated: DRAM=%v PCM=%v NAND=%v", dram, pcm, nand)
	}
}

func TestTierStrings(t *testing.T) {
	if DRAM.String() != "DRAM" || PCM.String() != "PCM" || NAND.String() != "NAND" {
		t.Error("Tier.String mismatch")
	}
	if Tier(9).String() == "" {
		t.Error("unknown tier should stringify")
	}
	if TwoTier.String() == ThreeTier.String() {
		t.Error("placements should stringify distinctly")
	}
}

func TestSyncClockNeverRewinds(t *testing.T) {
	d := newTestDevice()
	d.Busy(5*time.Second, Misc)
	before := d.Now()
	energy := d.TotalEnergy()
	base := energy - d.Link().RadioEnergy()

	// A stale timestamp — at or before the current clock — must clamp:
	// no rewind, no energy, no link movement.
	for _, stale := range []time.Duration{0, time.Second, before} {
		d.SyncClock(stale)
		if d.Now() != before {
			t.Fatalf("SyncClock(%v) rewound the clock from %v to %v", stale, before, d.Now())
		}
	}
	if d.TotalEnergy() != energy {
		t.Errorf("clamped SyncClock charged energy: %v -> %v", energy, d.TotalEnergy())
	}

	// A forward sync advances the clock exactly. No busy time is billed
	// (the user was not holding the device on), though the radio link
	// observes the gap, so only base energy is pinned here.
	d.SyncClock(9 * time.Second)
	if d.Now() != 9*time.Second {
		t.Errorf("SyncClock(9s) left clock at %v", d.Now())
	}
	if got := d.TotalEnergy() - d.Link().RadioEnergy(); got != base {
		t.Errorf("forward SyncClock billed busy energy: base %v -> %v", base, got)
	}
}
