package energy

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestLegacyConstantValues pins the relocated power constants to the
// exact literals internal/radio and internal/device carried before the
// ledger refactor. These are calibration facts (Figure 15b/16), not
// tunables: a drift here silently recalibrates every experiment.
func TestLegacyConstantValues(t *testing.T) {
	cases := []struct {
		name string
		got  RadioPower
		want RadioPower
	}{
		{"3g", Radio3G(), RadioPower{0.45, 0.30, 0.01, 5 * time.Second}},
		{"edge", RadioEDGE(), RadioPower{0.55, 0.30, 0.01, 5 * time.Second}},
		{"wifi", RadioWiFi(), RadioPower{0.65, 0.25, 0.02, 2 * time.Second}},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("%s power = %+v, want legacy %+v", tc.name, tc.got, tc.want)
		}
	}
	if DeviceBaseW != 0.9 {
		t.Errorf("DeviceBaseW = %v, want legacy 0.9", DeviceBaseW)
	}
}

// TestIntegrateMatchesLegacyFormula verifies the shared integration
// helper is bit-identical with the historic inline expression, for the
// exact operand values the radio model produces.
func TestIntegrateMatchesLegacyFormula(t *testing.T) {
	durations := []time.Duration{
		0, time.Nanosecond, 378 * time.Millisecond, 2 * time.Second,
		5*time.Second + 123*time.Microsecond, time.Hour,
	}
	watts := []float64{0.01, 0.25, 0.30, 0.45, 0.55, 0.65, 0.9}
	for _, w := range watts {
		for _, d := range durations {
			legacy := w * d.Seconds()
			if got := Integrate(w, d); got != legacy {
				t.Fatalf("Integrate(%v, %v) = %v, want bit-identical %v", w, d, got, legacy)
			}
		}
	}
}

func TestMeterMatchesPlainAccumulation(t *testing.T) {
	var m Meter
	var legacy float64
	charges := []struct {
		w float64
		d time.Duration
	}{
		{0.45, 4411 * time.Millisecond},
		{0.30, 5 * time.Second},
		{0.01, 77 * time.Millisecond},
		{0.9, 378 * time.Millisecond},
	}
	for _, c := range charges {
		m.Charge(c.w, c.d)
		legacy += c.w * c.d.Seconds()
	}
	if m.Joules() != legacy {
		t.Errorf("meter = %v, want bit-identical %v", m.Joules(), legacy)
	}
	m.Reset()
	if m.Joules() != 0 {
		t.Errorf("reset meter = %v, want 0", m.Joules())
	}
}

// TestCounterCommutes drives a Counter from many goroutines and checks
// the total is exactly the sum of independently rounded contributions —
// i.e. independent of interleaving.
func TestCounterCommutes(t *testing.T) {
	const workers = 8
	const perWorker = 1000
	contribution := func(i int) float64 { return 0.001*float64(i%7) + 1e-10 }

	var wantNJ int64
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			wantNJ += int64(math.Round(contribution(i) * 1e9))
		}
	}

	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Add(contribution(i))
			}
		}()
	}
	wg.Wait()
	if got := c.Joules(); got != float64(wantNJ)/1e9 {
		t.Errorf("counter = %v, want %v", got, float64(wantNJ)/1e9)
	}
}

func TestShardPowerModel(t *testing.T) {
	p := DefaultShardPower()
	if p.IdleW <= 0 || p.ActiveW <= p.IdleW {
		t.Fatalf("default shard power %+v: want 0 < IdleW < ActiveW", p)
	}
	if got := p.IdleJ(10 * time.Second); got != p.IdleW*10 {
		t.Errorf("IdleJ(10s) = %v, want %v", got, p.IdleW*10)
	}
	if got := p.ActiveJ(2 * time.Second); got != (p.ActiveW-p.IdleW)*2 {
		t.Errorf("ActiveJ(2s) = %v, want %v", got, (p.ActiveW-p.IdleW)*2)
	}
}

func TestLedgerSnapshotCrossFoots(t *testing.T) {
	var l Ledger
	l.Radio.Add(2.5)
	l.DeviceBase.Add(1.25)
	l.ShardIdle.Charge(10, time.Second)
	l.ShardActive.Charge(15, 2*time.Second)
	s := l.Snapshot()
	if s.ShardJ() != s.ShardIdleJ+s.ShardActiveJ {
		t.Errorf("ShardJ = %v, want %v", s.ShardJ(), s.ShardIdleJ+s.ShardActiveJ)
	}
	want := s.RadioJ + s.DeviceBaseJ + s.ShardIdleJ + s.ShardActiveJ
	if s.TotalJ() != want {
		t.Errorf("TotalJ = %v, want %v", s.TotalJ(), want)
	}
	if s.RadioJ != 2.5 || s.DeviceBaseJ != 1.25 || s.ShardIdleJ != 10 || s.ShardActiveJ != 30 {
		t.Errorf("snapshot = %+v", s)
	}
}
