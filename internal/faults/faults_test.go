package faults

import (
	"testing"
	"time"

	"pocketcloudlets/internal/radio"
)

func TestOptionsActive(t *testing.T) {
	if (Options{}).Active() {
		t.Error("zero options should be inactive")
	}
	if (Options{Enabled: true}).Active() {
		t.Error("enabled-but-inert options should be inactive")
	}
	for _, o := range []Options{
		{Enabled: true, LossProb: 0.1},
		{Enabled: true, EngineErrProb: 0.1},
		{Enabled: true, Windows: []Window{{Start: 0, End: time.Second}}},
		{Enabled: true, OutageEvery: 30 * time.Second, OutageFor: 6 * time.Second},
	} {
		if !o.Active() {
			t.Errorf("%+v should be active", o)
		}
	}
	if (Options{LossProb: 0.5}).Active() {
		t.Error("disabled options should be inactive regardless of probabilities")
	}
}

func TestDown(t *testing.T) {
	o := Options{
		OutageEvery: 30 * time.Second,
		OutageFor:   6 * time.Second,
		Windows:     []Window{{Start: 100 * time.Second, End: 110 * time.Second}},
	}
	cases := []struct {
		now  time.Duration
		want bool
	}{
		{0, true},                  // duty cycle starts down
		{5 * time.Second, true},    // still inside the first 6s
		{6 * time.Second, false},   // boundary is exclusive
		{29 * time.Second, false},  // up for the rest of the period
		{30 * time.Second, true},   // next period starts down
		{102 * time.Second, true},  // duty is up (102%30=12) but the window covers it
		{109 * time.Second, true},  // still inside the window
		{110 * time.Second, false}, // window end is exclusive; duty up (110%30=20)
	}
	for _, c := range cases {
		if got := o.Down(c.now); got != c.want {
			t.Errorf("Down(%v) = %v, want %v", c.now, got, c.want)
		}
	}
	if (Options{}).Down(0) {
		t.Error("no outage configured should never be down")
	}
}

func TestOutageShare(t *testing.T) {
	o := Options{OutageEvery: 30 * time.Second, OutageFor: 6 * time.Second}
	if got := o.OutageShare(); got != 0.2 {
		t.Errorf("OutageShare = %g, want 0.2", got)
	}
	if got := (Options{}).OutageShare(); got != 0 {
		t.Errorf("zero options OutageShare = %g, want 0", got)
	}
}

func TestParseOutageSpec(t *testing.T) {
	every, down, windows, err := ParseOutageSpec("6s/30s")
	if err != nil {
		t.Fatal(err)
	}
	if every != 30*time.Second || down != 6*time.Second || windows != nil {
		t.Errorf("periodic spec parsed as every=%v down=%v windows=%v", every, down, windows)
	}

	every, down, windows, err = ParseOutageSpec("10s-20s, 40s-45s")
	if err != nil {
		t.Fatal(err)
	}
	if every != 0 || down != 0 || len(windows) != 2 {
		t.Fatalf("window spec parsed as every=%v down=%v windows=%v", every, down, windows)
	}
	if windows[0] != (Window{Start: 10 * time.Second, End: 20 * time.Second}) ||
		windows[1] != (Window{Start: 40 * time.Second, End: 45 * time.Second}) {
		t.Errorf("windows = %v", windows)
	}

	for _, bad := range []string{"", "30s/6s", "0s/30s", "junk", "5s-2s", "10s", "1s/1s", "-5s-2s"} {
		if _, _, _, err := ParseOutageSpec(bad); err == nil {
			t.Errorf("spec %q should fail", bad)
		}
	}
}

// TestRollsArePure verifies the fault hashes are pure and keyed on
// every input: same inputs agree across injectors with the same seed,
// and each of uid/qh/seq/attempt/seed changes the stream.
func TestRollsArePure(t *testing.T) {
	a := New(Options{Enabled: true, Seed: 42, LossProb: 0.5})
	b := New(Options{Enabled: true, Seed: 42, LossProb: 0.5})
	for attempt := 1; attempt <= 8; attempt++ {
		if a.LostAttempt(1, 2, 3, attempt) != b.LostAttempt(1, 2, 3, attempt) {
			t.Fatal("same-seed injectors disagree")
		}
	}
	// With a 50% probability, 64 draws that never differ across any
	// varied key would be astronomically unlikely.
	varies := func(f func(i uint64) bool) bool {
		first := f(0)
		for i := uint64(1); i < 64; i++ {
			if f(i) != first {
				return true
			}
		}
		return false
	}
	if !varies(func(i uint64) bool { return a.LostAttempt(i, 2, 3, 1) }) {
		t.Error("uid does not vary the loss roll")
	}
	if !varies(func(i uint64) bool { return a.LostAttempt(1, i, 3, 1) }) {
		t.Error("qh does not vary the loss roll")
	}
	if !varies(func(i uint64) bool { return a.LostAttempt(1, 2, i, 1) }) {
		t.Error("seq does not vary the loss roll")
	}
	if !varies(func(i uint64) bool { return a.LostAttempt(1, 2, 3, int(i)+1) }) {
		t.Error("attempt does not vary the loss roll")
	}
	c := New(Options{Enabled: true, Seed: 43, LossProb: 0.5})
	if !varies(func(i uint64) bool { return a.LostAttempt(i, 2, 3, 1) != c.LostAttempt(i, 2, 3, 1) }) {
		t.Error("seed does not vary the loss roll")
	}
	both := New(Options{Enabled: true, Seed: 42, LossProb: 0.5, EngineErrProb: 0.5})
	if !varies(func(i uint64) bool { return both.LostAttempt(i, 2, 3, 1) != both.EngineError(i, 2, 3, 1) }) {
		t.Error("loss and engine-error streams look identical; salts not applied?")
	}
}

func TestRetryPolicyDefaults(t *testing.T) {
	p := RetryPolicy{}.WithDefaults()
	if p.MaxAttempts != DefaultMaxAttempts || p.BaseBackoff != DefaultBaseBackoff ||
		p.MaxBackoff != DefaultMaxBackoff || p.Deadline != DefaultRetryDeadline {
		t.Errorf("defaults not applied: %+v", p)
	}
	p = RetryPolicy{Deadline: -1}.WithDefaults()
	if p.Deadline != -1 {
		t.Error("negative deadline (no deadline) must survive WithDefaults")
	}
}

func TestBackoffDoublesAndCaps(t *testing.T) {
	p := RetryPolicy{BaseBackoff: 500 * time.Millisecond, MaxBackoff: 3 * time.Second}.WithDefaults()
	want := []time.Duration{500 * time.Millisecond, time.Second, 2 * time.Second, 3 * time.Second, 3 * time.Second}
	for i, w := range want {
		if got := p.Backoff(i + 1); got != w {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestPlanMissNilInjector(t *testing.T) {
	pl := PlanMiss(nil, RetryPolicy{}.WithDefaults(), radio.ThreeG(), nil, 0, 0, true, 1, 2, 3)
	if pl.Attempts != 1 || !pl.Success || !pl.FinalWarm || pl.FailedWait != 0 || len(pl.Backoffs) != 0 {
		t.Errorf("nil injector should plan a clean warm success, got %+v", pl)
	}
}

// TestPlanMissPermanentOutage pins the full-ladder arithmetic: with the
// radio permanently down every attempt fails, FailedWait is the sum of
// the per-attempt session overheads plus the backoffs, and the Backoffs
// slice has exactly Failures()-1 entries (no backoff after the last).
func TestPlanMissPermanentOutage(t *testing.T) {
	in := New(Options{Enabled: true, Windows: []Window{{Start: 0, End: time.Hour}}})
	p := radio.ThreeG()
	pol := RetryPolicy{MaxAttempts: 3, Deadline: -1}.WithDefaults()
	pl := PlanMiss(in, pol, p, nil, 0, 0, false, 1, 2, 1)
	if pl.Success {
		t.Fatal("permanent outage should exhaust the ladder")
	}
	if pl.Attempts != 3 || pl.Failures() != 3 {
		t.Fatalf("Attempts = %d, Failures = %d, want 3, 3", pl.Attempts, pl.Failures())
	}
	if len(pl.Backoffs) != 2 {
		t.Fatalf("Backoffs = %v, want exactly 2 entries", pl.Backoffs)
	}
	// First attempt cold, later attempts inherit warmth from the failed
	// session unless the backoff outlives the tail.
	wantActive := radio.FailedAttemptCost(p, false)
	for _, b := range pl.Backoffs {
		wantActive += radio.FailedAttemptCost(p, b < p.TailDuration)
	}
	if pl.FailedActive != wantActive {
		t.Errorf("FailedActive = %v, want %v", pl.FailedActive, wantActive)
	}
	wantWait := wantActive
	for _, b := range pl.Backoffs {
		wantWait += b
	}
	if pl.FailedWait != wantWait {
		t.Errorf("FailedWait = %v, want %v", pl.FailedWait, wantWait)
	}
	if pl.FinalWarm != (pl.Backoffs[len(pl.Backoffs)-1] < p.TailDuration) {
		t.Errorf("FinalWarm = %v inconsistent with last backoff %v", pl.FinalWarm, pl.Backoffs[len(pl.Backoffs)-1])
	}
}

// TestPlanMissEscapesOutage verifies that backing off moves the model
// clock across an outage boundary: an outage covering only the first
// attempt fails once, then succeeds on the retry.
func TestPlanMissEscapesOutage(t *testing.T) {
	p := radio.ThreeG()
	// Window ends just after the first attempt's failure cost begins;
	// the backoff carries the clock beyond it.
	in := New(Options{Enabled: true, Windows: []Window{{Start: 0, End: time.Millisecond}}})
	pol := RetryPolicy{MaxAttempts: 4}.WithDefaults()
	pl := PlanMiss(in, pol, p, nil, 0, 0, false, 1, 2, 1)
	if !pl.Success || pl.Attempts != 2 {
		t.Fatalf("plan = %+v, want success on attempt 2", pl)
	}
	if pl.Failures() != 1 || len(pl.Backoffs) != 1 {
		t.Errorf("Failures = %d, Backoffs = %v, want 1 failure with 1 backoff", pl.Failures(), pl.Backoffs)
	}
	if pl.FailedActive != radio.FailedAttemptCost(p, false) {
		t.Errorf("FailedActive = %v, want one cold failed attempt", pl.FailedActive)
	}
}

// TestPlanMissDeadline verifies the model-time deadline stops the
// ladder before the attempt cap.
func TestPlanMissDeadline(t *testing.T) {
	in := New(Options{Enabled: true, Windows: []Window{{Start: 0, End: time.Hour}}})
	p := radio.ThreeG()
	// One failed attempt (~3.9s for cold 3G) blows a 1s deadline: the
	// ladder must stop at 1 attempt with no backoff taken.
	pol := RetryPolicy{MaxAttempts: 10, Deadline: time.Second}.WithDefaults()
	pl := PlanMiss(in, pol, p, nil, 0, 0, false, 1, 2, 1)
	if pl.Success || pl.Attempts != 1 || len(pl.Backoffs) != 0 {
		t.Errorf("plan = %+v, want 1 exhausted attempt with no backoff", pl)
	}
	// Negative deadline means no deadline: the full cap is used.
	pol = RetryPolicy{MaxAttempts: 10, Deadline: -1}.WithDefaults()
	pl = PlanMiss(in, pol, p, nil, 0, 0, false, 1, 2, 1)
	if pl.Attempts != 10 {
		t.Errorf("no-deadline plan took %d attempts, want 10", pl.Attempts)
	}
}

// TestPlanMissDeterministic runs the same plan twice and requires
// byte-identical results — the foundation of the fleet's determinism.
func TestPlanMissDeterministic(t *testing.T) {
	in := New(Options{
		Enabled: true, Seed: 9, LossProb: 0.4, EngineErrProb: 0.2,
		OutageEvery: 20 * time.Second, OutageFor: 4 * time.Second,
	})
	pol := RetryPolicy{}.WithDefaults()
	p := radio.ThreeG()
	for seq := uint64(1); seq < 50; seq++ {
		a := PlanMiss(in, pol, p, nil, 0, time.Duration(seq)*time.Second, seq%2 == 0, 7, 1234, seq)
		b := PlanMiss(in, pol, p, nil, 0, time.Duration(seq)*time.Second, seq%2 == 0, 7, 1234, seq)
		if a.Attempts != b.Attempts || a.Success != b.Success || a.FinalWarm != b.FinalWarm ||
			a.FailedWait != b.FailedWait || a.FailedActive != b.FailedActive || len(a.Backoffs) != len(b.Backoffs) {
			t.Fatalf("seq %d: plans differ: %+v vs %+v", seq, a, b)
		}
	}
}
