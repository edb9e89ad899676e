package modeltime

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestParseKind(t *testing.T) {
	for s, want := range map[string]Kind{"poisson": Poisson, "diurnal": Diurnal, "peruser": PerUser} {
		got, err := ParseKind(s)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), s)
		}
	}
	if _, err := ParseKind("weekly"); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestSpecValidation(t *testing.T) {
	base := Spec{Kind: Poisson, QPS: 100, Horizon: time.Second, Max: 1000}
	bad := []Spec{
		{Kind: Poisson, QPS: 0, Horizon: time.Second, Max: 10},
		{Kind: Poisson, QPS: 10, Horizon: 0, Max: 10},
		{Kind: Poisson, QPS: 10, Horizon: time.Second, Max: 0},
		{Kind: Diurnal, QPS: 10, Horizon: time.Second, Max: 10, PeakTrough: 0.5},
		{Kind: PerUser, QPS: 10, Horizon: time.Second, Max: 10},
		{Kind: PerUser, QPS: 10, Horizon: time.Second, Max: 10, Weights: []float64{0, 0}},
		{Kind: PerUser, QPS: 10, Horizon: time.Second, Max: 10, Weights: []float64{1, -2}},
		{Kind: Kind(42), QPS: 10, Horizon: time.Second, Max: 10},
	}
	if _, err := Schedule(base); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for i, s := range bad {
		if _, err := Schedule(s); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}

// legacyTimes is the homogeneous draw as the load generator made it
// before the modeltime layer existed: seed salt, draw loop, cut.
func legacyTimes(seed int64, qps float64, horizon time.Duration, max int) []time.Duration {
	rng := rand.New(rand.NewSource(seed ^ 0x09E2_7C15))
	var out []time.Duration
	var at time.Duration
	for len(out) < max {
		at += time.Duration(rng.ExpFloat64() / qps * float64(time.Second))
		if at > horizon {
			break
		}
		out = append(out, at)
	}
	return out
}

// TestPoissonMatchesLegacySchedule pins the Poisson kind to the exact
// schedule the load generator drew before the modeltime layer existed:
// same seed salt, same draw loop, byte-identical times.
func TestPoissonMatchesLegacySchedule(t *testing.T) {
	const seed, qps = int64(11), 5000.0
	horizon := 200 * time.Millisecond

	legacy := legacyTimes(seed, qps, horizon, 10_000_000)

	got, err := Schedule(Spec{Kind: Poisson, QPS: qps, Horizon: horizon, Seed: seed, Max: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(legacy) {
		t.Fatalf("schedule length %d, legacy %d", len(got), len(legacy))
	}
	for i := range got {
		if got[i].At != legacy[i] || got[i].User != -1 {
			t.Fatalf("arrival %d = %+v, legacy at %v", i, got[i], legacy[i])
		}
	}
}

// TestDiurnalPreservesArrivals is the tentpole equivalence: for the
// same (seed, QPS, horizon) a diurnal schedule contains exactly as
// many arrivals as the flat Poisson schedule — the warp only moves
// them in time — and the warped times stay sorted within the horizon.
func TestDiurnalPreservesArrivals(t *testing.T) {
	for _, horizon := range []time.Duration{199 * time.Millisecond, time.Second, 2500 * time.Millisecond} {
		flat, err := Schedule(Spec{Kind: Poisson, QPS: 3000, Horizon: horizon, Seed: 5, Max: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		warped, err := Schedule(Spec{Kind: Diurnal, QPS: 3000, Horizon: horizon, Seed: 5, Max: 1 << 20, PeakTrough: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(flat) != len(warped) {
			t.Fatalf("horizon %v: diurnal %d arrivals, poisson %d", horizon, len(warped), len(flat))
		}
		for i, a := range warped {
			if a.At < 0 || a.At > horizon {
				t.Fatalf("arrival %d at %v outside [0, %v]", i, a.At, horizon)
			}
			if i > 0 && a.At < warped[i-1].At {
				t.Fatalf("arrival %d at %v before predecessor %v", i, a.At, warped[i-1].At)
			}
		}
	}
}

// TestDiurnalConcentratesAtPeak checks the warp actually moves mass to
// the mid-period peak: with a 4:1 curve the middle half of the horizon
// must hold well over half the arrivals.
func TestDiurnalConcentratesAtPeak(t *testing.T) {
	horizon := time.Second
	sched, err := Schedule(Spec{Kind: Diurnal, QPS: 20000, Horizon: horizon, Seed: 2, Max: 1 << 20, PeakTrough: 4})
	if err != nil {
		t.Fatal(err)
	}
	var mid int
	for _, a := range sched {
		if a.At >= horizon/4 && a.At < 3*horizon/4 {
			mid++
		}
	}
	share := float64(mid) / float64(len(sched))
	// Analytically the middle half of 1 - a·cos(2πt/P) with a = 0.6
	// carries 50% + a/π ≈ 69% of the mass (a flat curve carries 50%).
	if share < 0.65 {
		t.Errorf("middle-half share = %.3f, want ≈ 0.69 (curve not concentrating)", share)
	}
	// And the analytic rate curve peaks mid-period at (1+a)·mean.
	spec := Spec{Kind: Diurnal, QPS: 100, Horizon: horizon, PeakTrough: 4}
	peak, trough := spec.RateAt(horizon/2), spec.RateAt(0)
	if ratio := peak / trough; ratio < 3.9 || ratio > 4.1 {
		t.Errorf("analytic peak/trough = %.2f, want ~4", ratio)
	}
}

func TestPerUserDeterministicAndWeighted(t *testing.T) {
	spec := Spec{
		Kind: PerUser, QPS: 4000, Horizon: time.Second, Seed: 9, Max: 1 << 20,
		Weights: []float64{10, 1, 0, 10},
	}
	s1, err := Schedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Schedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != len(s2) {
		t.Fatalf("lengths differ: %d vs %d", len(s1), len(s2))
	}
	counts := make([]int, len(spec.Weights))
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, s1[i], s2[i])
		}
		if i > 0 && (s1[i].At < s1[i-1].At || (s1[i].At == s1[i-1].At && s1[i].User < s1[i-1].User)) {
			t.Fatalf("merge order violated at %d: %+v after %+v", i, s1[i], s1[i-1])
		}
		counts[s1[i].User]++
	}
	if counts[2] != 0 {
		t.Errorf("zero-weight user arrived %d times", counts[2])
	}
	if counts[0] < 5*counts[1] || counts[3] < 5*counts[1] {
		t.Errorf("10:1 weights not reflected in counts: %v", counts)
	}
	total := counts[0] + counts[1] + counts[3]
	if total < 3000 || total > 5000 {
		t.Errorf("total arrivals %d far from QPS·horizon = 4000", total)
	}
}

func TestPerUserMaxCap(t *testing.T) {
	sched, err := Schedule(Spec{
		Kind: PerUser, QPS: 50000, Horizon: time.Second, Seed: 1, Max: 100,
		Weights: []float64{1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 100 {
		t.Errorf("capped schedule has %d arrivals, want 100", len(sched))
	}
}

// bisectWarp is the warp Schedule used before the warper: the plain
// 62-step bisection that evaluates the rate curve at every midpoint. It
// is kept as the oracle the warper must reproduce bit for bit.
func bisectWarp(u, horizon, period time.Duration, a float64) time.Duration {
	target := float64(u) / float64(horizon) * cumRate(horizon, period, a)
	lo, hi := time.Duration(0), horizon
	for i := 0; i < 62 && lo < hi; i++ {
		mid := lo + (hi-lo)/2
		if cumRate(mid, period, a) < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// bisectSchedule is the diurnal Schedule over bisectWarp.
func bisectSchedule(s Spec) []Arrival {
	base := legacyTimes(s.Seed, s.QPS, s.Horizon, s.Max)
	out := make([]Arrival, len(base))
	for i, at := range base {
		out[i] = Arrival{At: bisectWarp(at, s.Horizon, s.period(), s.amplitude()), User: -1}
	}
	return out
}

// TestWarpMatchesBisection holds the warper to the plain bisection on
// every arrival of a grid of curves: horizons from a second to a month
// (where a one-nanosecond step is below the rate curve's float
// resolution and only the bisection's own midpoints define the answer),
// peak/trough ratios from nearly flat to a trough 1000 times below the
// peak (where the margin is widest), and one, three and seven periods
// per horizon.
func TestWarpMatchesBisection(t *testing.T) {
	arrivals := 200_000
	if testing.Short() {
		arrivals = 10_000
	}
	day := 24 * time.Hour
	for _, horizon := range []time.Duration{time.Second, time.Hour, day, 30 * day} {
		for _, ratio := range []float64{1.0001, 4, 60, 1000} {
			for _, periods := range []int{1, 3, 7} {
				spec := Spec{
					Kind: Diurnal, QPS: float64(arrivals) / horizon.Seconds(), Horizon: horizon,
					Seed: int64(periods) + int64(ratio), Max: 10_000_000,
					PeakTrough: ratio, Period: horizon / time.Duration(periods),
				}
				assertWarpMatches(t, spec)
			}
		}
	}
}

// TestWarpMatchesBisectionEdges covers the schedules whose shape the
// grid does not: one cut short by Max, one whose first gap already
// overshoots the horizon (no arrivals), the default period and ratio,
// and the ratios whose amplitude rounds to 1 or is NaN, where the
// margin bounds nothing and every midpoint must still evaluate.
func TestWarpMatchesBisectionEdges(t *testing.T) {
	for _, spec := range []Spec{
		{Kind: Diurnal, QPS: 50000, Horizon: time.Second, Seed: 3, Max: 777, PeakTrough: 6},
		{Kind: Diurnal, QPS: 1e-9, Horizon: time.Millisecond, Seed: 3, Max: 10},
		{Kind: Diurnal, QPS: 20000, Horizon: 1500 * time.Millisecond, Seed: 8, Max: 1 << 20},
		{Kind: Diurnal, QPS: 20000, Horizon: time.Second, Seed: 8, Max: 1 << 20, PeakTrough: 1e18},
		{Kind: Diurnal, QPS: 2000, Horizon: time.Second, Seed: 8, Max: 1 << 20, PeakTrough: math.Inf(1)},
	} {
		assertWarpMatches(t, spec)
	}
}

func assertWarpMatches(t *testing.T, spec Spec) {
	t.Helper()
	got, err := Schedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := bisectSchedule(spec)
	if len(got) != len(want) {
		t.Fatalf("%+v: %d arrivals, bisection %d", spec, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%+v: arrival %d = %+v, bisection %+v", spec, i, got[i], want[i])
		}
	}
}

// BenchmarkScheduleDiurnal draws 300k diurnal arrivals over a second
// (the repository benchmark's day_replay schedule) and over a day, where
// arrivals are 288 µs apart and each Newton start is farther from its
// root.
func BenchmarkScheduleDiurnal(b *testing.B) {
	for _, horizon := range []time.Duration{time.Second, 24 * time.Hour} {
		b.Run(horizon.String(), func(b *testing.B) {
			spec := Spec{
				Kind: Diurnal, QPS: 300000 / horizon.Seconds(), Horizon: horizon,
				Seed: 1, Max: 10_000_000, PeakTrough: 6,
			}
			var n int
			for i := 0; i < b.N; i++ {
				arr, err := Schedule(spec)
				if err != nil {
					b.Fatal(err)
				}
				n += len(arr)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/arrival")
		})
	}
}
