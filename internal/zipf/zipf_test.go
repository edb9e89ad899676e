package zipf

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewPanicsOnBadArgs(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{{0, 1}, {-5, 1}, {10, -0.1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %g) did not panic", tc.n, tc.s)
				}
			}()
			New(tc.n, tc.s)
		}()
	}
}

func TestCDFMonotoneAndNormalized(t *testing.T) {
	d := New(1000, 0.8)
	prev := 0.0
	for i := 0; i < d.N(); i++ {
		c := d.CDF(i)
		if c < prev {
			t.Fatalf("CDF not monotone at rank %d: %g < %g", i, c, prev)
		}
		prev = c
	}
	if got := d.CDF(d.N() - 1); got != 1 {
		t.Errorf("CDF(last) = %g, want 1", got)
	}
	if got := d.CDF(d.N() + 10); got != 1 {
		t.Errorf("CDF beyond range = %g, want 1", got)
	}
	if got := d.CDF(-1); got != 0 {
		t.Errorf("CDF(-1) = %g, want 0", got)
	}
}

func TestPSumsToOne(t *testing.T) {
	d := New(500, 1.1)
	sum := 0.0
	for i := 0; i < d.N(); i++ {
		sum += d.P(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("sum of P = %g, want 1", sum)
	}
}

func TestPDecreasesWithRank(t *testing.T) {
	d := New(200, 0.7)
	for i := 1; i < d.N(); i++ {
		if d.P(i) > d.P(i-1)+1e-12 {
			t.Fatalf("P(%d)=%g > P(%d)=%g", i, d.P(i), i-1, d.P(i-1))
		}
	}
}

func TestUniformWhenExponentZero(t *testing.T) {
	d := New(10, 0)
	for i := 0; i < 10; i++ {
		if math.Abs(d.P(i)-0.1) > 1e-12 {
			t.Errorf("P(%d) = %g, want 0.1", i, d.P(i))
		}
	}
}

func TestSampleMatchesCDF(t *testing.T) {
	d := New(100, 1.0)
	r := rand.New(rand.NewSource(42))
	const draws = 200000
	counts := make([]int, d.N())
	for i := 0; i < draws; i++ {
		counts[d.Sample(r)]++
	}
	// Check the head of the distribution against expected mass.
	for i := 0; i < 5; i++ {
		got := float64(counts[i]) / draws
		want := d.P(i)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("empirical P(%d) = %g, want %g (±0.01)", i, got, want)
		}
	}
}

func TestSampleInRange(t *testing.T) {
	f := func(seed int64) bool {
		d := New(37, 0.9)
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			v := d.Sample(r)
			if v < 0 || v >= 37 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestConcentrationReference sanity-checks the theoretical top-share
// arithmetic the workload calibration relied on: at s=1.20 a bounded
// Zipf over 100k ranks carries ~90% of its mass in the top 5000, while
// at s=0.80 over 1M ranks the top 5000 carry ~30%. (The workload
// generator uses slightly lower exponents because finite-sample repeat
// amplification adds empirical concentration on top of these curves.)
func TestConcentrationReference(t *testing.T) {
	nav := New(100000, 1.20)
	if got := nav.TopShare(5000); got < 0.85 || got > 0.95 {
		t.Errorf("s=1.20 top-5000 share = %.3f, want ~0.90", got)
	}
	nonNav := New(1000000, 0.80)
	if got := nonNav.TopShare(5000); got < 0.25 || got > 0.35 {
		t.Errorf("s=0.80 top-5000 share = %.3f, want ~0.30", got)
	}
}

// TestRankMatchesSearch holds the guided search to a binary search of
// the whole table on flat, shallow, steep and degenerate curves, at
// random draws and at every cell boundary and the draws beside it.
func TestRankMatchesSearch(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, c := range []struct {
		n int
		s float64
	}{{1, 1}, {2, 0.5}, {3, 0}, {7, 2}, {8, 1}, {9, 1}, {1000, 0.4}, {24000, 0.9}, {120000, 0.47}, {5000, 3}, {4096, 0}} {
		d := New(c.n, c.s)
		check := func(u float64) {
			if u < 0 || u >= 1 {
				return
			}
			if got, want := d.rank(u), sort.SearchFloat64s(d.cum, u); got != want {
				t.Fatalf("n=%d s=%g u=%v: rank %d, binary search %d", c.n, c.s, u, got, want)
			}
		}
		k := float64(len(d.guide) - 1)
		for cell := 0.0; cell <= k; cell++ {
			u := cell / k
			check(u)
			check(math.Nextafter(u, 0))
			check(math.Nextafter(u, 1))
		}
		for _, p := range d.cum {
			check(p)
			check(math.Nextafter(p, 0))
		}
		for i := 0; i < 20000; i++ {
			check(r.Float64())
		}
		check(0)
	}
}

func BenchmarkSample(b *testing.B) {
	d := New(1000000, 0.8)
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Sample(r)
	}
}

// TestSampleSeedRegression pins the sampling path to its seed: the
// same source must reproduce the identical rank sequence (the whole
// workload pipeline leans on this), and a different seed must not.
func TestSampleSeedRegression(t *testing.T) {
	d := New(5000, 0.9)
	draw := func(seed int64, n int) []int {
		r := rand.New(rand.NewSource(seed))
		out := make([]int, n)
		for i := range out {
			out[i] = d.Sample(r)
		}
		return out
	}
	a, b := draw(1234, 2000), draw(1234, 2000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs for identical seeds: %d vs %d", i, a[i], b[i])
		}
	}
	c := draw(1235, 2000)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds reproduced the identical 2000-sample sequence")
	}
}
