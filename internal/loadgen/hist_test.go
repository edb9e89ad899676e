package loadgen

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Errorf("empty histogram not zeroed: %+v", h.Summary())
	}
	if h.Quantile(0.5) != 0 {
		t.Errorf("empty quantile = %v, want 0", h.Quantile(0.5))
	}
}

func TestBucketBoundsMonotone(t *testing.T) {
	for i := 1; i < histBuckets; i++ {
		if bucketUpper(i) <= bucketUpper(i-1) {
			t.Fatalf("bucket %d upper %v not above bucket %d upper %v",
				i, bucketUpper(i), i-1, bucketUpper(i-1))
		}
	}
	// A sample must land in a bucket whose bounds contain it.
	for _, d := range []time.Duration{0, time.Microsecond, 3 * time.Microsecond,
		time.Millisecond, 250 * time.Millisecond, 3 * time.Second, time.Hour} {
		i := bucketOf(d)
		if d >= bucketUpper(i) {
			t.Errorf("%v in bucket %d but >= upper bound %v", d, i, bucketUpper(i))
		}
		if i > 0 && d < bucketUpper(i-1) {
			t.Errorf("%v in bucket %d but < lower bound %v", d, i, bucketUpper(i-1))
		}
	}
}

func TestQuantileAccuracy(t *testing.T) {
	// Exponentially distributed samples with a known mean: quarter-
	// octave buckets bound the relative quantile error by 2^¼ ≈ 19%.
	rng := rand.New(rand.NewSource(42))
	const n = 100_000
	samples := make([]float64, n)
	var h Histogram
	for i := range samples {
		d := time.Duration(rng.ExpFloat64() * float64(50*time.Millisecond))
		samples[i] = float64(d)
		h.Observe(d)
	}
	if h.Count() != n {
		t.Fatalf("count = %d, want %d", h.Count(), n)
	}
	// Exact quantiles by sorting.
	sorted := append([]float64(nil), samples...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := sorted[int(q*float64(n))]
		got := float64(h.Quantile(q))
		if rel := math.Abs(got-exact) / exact; rel > 0.2 {
			t.Errorf("q%.2f = %v, exact %v: relative error %.3f > 0.2",
				q, time.Duration(got), time.Duration(exact), rel)
		}
	}
	// Quantiles are clamped to the observed extrema.
	if h.Quantile(0) != h.Min() || h.Quantile(1) != h.Max() {
		t.Errorf("extreme quantiles not clamped: q0=%v min=%v q1=%v max=%v",
			h.Quantile(0), h.Min(), h.Quantile(1), h.Max())
	}
}

func TestMergeEqualsCombined(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var a, b, all Histogram
	for i := 0; i < 10_000; i++ {
		d := time.Duration(rng.Int63n(int64(time.Second)))
		all.Observe(d)
		if i%2 == 0 {
			a.Observe(d)
		} else {
			b.Observe(d)
		}
	}
	a.Merge(&b)
	if a != all {
		t.Error("merged histogram differs from directly-observed one")
	}
	// Merging an empty histogram is a no-op.
	before := a
	a.Merge(&Histogram{})
	if a != before {
		t.Error("merging empty histogram changed state")
	}
}

func TestSummaryOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h Histogram
	for i := 0; i < 5000; i++ {
		h.Observe(time.Duration(rng.ExpFloat64() * float64(10*time.Millisecond)))
	}
	s := h.Summary()
	if !(s.MinNS <= s.P50NS && s.P50NS <= s.P90NS && s.P90NS <= s.P99NS &&
		s.P99NS <= s.P999NS && s.P999NS <= s.MaxNS) {
		t.Errorf("summary quantiles not monotone: %+v", s)
	}
	if s.Count != 5000 {
		t.Errorf("count = %d, want 5000", s.Count)
	}
}

// floatBucketOf is the bucket formula bucketOf replaced — a logarithm per
// sample — kept as the oracle the integer path and its table answer to.
func floatBucketOf(d time.Duration) int {
	if d < time.Microsecond {
		return 0
	}
	i := 1 + int(math.Floor(math.Log2(float64(d)/float64(time.Microsecond))*4))
	if i < 1 {
		i = 1
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// TestBucketOfMatchesFloatFormula: the integer path buckets every
// duration as the float formula did — around each of the 200 boundaries
// (found by bisecting the formula, not read from the table), at the
// extremes, and on seeded random durations of every magnitude.
func TestBucketOfMatchesFloatFormula(t *testing.T) {
	check := func(d time.Duration) {
		t.Helper()
		if got, want := bucketOf(d), floatBucketOf(d); got != want {
			t.Fatalf("bucketOf(%d) = %d, the float formula says %d", d, got, want)
		}
	}
	for i := 0; i < histBuckets; i++ {
		// The least d the formula puts in bucket i or above.
		lo, hi := time.Duration(0), time.Duration(math.MaxInt64)
		for lo < hi {
			if mid := lo + (hi-lo)/2; floatBucketOf(mid) >= i {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if bucketLower[i] != lo {
			t.Errorf("bucketLower[%d] = %d, the float formula starts the bucket at %d", i, bucketLower[i], lo)
		}
		for d := lo - 2; d <= lo+2; d++ {
			check(max(d, 0))
		}
	}
	for _, d := range []time.Duration{math.MinInt64, -1, 0, 1, 999, 1000, 1023, 1024, math.MaxInt64 - 1, math.MaxInt64} {
		check(d)
	}
	n := 10_000_000
	if testing.Short() {
		n /= 10
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		// Uniform in magnitude, then in value: every octave gets its share.
		check(time.Duration(rng.Int63() >> uint(rng.Intn(63))))
	}
}

// BenchmarkHistogramObserve is one sample into a histogram, over
// latencies spread across the six decades a load run produces.
func BenchmarkHistogramObserve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]time.Duration, 4096)
	for i := range samples {
		samples[i] = time.Duration(float64(time.Microsecond) * math.Pow(10, 6*rng.Float64()))
	}
	var h Histogram
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(samples[i%len(samples)])
	}
	if h.Count() != uint64(b.N) {
		b.Fatal("samples lost")
	}
}
