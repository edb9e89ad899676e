package workload

import (
	"math"
	"math/rand"
	"testing"
)

// TestSourceMatchesMathRand holds the fast-seeded source to
// rand.NewSource draw for draw, on the seeds where math/rand's seed
// reduction has its corners — zero and its stand-in 89482311, the
// multiples of 2³¹−1 that reduce to zero, negatives, the int64 extremes
// — and on a reseeded source, which must forget its previous stream.
func TestSourceMatchesMathRand(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, m, -m, 2 * m, m - 1, m + 1, 89482311, math.MinInt64, math.MaxInt64, 5, -123456789012345}
	var reused source
	reused.Seed(42)
	for _, seed := range seeds {
		fresh := new(source)
		fresh.Seed(seed)
		reused.Seed(seed)
		std := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 12_000; i++ {
			want := std.Uint64()
			if got := fresh.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: %#x, math/rand %#x", seed, i, got, want)
			}
			if got := reused.Uint64(); got != want {
				t.Fatalf("seed %d draw %d on a reseeded source: %#x, math/rand %#x", seed, i, got, want)
			}
		}
	}
	// Through rand.Rand, which reaches the source by Int63 and Uint64.
	a, b := rand.New(new(source)), rand.New(rand.NewSource(0))
	a.Seed(77)
	b.Seed(77)
	for i := 0; i < 10_000; i++ {
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("Float64 draw %d: %v, math/rand %v", i, x, y)
		}
		if x, y := a.Intn(1000), b.Intn(1000); x != y {
			t.Fatalf("Intn draw %d: %v, math/rand %v", i, x, y)
		}
	}
}

// BenchmarkSeed times one seeding, math/rand's chain walk against the
// table of powers.
func BenchmarkSeed(b *testing.B) {
	b.Run("math-rand", func(b *testing.B) {
		src := rand.NewSource(1)
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
	})
	b.Run("powers", func(b *testing.B) {
		src := new(source)
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
	})
}
