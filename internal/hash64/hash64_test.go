package hash64

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// legacyMix is the splitmix64 finalizer as the eight call sites that now
// share Mix each spelled it out: the oracle.
func legacyMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// TestMixMatchesLegacy holds Mix to the literal sequence it replaced on
// 1 M seeded inputs and the edges, and to splitmix64's published first
// output (seed 0: the state advanced once by the golden gamma).
func TestMixMatchesLegacy(t *testing.T) {
	if got := Mix(0x9E3779B97F4A7C15); got != 0xE220A8397B1DCDAF {
		t.Fatalf("Mix(gamma) = %#x, want splitmix64's first output 0xe220a8397b1dcdaf", got)
	}
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 1_000_000; i++ {
		x := r.Uint64()
		if i < 3 {
			x = []uint64{0, math.MaxUint64, 1 << 63}[i]
		}
		if got, want := Mix(x), legacyMix(x); got != want {
			t.Fatalf("Mix(%#x) = %#x, legacy %#x", x, got, want)
		}
	}
}

func TestDeterministic(t *testing.T) {
	if Sum("michael jackson") != Sum("michael jackson") {
		t.Error("hash not deterministic")
	}
}

func TestStringBytesAgree(t *testing.T) {
	f := func(s string) bool { return Sum(s) == SumBytes([]byte(s)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistinctInputsUsuallyDiffer(t *testing.T) {
	seen := map[uint64]string{}
	collisions := 0
	for _, s := range []string{"youtube", "yotube", "facebook", "boa", "pof", "movies", "ringtones", "www.cnn.com", "cnn", "news"} {
		h := Sum(s)
		if prev, ok := seen[h]; ok && prev != s {
			collisions++
		}
		seen[h] = s
	}
	if collisions != 0 {
		t.Errorf("%d collisions among tiny sample", collisions)
	}
}
