package workload

import "math/rand"

// source is math/rand's default source — the additive lagged Fibonacci
// generator behind rand.NewSource — with a faster Seed. Every draw is
// the standard source's bit for bit, so a stream drawn from it is the
// stream rand.NewSource(seed) would give.
//
// math/rand seeds by walking the Lehmer chain x ← 48271·x mod (2³¹−1)
// 1,841 steps, one dependent division after another: a stream's largest
// fixed cost. Step k of that chain is x₀·48271ᵏ mod (2³¹−1), so Seed
// takes each step from a table of powers, independently of the others.
// The table that math/rand folds into the seeded state (its rngCooked)
// is recovered once from the standard source's own first outputs
// rather than copied.
type source struct {
	tap, feed int
	vec       [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
	// seedSkip is how many chain steps math/rand discards before the
	// first state word; each word then takes three.
	seedSkip = 20
)

// seedPowers[i] holds 48271ᵏ mod (2³¹−1) for the three chain steps k
// that make state word i.
var seedPowers = func() (p [rngLen][3]uint64) {
	x := uint64(1)
	for k := 1; k <= seedSkip+3*rngLen; k++ {
		x = x * 48271 % int32max
		if k > seedSkip {
			p[(k-seedSkip-1)/3][(k-seedSkip-1)%3] = x
		}
	}
	return p
}()

// cooked is math/rand's rngCooked: the words its Seed XORs into the
// chain's.
var cooked [rngLen]int64

func init() {
	// Output k of a freshly seeded source is vec[feed] + vec[tap], stored
	// back at feed, with feed = 333−k and tap = 606−k (mod 607). From
	// k = 273 on the tap is the slot output k−273 stored, so the seeded
	// word at feed is out[k] − out[k−273]; that recovers slots 0–60 and
	// 334–606, and the earlier outputs then give the rest, their taps
	// being among those slots.
	const seed = 1
	std := rand.NewSource(seed).(rand.Source64)
	var out, vec [rngLen]uint64
	for k := range out {
		out[k] = std.Uint64()
	}
	const feed0 = rngLen - rngTap - 1
	for k := rngTap; k < rngLen; k++ {
		vec[(feed0-k+rngLen)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		vec[feed0-k] = out[k] - vec[rngLen-1-k]
	}
	// With cooked still zero, Seed leaves the chain's words alone.
	var s source
	s.Seed(seed)
	for i := range cooked {
		cooked[i] = int64(vec[i]) ^ s.vec[i]
	}
}

// Seed puts the source in the state rand.NewSource(seed) starts in.
func (s *source) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range s.vec {
		p := &seedPowers[i]
		s.vec[i] = int64(modM(x*p[0])<<40^modM(x*p[1])<<20^modM(x*p[2])) ^ cooked[i]
	}
}

// modM reduces p < 2⁶² mod 2³¹−1 by folding the high bits onto the low:
// 2³¹ ≡ 1.
func modM(p uint64) uint64 {
	p = p&int32max + p>>31
	p = p&int32max + p>>31
	if p >= int32max {
		p -= int32max
	}
	return p
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Uint64 returns a pseudo-random 64-bit integer.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
