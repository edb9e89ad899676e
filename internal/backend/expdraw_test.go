package backend

import (
	"math"
	"testing"
)

// lattice is the draw whose uniform is m/2⁵³.
func lattice(m uint64) float64 { return float64(m) / (1 << 53) }

// TestExpDrawMatchesLog1p: expDraw, and each lane of expDraw4, returns
// the bits of -math.Log1p(-u) on the lattice the model draws from —
// seeded points, every binade, both sides of the √2/2 − 1 split, the
// ends, the Small fallback's edge, every u whose 1 − u is a power of
// two, and the mantissas that reduce to iu == 0.
func TestExpDrawMatchesLog1p(t *testing.T) {
	var us []float64
	add := func(m uint64) {
		if m < 1<<53 {
			us = append(us, lattice(m))
		}
	}
	// u = 0, 2⁻⁵³, 2⁻⁵², 2⁻²⁹ (the Small fallback's edge) ± 2⁻⁵³, and
	// 1 − 2⁻⁵³, 1 − 2⁻⁵².
	for _, m := range []uint64{0, 1, 2, 1<<24 - 1, 1 << 24, 1<<24 + 1, 1<<53 - 1, 1<<53 - 2} {
		add(m)
	}
	// The split: -(√2/2 − 1) lies between the lattice points split and
	// split+1.
	h := -log1pSqrt2HalfM1
	split := uint64(h * (1 << 53))
	if !(lattice(split) < h && h < lattice(split+1)) {
		t.Fatalf("the split is not between %d and %d", split, split+1)
	}
	for d := uint64(0); d <= 8; d++ {
		add(split - d)
		add(split + d)
	}
	// Every binade of u, strided, and every u with 1 − u = 2⁻ⁱ and its
	// neighbours.
	for e := 0; e < 53; e++ {
		lo := uint64(1) << e
		for m, step := lo, max(lo/4096, 1); m < 2*lo; m += step {
			add(m)
		}
		p := uint64(1<<53) - lo
		add(p - 1)
		add(p)
		add(p + 1)
	}
	// 1 − u with a mantissa within 4 of 2⁵²: iu == 0 after halving.
	for e := 1; e < 53; e++ {
		for d := uint64(1); d <= 4; d++ {
			if top := uint64(1) << e; top > d {
				add(uint64(1<<53) - (top - d)) // 1 − u = (2^e − d)/2⁵³
			}
		}
	}

	check := func(lane string, u, got float64) {
		if want := -math.Log1p(-u); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s(%v = %d/2⁵³) = %v (%#x), -math.Log1p(-u) = %v (%#x)",
				lane, u, uint64(u*(1<<53)), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	draw4 := func(in [4]float64) {
		e := in
		expDraw4(&e)
		for l, u := range in {
			check("expDraw", u, expDraw(u))
			check("expDraw4 lane "+string(rune('0'+l)), u, e[l])
		}
	}
	// Each edge case in every lane.
	for i := range us {
		var in [4]float64
		for l := range in {
			in[l] = us[(i+l)%len(us)]
		}
		draw4(in)
	}
	// Seeded lattice points, drawn as the model draws them.
	r := rng{s: 0x5EED}
	for i := 0; i < 10_000_000; i += 4 {
		draw4([4]float64{r.float(), r.float(), r.float(), r.float()})
	}
}

// BenchmarkExpDraw: ns per exponential draw, uniform included — the
// math.Log1p the model drew with before, the scalar kernel, and the
// four-lane kernel refill uses.
func BenchmarkExpDraw(b *testing.B) {
	b.Run("log1p", func(b *testing.B) {
		r, sink := rng{s: 1}, 0.0
		for i := 0; i < b.N; i++ {
			sink += -math.Log1p(-r.float())
		}
		benchFloat = sink
	})
	b.Run("expDraw", func(b *testing.B) {
		r, sink := rng{s: 1}, 0.0
		for i := 0; i < b.N; i++ {
			sink += expDraw(r.float())
		}
		benchFloat = sink
	})
	b.Run("expDraw4", func(b *testing.B) {
		r, sink := rng{s: 1}, 0.0
		for i := 0; i < b.N; i += 4 {
			e := [4]float64{r.float(), r.float(), r.float(), r.float()}
			expDraw4(&e)
			sink += e[0] + e[1] + e[2] + e[3]
		}
		benchFloat = sink
	})
}

var benchFloat float64
