package backend

import (
	"math"
	"testing"
)

// lattice is the draw whose uniform is m/2⁵³.
func lattice(m uint64) float64 { return float64(m) / (1 << 53) }

// TestExpDrawMatchesLog1p: expDraw, each lane of expDraw4, and each
// lane of the vector kernel and of expDraws, return the bits of
// -math.Log1p(-u) on the lattice the model draws from — seeded points,
// every binade, both sides of the √2/2 − 1 split, the ends, the Small
// fallback's edge, every u whose 1 − u is a power of two, and the
// mantissas that reduce to iu == 0, each edge case in every lane.
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

	// check fails t unless got, kernel's draw in lane l (-1: a scalar
	// call), is -math.Log1p(-u) to the bit.
	check := func(t *testing.T, kernel string, l int, u, got float64) {
		if want := -math.Log1p(-u); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s lane %d: (%v = %d/2⁵³) = %v (%#x), -math.Log1p(-u) = %v (%#x)",
				kernel, l, u, uint64(u*(1<<53)), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	// run feeds draw every edge case in every lane, then the seeded
	// lattice points, drawn as the model draws them.
	run := func(draw func(in [4]float64)) {
		for i := range us {
			var in [4]float64
			for l := range in {
				in[l] = us[(i+l)%len(us)]
			}
			draw(in)
		}
		r := rng{s: 0x5EED}
		for i := 0; i < 10_000_000; i += 4 {
			draw([4]float64{r.float(), r.float(), r.float(), r.float()})
		}
	}

	t.Run("portable", func(t *testing.T) {
		run(func(in [4]float64) {
			e := in
			expDraw4(&e)
			for l, u := range in {
				check(t, "expDraw", -1, u, expDraw(u))
				check(t, "expDraw4", l, u, e[l])
			}
		})
	})

	t.Run("vector", func(t *testing.T) {
		if !vectorDraws {
			t.Skip("the CPU lacks AVX2: there is no vector kernel to check")
		}
		run(func(in [4]float64) {
			// The kernel takes the group exactly when every lane is
			// expLane's, and leaves a group it declines untouched.
			want := 4
			for _, u := range in {
				if _, ok := expLane(u); !ok {
					want = 0
				}
			}
			v := in
			if n := expDrawsVector(v[:]); n != want {
				t.Fatalf("expDrawsVector(%v) replaced %d draws, want %d", in, n, want)
			}
			for l, u := range in {
				if want == 0 && v[l] != u {
					t.Fatalf("expDrawsVector(%v) declined the group and left %v", in, v)
				}
				if want == 4 {
					check(t, "expDrawsVector", l, u, v[l])
				}
			}
			e := in
			expDraws(e[:])
			for l, u := range in {
				check(t, "expDraws", l, u, e[l])
			}
		})
	})

	t.Run("vector fallback", func(t *testing.T) {
		if !vectorDraws {
			t.Skip("the CPU lacks AVX2: there is no vector kernel to check")
		}
		// A refill buffer of eight groups whose fourth holds one lane
		// for math.Log1p, in each lane: the kernel stops at that group,
		// expDraw4 draws it, and the kernel resumes after it.
		r := rng{s: 7}
		var buf [32]float64
		for i := range buf {
			buf[i] = r.float()
		}
		for _, f := range []struct {
			name string
			u    float64
		}{
			{"u = 0", 0},
			{"u = 2⁻²⁹ − 2⁻⁵³", lattice(1<<24 - 1)},
			{"1 − u = 1/2: iu == 0", 0.5},
			{"1 − u = (2⁵² − 1)/2⁵³: iu == 0 once halved", lattice(1<<53 - (1<<52 - 1))},
		} {
			for l := 0; l < 4; l++ {
				in := buf
				in[12+l] = f.u
				v := in
				if n := expDrawsVector(v[:]); n != 12 {
					t.Fatalf("%s in lane %d: expDrawsVector stopped after %d draws, want 12", f.name, l, n)
				}
				e := in
				expDraws(e[:])
				for i, u := range in {
					check(t, f.name+" in group 3: expDraws", i, u, e[i])
				}
			}
		}
	})
}

// BenchmarkExpDraw: ns per exponential draw, uniform included — the
// math.Log1p the model drew with before, the scalar kernel, the
// four-lane kernel, and a 32-draw refill buffer drawn by expDraw4 four
// lanes at a time (portable) and by expDraws (vector, where the CPU has
// AVX2).
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
	refill := func(b *testing.B, draw func(u []float64)) {
		r, sink := rng{s: 1}, 0.0
		var u [2 * aheadMax]float64
		for i := 0; i < b.N; i += len(u) {
			for j := range u {
				u[j] = r.float()
			}
			draw(u[:])
			sink += u[0] + u[len(u)-1]
		}
		benchFloat = sink
	}
	b.Run("refill32/portable", func(b *testing.B) {
		refill(b, func(u []float64) {
			for j := 0; j < len(u); j += 4 {
				expDraw4((*[4]float64)(u[j : j+4]))
			}
		})
	})
	b.Run("refill32/vector", func(b *testing.B) {
		if !vectorDraws {
			b.Skip("the CPU lacks AVX2: there is no vector kernel")
		}
		refill(b, expDraws)
	})
}

var benchFloat float64
