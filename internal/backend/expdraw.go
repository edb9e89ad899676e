package backend

import (
	"math"
	"runtime"
)

// The exponential draw kernel. Every exponential the model draws is
// -math.Log1p(-u) of a u on the lattice m/2⁵³, 0 ≤ m < 2⁵³: rng.float
// and drawService's hash both build u that way. On that lattice most of
// math.log1p's branches are dead, and expDraw is math.log1p's own
// arithmetic without them, so it returns the same bits:
//
//   - x = -u lies in (-1, 0]: no NaN, -1, +Inf or |x| ≥ 2⁵³ arm;
//   - 1 − u is exact, so log1p's correction term c = x − ((1+x) − 1)
//     is +0, and c/(1+x) is +0: no second division;
//   - u < 2⁻²⁹ (the Small and Tiny arms) and a reduced mantissa of zero
//     (iu == 0: 1 − u a power of two, or its mantissa within 4 of 2⁵²)
//     are too rare to be worth a lane and go to math.Log1p itself.
//
// What is left is one division and a degree-7 polynomial on either side
// of the √2/2 − 1 split, and both sides are computed and one is picked
// by bits, so no branch depends on u. Each expression keeps
// math.log1p's parenthesisation, the +0 correction term included, so a
// compiler that fuses a multiply and an add (Go does on arm64) fuses
// the same ones in both.

// archLog1p is true where math.Log1p is assembly rather than the Go
// code expDraw mirrors; there the kernel defers to it.
const archLog1p = runtime.GOARCH == "s390x"

const (
	log1pSqrt2HalfM1 = -2.928932188134524755992e-01 // √2/2 − 1
	log1pSmall       = 1.0 / (1 << 29)
	log1pLn2Hi       = 6.93147180369123816490e-01
	log1pLn2Lo       = 1.90821492927058770002e-10
	log1pLp1         = 6.666666666666735130e-01
	log1pLp2         = 3.999999999940941908e-01
	log1pLp3         = 2.857142874366239149e-01
	log1pLp4         = 2.222219843214978396e-01
	log1pLp5         = 1.818357216161805012e-01
	log1pLp6         = 1.531383769920937332e-01
	log1pLp7         = 1.479819860511658591e-01
	// log1pSqrt2Mant is √2's mantissa: a reduced mantissa at or above it
	// is halved into [√2/2, 1).
	log1pSqrt2Mant = 0x0006a09e667f3bcd
)

// expDraw returns -math.Log1p(-u), bit for bit, for u = m/2⁵³.
func expDraw(u float64) float64 {
	if y, ok := expLane(u); ok && !archLog1p {
		return y
	}
	return -math.Log1p(-u)
}

// expDraw4 replaces each of four lattice uniforms with its expDraw. The
// lanes are independent, so their divisions and polynomials overlap.
func expDraw4(u *[4]float64) {
	y0, ok0 := expLane(u[0])
	y1, ok1 := expLane(u[1])
	y2, ok2 := expLane(u[2])
	y3, ok3 := expLane(u[3])
	if ok0 && ok1 && ok2 && ok3 && !archLog1p {
		*u = [4]float64{y0, y1, y2, y3}
		return
	}
	for i, v := range u {
		u[i] = expDraw(v)
	}
}

// expLane is expDraw's branch-free body; ok is false where u needs the
// math.Log1p fallback, and y is then meaningless. log1p(x) is taken at
// x = -u; 1 − u below is log1p's 1 + x, the same rounding of the same
// sum, and u < -(√2/2 − 1) is its √2/2 − 1 < x.
func expLane(u float64) (y float64, ok bool) {
	const sign = 1 << 63
	// The far side: 1 + x = 2^k × 1.iu exactly, reduced to u1 in
	// [√2/2, √2) by halving when iu is past √2's mantissa.
	bits := math.Float64bits(1.0 - u)
	k := int(bits>>52) - 1023
	iu := bits & (1<<52 - 1)
	var half uint64
	if iu >= log1pSqrt2Mant {
		half = 1
	}
	k += int(half)
	fFar := math.Float64frombits(iu|(0x3ff0000000000000-half<<52)) - 1.0
	var c float64 // the correction term, +0 on the lattice
	// The near side: k = 0 and f = x. On the lattice the far side's k is
	// never 0, so near alone picks the result too.
	var near uint64
	if u < -log1pSqrt2HalfM1 {
		near = 1
	}
	f := math.Float64frombits(pick(near, math.Float64bits(u)^sign, math.Float64bits(fFar)))
	// log1p's iu == 0 arm: iu is 0, or within 4 of 2⁵² and so 0 once
	// halved. A near lane's iu is never either.
	ok = u >= log1pSmall && (iu+3)&(1<<52-1) >= 4

	hfsq := 0.5 * f * f
	s := f / (2.0 + f)
	z := s * s
	R := z * (log1pLp1 + z*(log1pLp2+z*(log1pLp3+z*(log1pLp4+z*(log1pLp5+z*(log1pLp6+z*log1pLp7))))))
	y0 := f - (hfsq - s*(hfsq+R))
	yk := float64(k)*log1pLn2Hi - ((hfsq - (s*(hfsq+R) + (float64(k)*log1pLn2Lo + c))) - f)
	return math.Float64frombits(pick(near, math.Float64bits(y0), math.Float64bits(yk)) ^ sign), ok
}

// pick returns a if c is 1 and b if c is 0, without a branch.
func pick(c, a, b uint64) uint64 { return b ^ (a^b)&-c }
