package backend

import "math"

// The vector draw kernel: expLane's arithmetic on four lanes per
// instruction (expdraw_amd64.s), used where the CPU and the operating
// system run AVX2. It fuses nothing and every operation it uses is
// correctly rounded, so each lane returns expLane's bits.

// vectorDraws is true when expDrawsVector may run: the CPU has AVX and
// AVX2, and the operating system saves the YMM registers.
var vectorDraws = hasAVX2()

// expDrawsVector replaces the lattice uniforms of u, four at a time,
// with their expDraw, and returns how many it replaced: all of them
// but the groups from the first one holding a lane that needs
// math.Log1p (u < 2⁻²⁹ or iu == 0), which it leaves as it found them.
// A trailing len(u)%4 are never replaced.
//
//go:noescape
func expDrawsVector(u []float64) int

// expDrawConsts are the kernel's constants, each in all four lanes, in
// the order expdraw_amd64.s reads them.
var expDrawConsts = [...][4]uint64{
	splat(math.Float64bits(1.0)),
	splat(math.Float64bits(2.0)),
	splat(math.Float64bits(0.5)),
	splat(math.Float64bits(log1pSmall)),
	splat(math.Float64bits(-log1pSqrt2HalfM1)),
	splat(1 << 63),                        // the sign bit
	splat(1<<52 - 1),                      // the mantissa
	splat(3),                              // iu + 3 > 3: iu is not within 3 of 0 mod 2⁵²
	splat(log1pSqrt2Mant - 1),             // iu > it: halve
	splat(math.Float64bits(1 << 52)),      // the exponent of 2⁵²: k + 1023 to float, exactly
	splat(math.Float64bits(1<<52 + 1023)), // and back to k
	splat(math.Float64bits(log1pLn2Hi)),
	splat(math.Float64bits(log1pLn2Lo)),
	splat(math.Float64bits(log1pLp1)),
	splat(math.Float64bits(log1pLp2)),
	splat(math.Float64bits(log1pLp3)),
	splat(math.Float64bits(log1pLp4)),
	splat(math.Float64bits(log1pLp5)),
	splat(math.Float64bits(log1pLp6)),
	splat(math.Float64bits(log1pLp7)),
}

func splat(w uint64) [4]uint64 { return [4]uint64{w, w, w, w} }

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of XCR0, the register states the
// operating system saves.
func xgetbv() (eax uint32)

func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmm, ymm = 1 << 1, 1 << 2
	if xgetbv()&(xmm|ymm) != xmm|ymm {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
