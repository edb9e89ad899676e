#include "textflag.h"

// K(i) is expDrawConsts[i]: one constant in all four lanes.
#define K(i) ·expDrawConsts+(i*32)(SB)
#define ONE K(0)
#define TWO K(1)
#define HALF K(2)
#define SMALL K(3)
#define SPLIT K(4)
#define SIGN K(5)
#define MANT K(6)
#define THREE K(7)
#define SQRT2 K(8)
#define TWO52 K(9)
#define TWO52K K(10)
#define LN2HI K(11)
#define LN2LO K(12)
#define LP1 K(13)
#define LP2 K(14)
#define LP3 K(15)
#define LP4 K(16)
#define LP5 K(17)
#define LP6 K(18)
#define LP7 K(19)

// VCMPPD predicates.
#define LT_OS $0x01
#define GE_OS $0x0d

// func expDrawsVector(u []float64) int
//
// One group of four lanes per iteration, expLane's expressions in its
// order. Y15 holds 1.0 (and so the exponent bits of 1), Y14 holds +0,
// log1p's correction term.
TEXT ·expDrawsVector(SB), NOSPLIT, $0-32
	MOVQ u_base+0(FP), SI
	MOVQ u_len+8(FP), CX
	ANDQ $~3, CX
	XORQ AX, AX
	VMOVUPD ONE, Y15
	VXORPD  Y14, Y14, Y14

loop:
	CMPQ AX, CX
	JAE  done
	VMOVUPD (SI)(AX*8), Y0 // u

	// 1 − u, exact; its mantissa iu. A lane goes to math.Log1p when
	// u < 2⁻²⁹ or iu is within 3 of 0 mod 2⁵² (iu == 0, before or
	// after halving); such a group is left for expDraw4.
	VSUBPD    Y0, Y15, Y1     // 1 − u
	VPAND     MANT, Y1, Y2    // iu
	VPADDQ    THREE, Y2, Y3
	VPAND     MANT, Y3, Y3
	VPCMPGTQ  THREE, Y3, Y3   // (iu+3) mod 2⁵² > 3
	VCMPPD    GE_OS, SMALL, Y0, Y4 // u ≥ 2⁻²⁹
	VANDPD    Y4, Y3, Y3
	VMOVMSKPD Y3, DX
	CMPL      DX, $15
	JNE       done

	// The far side: half is all ones where iu ≥ √2's mantissa;
	// k + 1023 = (1 − u)'s exponent field + half, made a float through
	// the exponent of 2⁵² and rebased to k, both exactly;
	// fFar = (iu | exponent of 1 or ½) − 1.
	VPCMPGTQ SQRT2, Y2, Y4   // half
	VPSRLQ   $52, Y1, Y5
	VPSUBQ   Y4, Y5, Y5      // k + 1023
	VPOR     TWO52, Y5, Y5
	VSUBPD   TWO52K, Y5, Y5  // k
	VPSLLQ   $52, Y4, Y4
	VPADDQ   Y15, Y4, Y4     // 0x3ff0… − half<<52
	VPOR     Y2, Y4, Y4
	VSUBPD   Y15, Y4, Y4     // fFar

	// The near side, u < −(√2/2 − 1): f = x = −u.
	VCMPPD    LT_OS, SPLIT, Y0, Y6 // near
	VXORPD    SIGN, Y0, Y7
	VBLENDVPD Y6, Y7, Y4, Y7       // f = near ? −u : fFar

	VMULPD HALF, Y7, Y8 // 0.5·f
	VMULPD Y7, Y8, Y8   // hfsq = 0.5·f·f
	VADDPD TWO, Y7, Y9  // 2 + f
	VDIVPD Y9, Y7, Y9   // s = f / (2 + f)
	VMULPD Y9, Y9, Y10  // z = s·s

	// R = z·(Lp1 + z·(Lp2 + z·(Lp3 + z·(Lp4 + z·(Lp5 + z·(Lp6 + z·Lp7))))))
	VMULPD LP7, Y10, Y11
	VADDPD LP6, Y11, Y11
	VMULPD Y11, Y10, Y11
	VADDPD LP5, Y11, Y11
	VMULPD Y11, Y10, Y11
	VADDPD LP4, Y11, Y11
	VMULPD Y11, Y10, Y11
	VADDPD LP3, Y11, Y11
	VMULPD Y11, Y10, Y11
	VADDPD LP2, Y11, Y11
	VMULPD Y11, Y10, Y11
	VADDPD LP1, Y11, Y11
	VMULPD Y11, Y10, Y11 // R

	VADDPD Y11, Y8, Y11 // hfsq + R
	VMULPD Y11, Y9, Y11 // s·(hfsq + R)

	// Near: f − (hfsq − s·(hfsq+R)).
	VSUBPD Y11, Y8, Y12
	VSUBPD Y12, Y7, Y12

	// Far: k·Ln2Hi − ((hfsq − (s·(hfsq+R) + (k·Ln2Lo + c))) − f).
	VMULPD LN2LO, Y5, Y13
	VADDPD Y14, Y13, Y13 // + c
	VADDPD Y13, Y11, Y13
	VSUBPD Y13, Y8, Y13
	VSUBPD Y7, Y13, Y13
	VMULPD LN2HI, Y5, Y5
	VSUBPD Y13, Y5, Y13

	VBLENDVPD Y6, Y12, Y13, Y13 // near ? near form : far form
	VXORPD    SIGN, Y13, Y13    // −log1p(−u)
	VMOVUPD   Y13, (SI)(AX*8)
	ADDQ      $4, AX
	JMP       loop

done:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
