//go:build !race

#include "textflag.h"

// The yield check of returnMapRow (sweep.go) eight cells at a time: the
// IEEE operations the Go row performs up to its `tau <= y || tau == 0`
// test, in the Go row's order, with VADDPS/VSUBPS/VMULPS and VSQRTPS — the
// correctly rounded float32 root, which float32(math.Sqrt(float64(j2)))
// also is. No FMA. The return map itself is not here: a group with a lane
// that yields (or holds a NaN) is left to the Go row.

DATA plThird<>+0(SB)/4, $0x3eaaaaab // float32(1.0/3.0)
GLOBL plThird<>(SB), RODATA|NOPTR, $4
DATA plHalf<>+0(SB)/4, $0x3f000000
GLOBL plHalf<>(SB), RODATA|NOPTR, $4
DATA plOne<>+0(SB)/4, $0x3f800000
GLOBL plOne<>(SB), RODATA|NOPTR, $4

// func elasticRowAVX2(xx, yy, zz, xy, xz, yz, cohes, sphi, cphi, pf, sig2, yld *float32, n int) int
//
// Walks the row in groups of eight. While every lane of a group is elastic
// (tau <= y || tau == 0, y unclamped: tau is a square root, so it is never
// below a y that the Go row would clamp to 0 unless it is 0 itself, which
// the second test catches) it stores yld = 1 for the group, as the Go row
// does, and goes on; at the first group that is not, or at the end of the
// row, it returns the number of cells done. n is a positive multiple of 8.
// The pointers are moved to the end of the row and AX runs from -4n to 0.
TEXT ·elasticRowAVX2(SB), NOSPLIT, $0-112
	MOVQ n+96(FP), AX
	SHLQ $2, AX
	MOVQ xx+0(FP), DI
	MOVQ yy+8(FP), SI
	MOVQ zz+16(FP), DX
	MOVQ xy+24(FP), R8
	MOVQ xz+32(FP), R9
	MOVQ yz+40(FP), R10
	MOVQ cohes+48(FP), R11
	MOVQ sphi+56(FP), R12
	MOVQ cphi+64(FP), R13
	MOVQ pf+72(FP), BX
	MOVQ sig2+80(FP), CX
	MOVQ yld+88(FP), R15
	ADDQ AX, DI
	ADDQ AX, SI
	ADDQ AX, DX
	ADDQ AX, R8
	ADDQ AX, R9
	ADDQ AX, R10
	ADDQ AX, R11
	ADDQ AX, R12
	ADDQ AX, R13
	ADDQ AX, BX
	ADDQ AX, CX
	ADDQ AX, R15
	NEGQ AX
	VBROADCASTSS plThird<>(SB), Y15
	VBROADCASTSS plHalf<>(SB), Y14
	VBROADCASTSS plOne<>(SB), Y13
	VXORPS       Y12, Y12, Y12
	VPCMPEQD     Y11, Y11, Y11        // all ones

elasticLoop:
	VMOVUPS (CX)(AX*1), Y0            // sig2
	VADDPS  (DI)(AX*1), Y0, Y1        // txx = xx + sig2
	VADDPS  (SI)(AX*1), Y0, Y2        // tyy
	VADDPS  (DX)(AX*1), Y0, Y3        // tzz
	VADDPS  Y2, Y1, Y4
	VADDPS  Y3, Y4, Y4
	VMULPS  Y15, Y4, Y4               // sm = (txx + tyy + tzz) * (1/3)
	VSUBPS  Y4, Y1, Y1                // dxx = txx - sm
	VSUBPS  Y4, Y2, Y2                // dyy
	VSUBPS  Y4, Y3, Y3                // dzz
	VMULPS  Y1, Y1, Y1
	VMULPS  Y2, Y2, Y2
	VMULPS  Y3, Y3, Y3
	VADDPS  Y2, Y1, Y1
	VADDPS  Y3, Y1, Y1                // dxx*dxx + dyy*dyy + dzz*dzz
	VMULPS  Y14, Y1, Y1               // 0.5 * (...)
	VMOVUPS (R8)(AX*1), Y2
	VMULPS  Y2, Y2, Y2
	VADDPS  Y2, Y1, Y1                // + txy*txy
	VMOVUPS (R9)(AX*1), Y2
	VMULPS  Y2, Y2, Y2
	VADDPS  Y2, Y1, Y1                // + txz*txz
	VMOVUPS (R10)(AX*1), Y2
	VMULPS  Y2, Y2, Y2
	VADDPS  Y2, Y1, Y1                // j2
	VSQRTPS Y1, Y1                    // tau

	VMOVUPS (R11)(AX*1), Y2
	VMULPS  (R13)(AX*1), Y2, Y2       // cohes * cphi
	VADDPS  (BX)(AX*1), Y4, Y4        // sm + pf
	VMULPS  (R12)(AX*1), Y4, Y4       // (sm + pf) * sphi
	VSUBPS  Y4, Y2, Y2                // y

	VCMPPS  $2, Y2, Y1, Y2            // tau <= y (false on NaN)
	VCMPPS  $0, Y12, Y1, Y1           // tau == 0
	VORPS   Y1, Y2, Y2
	VTESTPS Y11, Y2                   // CF = every lane of the mask is set
	JCC     elasticDone
	VMOVUPS Y13, (R15)(AX*1)          // yld = 1
	ADDQ    $32, AX
	JNZ     elasticLoop

elasticDone:
	SARQ $2, AX
	ADDQ n+96(FP), AX                 // cells done = n + AX/4
	MOVQ AX, ret+104(FP)
	VZEROUPPER
	RET
