//go:build !race

#include "textflag.h"

// The yield check of returnMapRow (sweep.go) eight cells at a time over the
// columns of a plane: the IEEE operations the Go row performs up to its
// `tau <= y || tau == 0` test, in the Go row's order, with VADDPS/VSUBPS/
// VMULPS and VSQRTPS — the correctly rounded float32 root, which
// float32(math.Sqrt(float64(j2))) also is. No FMA. The return map itself is
// not here: a group with a lane that yields (or holds a NaN) is left to the
// Go row.

DATA plThird<>+0(SB)/4, $0x3eaaaaab // float32(1.0/3.0)
GLOBL plThird<>(SB), RODATA|NOPTR, $4
DATA plHalf<>+0(SB)/4, $0x3f000000
GLOBL plHalf<>(SB), RODATA|NOPTR, $4
// func elasticPlaneAVX2(op *[operands]*float32, stride *[operands]uintptr, m, cols, k int) (col, off int)
//
// op holds the first column's eleven operands (xx yy zz xy xz yz cohes sphi
// cphi pf sig2), stride their column strides in bytes (0 for a profile).
// Walks every column's first m cells (m a positive multiple of 8, cols >= 1)
// in groups of eight, starting at cell k of the first column. While every
// lane of a group is elastic (tau <= y || tau == 0, y unclamped: tau is a
// square root, so it is never below a y that the Go row would clamp to 0
// unless it is 0 itself, which the second test catches) it goes on; at the
// first group that is not it returns that group's column and cell, and
// (cols, 0) when there is none. Within a column the pointers sit at the end
// of its m cells and AX runs from -4m to 0; between columns they move by
// their strides.
TEXT ·elasticPlaneAVX2(SB), NOSPLIT, $0-56
	MOVQ op+0(FP), AX
	MOVQ 0(AX), DI                    // xx
	MOVQ 8(AX), SI                    // yy
	MOVQ 16(AX), DX                   // zz
	MOVQ 24(AX), R8                   // xy
	MOVQ 32(AX), R9                   // xz
	MOVQ 40(AX), R10                  // yz
	MOVQ 48(AX), R11                  // cohes
	MOVQ 56(AX), R12                  // sphi
	MOVQ 64(AX), R13                  // cphi
	MOVQ 72(AX), BX                   // pf
	MOVQ 80(AX), CX                   // sig2
	MOVQ m+16(FP), R15
	SHLQ $2, R15                      // a column's checked cells in bytes
	ADDQ R15, DI
	ADDQ R15, SI
	ADDQ R15, DX
	ADDQ R15, R8
	ADDQ R15, R9
	ADDQ R15, R10
	ADDQ R15, R11
	ADDQ R15, R12
	ADDQ R15, R13
	ADDQ R15, BX
	ADDQ R15, CX
	MOVQ cols+24(FP), R14             // columns left, this one included
	MOVQ k+32(FP), AX
	SHLQ $2, AX
	SUBQ R15, AX
	VBROADCASTSS plThird<>(SB), Y15
	VBROADCASTSS plHalf<>(SB), Y14
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
	JCC     elasticStop
	ADDQ    $32, AX
	JNZ     elasticLoop

	DECQ R14                          // the column is elastic: the next one
	JZ   elasticAll
	MOVQ stride+8(FP), AX
	ADDQ 0(AX), DI
	ADDQ 8(AX), SI
	ADDQ 16(AX), DX
	ADDQ 24(AX), R8
	ADDQ 32(AX), R9
	ADDQ 40(AX), R10
	ADDQ 48(AX), R11
	ADDQ 56(AX), R12
	ADDQ 64(AX), R13
	ADDQ 72(AX), BX
	ADDQ 80(AX), CX
	MOVQ R15, AX
	NEGQ AX
	JMP  elasticLoop

elasticAll:
	MOVQ cols+24(FP), AX
	MOVQ AX, col+40(FP)
	MOVQ $0, off+48(FP)
	VZEROUPPER
	RET

elasticStop:
	MOVQ cols+24(FP), DX
	SUBQ R14, DX
	MOVQ DX, col+40(FP)               // column = cols - columns left
	SARQ $2, AX
	ADDQ m+16(FP), AX
	MOVQ AX, off+48(FP)               // cell = m + AX/4
	VZEROUPPER
	RET
