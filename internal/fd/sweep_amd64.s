//go:build !race

#include "textflag.h"

// AVX2 forms of the plane functions of sweep.go: 8 float32 lanes per
// iteration, unaligned loads and stores, and only VADDPS/VSUBPS/VMULPS/
// VDIVPS — each the correctly rounded IEEE operation the scalar Go row
// performs, applied in the Go row's order. No FMA (it rounds once where Go
// rounds twice), no VRCPPS, no reassociation: every lane holds the bits
// the Go row computes.
//
// Each entry covers one i-plane of a region: cols columns (cols >= 1) of m
// cells each, m a positive multiple of 8 (the scale entry takes any n >= 1
// and finishes a column's last n&7 cells with masked lanes). Every operand
// pointer is the first column's; the next column's is a column stride
// further, in bytes — the fields' y stride, or 0 for an operand stored as a
// profile. The caller (sweep_amd64.go) has bounds-checked every operand for
// the span read here, (cols-1)*stride + m cells past its pointer plus the
// taps. Where the loop walks a column by advancing its pointers, a
// register holds the stride minus the 4*m bytes the walk advanced them by.
//
// A 4-point derivative arrives as the address of its lowest tap and a byte
// stride S; with f = P[S] the inner-lower point,
//
//	D = C1*(P[2S] - P[S]) + C2*(P[3S] - P[0])
//
// which is C1*(f1-f0) + C2*(f2-f3) of the Go rows for the forward and the
// backward stencils alike (they differ only in where P points). The z
// stencil is the same with S = 4 bytes.

DATA fdC1<>+0(SB)/4, $0x3f900000 // C1 = 9/8
GLOBL fdC1<>(SB), RODATA|NOPTR, $4
DATA fdC2<>+0(SB)/4, $0xbd2aaaab // C2 = -1/24
GLOBL fdC2<>(SB), RODATA|NOPTR, $4
DATA fdTwo<>+0(SB)/4, $0x40000000
GLOBL fdTwo<>(SB), RODATA|NOPTR, $4
DATA fdFour<>+0(SB)/4, $0x40800000
GLOBL fdFour<>(SB), RODATA|NOPTR, $4

// Y12 = C1 and Y13 = C2 in every kernel.
#define LOADC \
	VBROADCASTSS fdC1<>(SB), Y12; \
	VBROADCASTSS fdC2<>(SB), Y13

// TAPS: D = C1*(F1-F0) + C2*(F2-F3) over four memory operands; T is scratch.
#define TAPS(F1, F0, F2, F3, T, D) \
	VMOVUPS F1, D; \
	VSUBPS  F0, D, D; \
	VMULPS  D, Y12, D; \
	VMOVUPS F2, T; \
	VSUBPS  F3, T, T; \
	VMULPS  T, Y13, T; \
	VADDPS  T, D, D

// TAPSADD: D = (D + C1*(F1-F0)) + C2*(F2-F3), the left-to-right sum the Go
// rows write.
#define TAPSADD(F1, F0, F2, F3, T, D) \
	VMOVUPS F1, T; \
	VSUBPS  F0, T, T; \
	VMULPS  T, Y12, T; \
	VADDPS  T, D, D; \
	VMOVUPS F2, T; \
	VSUBPS  F3, T, T; \
	VMULPS  T, Y13, T; \
	VADDPS  T, D, D

// A derivative at P with byte stride S (S3 holds 3*S), and the z forms with
// S = 4 as displacements.
#define DERIV(P, S, S3, T, D)    TAPS((P)(S*2), (P)(S*1), (P)(S3*1), (P), T, D)
#define DERIVADD(P, S, S3, T, D) TAPSADD((P)(S*2), (P)(S*1), (P)(S3*1), (P), T, D)
#define DERIVZ(P, T, D)          TAPS(8(P), 4(P), 12(P), (P), T, D)
#define DERIVZADD(P, T, D)       TAPSADD(8(P), 4(P), 12(P), (P), T, D)

// func velocityPlaneAVX2(out *float32, m, cols int, cs uintptr, dtdx float32, r0, r1, a *float32, as uintptr, b *float32, bs uintptr, c *float32)
//
//	out += (dtdx*2)/(r0+r1) * (D(a) + D(b) + Dz(c))
TEXT ·velocityPlaneAVX2(SB), NOSPLIT, $0-96
	MOVQ out+0(FP), DI
	MOVQ cols+16(FP), R13
	MOVQ cs+24(FP), R14
	MOVQ r0+40(FP), R8
	MOVQ r1+48(FP), R9
	MOVQ a+56(FP), SI
	MOVQ as+64(FP), AX
	MOVQ b+72(FP), DX
	MOVQ bs+80(FP), BX
	MOVQ c+88(FP), R10
	LEAQ (AX)(AX*2), R11
	LEAQ (BX)(BX*2), R12
	MOVQ m+8(FP), R15
	SHLQ $2, R15
	SUBQ R15, R14                     // column stride - 4*m
	LOADC
	VBROADCASTSS dtdx+32(FP), Y14
	VBROADCASTSS fdTwo<>(SB), Y0
	VMULPS       Y0, Y14, Y14         // dtdx*2

velocityColumn:
	MOVQ m+8(FP), CX

velocityLoop:
	VMOVUPS (R8), Y0
	VADDPS  (R9), Y0, Y0              // r0 + r1
	VDIVPS  Y0, Y14, Y0               // rr = dtdx*2 / (r0+r1)
	DERIV(SI, AX, R11, Y2, Y1)
	DERIVADD(DX, BX, R12, Y2, Y1)
	DERIVZADD(R10, Y2, Y1)
	VMULPS  Y1, Y0, Y0                // rr * d
	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, R10
	SUBQ    $8, CX
	JNZ     velocityLoop
	ADDQ    R14, DI
	ADDQ    R14, R8
	ADDQ    R14, R9
	ADDQ    R14, SI
	ADDQ    R14, DX
	ADDQ    R14, R10
	DECQ    R13
	JNZ     velocityColumn
	VZEROUPPER
	RET

// func stressDiagPlaneAVX2(xx, yy, zz *float32, m, cols int, cs uintptr, dtdx float32, lam, mu, u *float32, us uintptr, v *float32, vs uintptr, w *float32)
//
//	vxx, vyy, vzz = D(u), D(v), Dz(w); l2m = lam + 2*mu
//	xx += dtdx * (l2m*vxx + lam*(vyy+vzz)), and yy, zz alike
//
// Every general register but SP and BP is taken, so the column count is
// kept in its argument slot.
TEXT ·stressDiagPlaneAVX2(SB), NOSPLIT, $0-112
	MOVQ xx+0(FP), DI
	MOVQ yy+8(FP), SI
	MOVQ zz+16(FP), DX
	MOVQ cs+40(FP), R14
	MOVQ lam+56(FP), R8
	MOVQ mu+64(FP), R9
	MOVQ u+72(FP), R10
	MOVQ us+80(FP), AX
	MOVQ v+88(FP), R12
	MOVQ vs+96(FP), BX
	MOVQ w+104(FP), R15
	LEAQ (AX)(AX*2), R11
	LEAQ (BX)(BX*2), R13
	MOVQ m+24(FP), CX
	SHLQ $2, CX
	SUBQ CX, R14                      // column stride - 4*m
	LOADC
	VBROADCASTSS dtdx+48(FP), Y14
	VBROADCASTSS fdTwo<>(SB), Y11

diagColumn:
	MOVQ m+24(FP), CX

diagLoop:
	DERIV(R10, AX, R11, Y7, Y0)       // vxx
	DERIV(R12, BX, R13, Y7, Y1)       // vyy
	DERIVZ(R15, Y7, Y2)               // vzz
	VMOVUPS (R8), Y3                  // l
	VMULPS  (R9), Y11, Y4             // 2*m
	VADDPS  Y4, Y3, Y4                // l2m = l + 2*m

	VADDPS  Y2, Y1, Y5                // vyy + vzz
	VMULPS  Y0, Y4, Y6                // l2m*vxx
	VMULPS  Y5, Y3, Y5                // l*(vyy+vzz)
	VADDPS  Y5, Y6, Y6
	VMULPS  Y6, Y14, Y6               // dtdx * (...)
	VADDPS  (DI), Y6, Y6
	VMOVUPS Y6, (DI)

	VADDPS  Y2, Y0, Y5                // vxx + vzz
	VMULPS  Y1, Y4, Y6                // l2m*vyy
	VMULPS  Y5, Y3, Y5
	VADDPS  Y5, Y6, Y6
	VMULPS  Y6, Y14, Y6
	VADDPS  (SI), Y6, Y6
	VMOVUPS Y6, (SI)

	VADDPS  Y1, Y0, Y5                // vxx + vyy
	VMULPS  Y2, Y4, Y6                // l2m*vzz
	VMULPS  Y5, Y3, Y5
	VADDPS  Y5, Y6, Y6
	VMULPS  Y6, Y14, Y6
	VADDPS  (DX), Y6, Y6
	VMOVUPS Y6, (DX)

	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, R12
	ADDQ    $32, R15
	SUBQ    $8, CX
	JNZ     diagLoop
	ADDQ    R14, DI
	ADDQ    R14, SI
	ADDQ    R14, DX
	ADDQ    R14, R8
	ADDQ    R14, R9
	ADDQ    R14, R10
	ADDQ    R14, R12
	ADDQ    R14, R15
	DECQ    cols+32(FP)
	JNZ     diagColumn
	VZEROUPPER
	RET

// func stressShearPlaneAVX2(out *float32, m, cols int, cs uintptr, dtdx float32, ra, rb, rc, rd, a *float32, as uintptr, b *float32, bs uintptr)
//
//	out += dtdx * (4/(ra+rb+rc+rd)) * (D(a) + D(b))
TEXT ·stressShearPlaneAVX2(SB), NOSPLIT, $0-104
	MOVQ out+0(FP), DI
	MOVQ cols+16(FP), R15
	MOVQ cs+24(FP), R14
	MOVQ ra+40(FP), R8
	MOVQ rb+48(FP), R9
	MOVQ rc+56(FP), R10
	MOVQ rd+64(FP), R13
	MOVQ a+72(FP), SI
	MOVQ as+80(FP), AX
	MOVQ b+88(FP), DX
	MOVQ bs+96(FP), BX
	LEAQ (AX)(AX*2), R11
	LEAQ (BX)(BX*2), R12
	MOVQ m+8(FP), CX
	SHLQ $2, CX
	SUBQ CX, R14                      // column stride - 4*m
	LOADC
	VBROADCASTSS dtdx+32(FP), Y14
	VBROADCASTSS fdFour<>(SB), Y11

shearColumn:
	MOVQ m+8(FP), CX

shearLoop:
	VMOVUPS (R8), Y0
	VADDPS  (R9), Y0, Y0
	VADDPS  (R10), Y0, Y0
	VADDPS  (R13), Y0, Y0             // ra + rb + rc + rd
	VDIVPS  Y0, Y11, Y0               // m = 4 / sum
	DERIV(SI, AX, R11, Y2, Y1)
	DERIVADD(DX, BX, R12, Y2, Y1)
	VMULPS  Y0, Y14, Y0               // dtdx * m
	VMULPS  Y1, Y0, Y0                // (dtdx*m) * d
	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, R13
	ADDQ    $32, SI
	ADDQ    $32, DX
	SUBQ    $8, CX
	JNZ     shearLoop
	ADDQ    R14, DI
	ADDQ    R14, R8
	ADDQ    R14, R9
	ADDQ    R14, R10
	ADDQ    R14, R13
	ADDQ    R14, SI
	ADDQ    R14, DX
	DECQ    R15
	JNZ     shearColumn
	VZEROUPPER
	RET

// func attenuationPlaneAVX2(gp, gs, xx, yy, zz, xy, xz, yz *float32, m, cols int, ps, ss, cs uintptr)
//
//	xx, yy, zz *= gp; xy, xz, yz *= gs
//
// The factors have column strides of their own (ps, ss: 0 for a constant
// Q's rows); AX walks a column in bytes and the pointers move a column at a
// time.
TEXT ·attenuationPlaneAVX2(SB), NOSPLIT, $0-104
	MOVQ gp+0(FP), R8
	MOVQ gs+8(FP), R9
	MOVQ xx+16(FP), DI
	MOVQ yy+24(FP), SI
	MOVQ zz+32(FP), DX
	MOVQ xy+40(FP), R10
	MOVQ xz+48(FP), R11
	MOVQ yz+56(FP), R12
	MOVQ m+64(FP), CX
	MOVQ cols+72(FP), R15
	MOVQ ps+80(FP), BX
	MOVQ ss+88(FP), R13
	MOVQ cs+96(FP), R14
	SHLQ $2, CX                       // column length in bytes

attenuationColumn:
	XORQ AX, AX

attenuationLoop:
	VMOVUPS (R8)(AX*1), Y0
	VMOVUPS (R9)(AX*1), Y1
	VMULPS  (DI)(AX*1), Y0, Y2
	VMULPS  (SI)(AX*1), Y0, Y3
	VMULPS  (DX)(AX*1), Y0, Y4
	VMULPS  (R10)(AX*1), Y1, Y5
	VMULPS  (R11)(AX*1), Y1, Y6
	VMULPS  (R12)(AX*1), Y1, Y7
	VMOVUPS Y2, (DI)(AX*1)
	VMOVUPS Y3, (SI)(AX*1)
	VMOVUPS Y4, (DX)(AX*1)
	VMOVUPS Y5, (R10)(AX*1)
	VMOVUPS Y6, (R11)(AX*1)
	VMOVUPS Y7, (R12)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     attenuationLoop
	ADDQ    BX, R8
	ADDQ    R13, R9
	ADDQ    R14, DI
	ADDQ    R14, SI
	ADDQ    R14, DX
	ADDQ    R14, R10
	ADDQ    R14, R11
	ADDQ    R14, R12
	DECQ    R15
	JNZ     attenuationColumn
	VZEROUPPER
	RET

// scaleMask<>+32-4*t is the mask of the first t lanes: eight all-ones
// words, then eight zeros.
DATA scaleMask<>+0(SB)/8, $0xffffffffffffffff
DATA scaleMask<>+8(SB)/8, $0xffffffffffffffff
DATA scaleMask<>+16(SB)/8, $0xffffffffffffffff
DATA scaleMask<>+24(SB)/8, $0xffffffffffffffff
DATA scaleMask<>+32(SB)/8, $0
DATA scaleMask<>+40(SB)/8, $0
DATA scaleMask<>+48(SB)/8, $0
DATA scaleMask<>+56(SB)/8, $0
GLOBL scaleMask<>(SB), RODATA|NOPTR, $64

// func scalePlaneAVX2(x, f *float32, n, cols int, xs, fs uintptr)
//
//	x *= f
//
// over n >= 1 cells a column, any n: the whole vectors, then the last t =
// n&7 cells with VMASKMOVPS, which neither reads nor writes a masked-off
// lane — the cells past the column stay untouched, and may be another
// tile's. f has a column stride of its own (fs = 0: one row for every
// column).
TEXT ·scalePlaneAVX2(SB), NOSPLIT, $0-48
	MOVQ x+0(FP), DI
	MOVQ f+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ cols+24(FP), R8
	MOVQ xs+32(FP), R9
	MOVQ fs+40(FP), R10
	MOVQ CX, DX
	ANDQ $7, DX                       // t
	SUBQ DX, CX
	SHLQ $2, CX                       // whole vectors' bytes
	SHLQ $2, DX                       // t in bytes
	LEAQ scaleMask<>+32(SB), R11
	SUBQ DX, R11
	VMOVDQU (R11), Y15                // the first t lanes

scaleColumn:
	XORQ AX, AX
	CMPQ AX, CX
	JEQ  scaleTail

scaleLoop:
	VMOVUPS (SI)(AX*1), Y0
	VMULPS  (DI)(AX*1), Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     scaleLoop

scaleTail:
	TESTQ      DX, DX
	JZ         scaleNext
	VMASKMOVPS (SI)(AX*1), Y15, Y0
	VMASKMOVPS (DI)(AX*1), Y15, Y1
	VMULPS     Y1, Y0, Y0
	VMASKMOVPS Y0, Y15, (DI)(AX*1)

scaleNext:
	ADDQ R9, DI
	ADDQ R10, SI
	DECQ R8
	JNZ  scaleColumn
	VZEROUPPER
	RET
