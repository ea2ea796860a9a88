//go:build !race

#include "textflag.h"

DATA absMask<>+0(SB)/4, $0x7fffffff
GLOBL absMask<>(SB), RODATA|NOPTR, $4

// func maxAbsPlaneAVX2(a *float32, m, cols int, cs uintptr) uint32
//
// The largest sign-cleared bit pattern of cols columns of m cells (m a
// positive multiple of 8, cols >= 1), each cs bytes past the one before, as
// an unsigned integer — the order maxAbsBitsGo compares in, so every NaN
// pattern sorts above +Inf — eight lanes at a time: VPAND clears the signs,
// VPMAXUD keeps the larger pattern (two accumulators, so consecutive
// vectors do not wait on each other; one horizontal reduce for the whole
// plane). An integer maximum is the same in any order.
TEXT ·maxAbsPlaneAVX2(SB), NOSPLIT, $0-36
	MOVQ a+0(FP), SI
	MOVQ m+8(FP), DX
	MOVQ cols+16(FP), R8
	MOVQ cs+24(FP), R9
	MOVQ DX, AX
	SHLQ $2, AX
	SUBQ AX, R9                       // column stride - 4*m
	VPBROADCASTD absMask<>(SB), Y15
	VPXOR        Y0, Y0, Y0
	VPXOR        Y1, Y1, Y1

maxAbsColumn:
	MOVQ  DX, CX
	TESTQ $8, CX
	JZ    maxAbsPairs
	VPAND   (SI), Y15, Y2             // an odd vector first, then pairs
	VPMAXUD Y2, Y0, Y0
	ADDQ    $32, SI
	SUBQ    $8, CX
	JZ      maxAbsNext

maxAbsPairs:
	VPAND   (SI), Y15, Y2
	VPAND   32(SI), Y15, Y3
	VPMAXUD Y2, Y0, Y0
	VPMAXUD Y3, Y1, Y1
	ADDQ    $64, SI
	SUBQ    $16, CX
	JNZ     maxAbsPairs

maxAbsNext:
	ADDQ R9, SI
	DECQ R8
	JNZ  maxAbsColumn

	VPMAXUD      Y1, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPMAXUD      X1, X0, X0
	VPSHUFD      $0x4e, X0, X1        // lanes 2,3,0,1
	VPMAXUD      X1, X0, X0
	VPSHUFD      $0xb1, X0, X1        // lanes 1,0,3,2
	VPMAXUD      X1, X0, X0
	VMOVD        X0, AX
	MOVL         AX, ret+32(FP)
	VZEROUPPER
	RET
