//go:build !race

#include "textflag.h"

DATA absMask<>+0(SB)/4, $0x7fffffff
GLOBL absMask<>(SB), RODATA|NOPTR, $4

// func maxAbsBitsAVX2(row *float32, n int) uint32
//
// The largest sign-cleared bit pattern of the row as an unsigned integer —
// the order maxAbsBits compares in, so every NaN pattern sorts above +Inf —
// eight lanes at a time: VPAND clears the signs, VPMAXUD keeps the larger
// pattern (two accumulators, so consecutive vectors do not wait on each
// other). An integer maximum is the same in any order. n is a positive
// multiple of 8.
TEXT ·maxAbsBitsAVX2(SB), NOSPLIT, $0-20
	MOVQ row+0(FP), SI
	MOVQ n+8(FP), CX
	VPBROADCASTD absMask<>(SB), Y15
	VPXOR        Y0, Y0, Y0
	VPXOR        Y1, Y1, Y1
	TESTQ        $8, CX
	JZ           maxAbsPairs
	VPAND        (SI), Y15, Y2        // an odd vector first, then pairs
	VPMAXUD      Y2, Y0, Y0
	ADDQ         $32, SI
	SUBQ         $8, CX
	JZ           maxAbsReduce

maxAbsPairs:
	VPAND   (SI), Y15, Y2
	VPAND   32(SI), Y15, Y3
	VPMAXUD Y2, Y0, Y0
	VPMAXUD Y3, Y1, Y1
	ADDQ    $64, SI
	SUBQ    $16, CX
	JNZ     maxAbsPairs

maxAbsReduce:
	VPMAXUD      Y1, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPMAXUD      X1, X0, X0
	VPSHUFD      $0x4e, X0, X1        // lanes 2,3,0,1
	VPMAXUD      X1, X0, X0
	VPSHUFD      $0xb1, X0, X1        // lanes 1,0,3,2
	VPMAXUD      X1, X0, X0
	VMOVD        X0, AX
	MOVL         AX, ret+16(FP)
	VZEROUPPER
	RET
