//go:build !race

package plasticity

import "unsafe"

// The assembly yield check of sweep_amd64.s and the only code that calls it.
// A race build keeps the Go row (sweep_noasm.go), as in internal/fd.

//go:noescape
func elasticPlaneAVX2(op *[operands]*float32, stride *[operands]uintptr, m, cols, k int) (col, off int)

// elasticPlaneVec runs the yield check over the first m cells (a positive
// multiple of 8) of every column of the plane from cell k of column j on,
// for as long as every lane of a group of eight is elastic, and returns
// where it stopped: the column and cell of the first group that is not, or
// (pl.cols, 0) when there is none. It cuts every operand to the span the
// assembly may touch — from column j's first cell to m cells into the last
// column — so the pointers it passes have just been bounds checked.
func elasticPlaneVec(pl *plane, m, j, k int) (int, int) {
	if j >= pl.cols {
		return pl.cols, 0
	}
	var op [operands]*float32
	var stride [operands]uintptr
	for c, s := range pl.stride {
		if s < 0 {
			panic("plasticity: negative column stride")
		}
		op[c] = unsafe.SliceData(pl.op[c][j*s : (pl.cols-1)*s+m])
		stride[c] = uintptr(s) * 4
	}
	col, off := elasticPlaneAVX2(&op, &stride, m, pl.cols-j, k)
	return j + col, off
}
