//go:build !race

package plasticity

import (
	"unsafe"

	"swquake/internal/cpu"
)

// The assembly yield check of sweep_amd64.s and the only code that calls it.
// A race build keeps the Go row (sweep_noasm.go), as in internal/fd.

//go:noescape
func elasticRowAVX2(xx, yy, zz, xy, xz, yz, cohes, sphi, cphi, pf, sig2, yld *float32, n int) int

// elasticRowVec runs the yield check over the leading whole groups of eight
// cells of a row for as long as every lane is elastic, storing yld = 1 for
// them, and returns how many cells that was: a multiple of 8, 0 when the
// assembly is not in use. It cuts every operand to the cells the assembly
// may touch, so the pointers it passes have just been bounds checked.
func elasticRowVec(xx, yy, zz, xy, xz, yz, cohes, sphi, cphi, pf, sig2, yld []float32) int {
	m := len(xx) &^ 7
	if !cpu.AVX2 || m == 0 {
		return 0
	}
	yy, zz, xy, xz, yz = yy[:m], zz[:m], xy[:m], xz[:m], yz[:m]
	cohes, sphi, cphi = cohes[:m], sphi[:m], cphi[:m]
	pf, sig2, yld = pf[:m], sig2[:m], yld[:m]
	return elasticRowAVX2(unsafe.SliceData(xx), unsafe.SliceData(yy), unsafe.SliceData(zz),
		unsafe.SliceData(xy), unsafe.SliceData(xz), unsafe.SliceData(yz),
		unsafe.SliceData(cohes), unsafe.SliceData(sphi), unsafe.SliceData(cphi),
		unsafe.SliceData(pf), unsafe.SliceData(sig2), unsafe.SliceData(yld), m)
}
