//go:build !race

package grid

import (
	"unsafe"

	"swquake/internal/cpu"
)

//go:noescape
func maxAbsPlaneAVX2(a *float32, m, cols int, cs uintptr) uint32

// maxAbsPlaneVec folds the leading n&^7 cells of every column of a plane
// into m in one call to the assembly and returns the new maximum and how
// many cells per column that was (0 when the assembly is not in use). It
// cuts a to the span the assembly reads, (cols-1)*cs + n&^7 elements, so the
// pointer it passes has just been bounds checked. A race build keeps the Go
// loop (maxabs_noasm.go), so the detector sees the scan's reads.
func maxAbsPlaneVec(m uint32, a []float32, n, cols, cs int) (uint32, int) {
	v := n &^ 7
	if !cpu.AVX2 || v == 0 || cols <= 0 {
		return m, 0
	}
	if cs < 0 {
		panic("grid: negative column stride")
	}
	a = a[:(cols-1)*cs+v]
	return max(m, maxAbsPlaneAVX2(unsafe.SliceData(a), v, cols, uintptr(cs)*4)), v
}
