//go:build !race

package grid

import (
	"unsafe"

	"swquake/internal/cpu"
)

//go:noescape
func maxAbsBitsAVX2(row *float32, n int) uint32

// maxAbsBitsVec folds the leading len(row)&^7 cells of row into m in
// assembly and returns the new maximum and how many cells that was (0 when
// the assembly is not in use). A race build keeps the Go loop
// (maxabs_noasm.go), so the detector sees the scan's reads.
func maxAbsBitsVec(m uint32, row []float32) (uint32, int) {
	n := len(row) &^ 7
	if !cpu.AVX2 || n == 0 {
		return m, 0
	}
	return max(m, maxAbsBitsAVX2(unsafe.SliceData(row), n)), n
}
