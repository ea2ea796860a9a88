//go:build !amd64 || race

package grid

// Builds without the assembly scan: every cell goes through the Go loop.

func maxAbsPlaneVec(m uint32, a []float32, n, cols, cs int) (uint32, int) { return m, 0 }
