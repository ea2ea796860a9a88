//go:build !amd64 || race

package grid

// Builds without the assembly scan: every cell goes through the Go loop.

func maxAbsBitsVec(m uint32, row []float32) (uint32, int) { return m, 0 }
