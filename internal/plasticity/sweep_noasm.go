//go:build !amd64 || race

package plasticity

// Builds without the assembly yield check, where cpu.AVX2 is false: every
// cell runs in the Go row.

func elasticPlaneVec(pl *plane, m, j, k int) (int, int) { return pl.cols, 0 }
