//go:build !amd64 || race

package plasticity

// Builds without the assembly yield check: every cell runs in the Go row.

func elasticRowVec(xx, yy, zz, xy, xz, yz, cohes, sphi, cphi, pf, sig2, yld []float32) int {
	return 0
}
