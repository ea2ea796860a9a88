//go:build !amd64 || race

package fd

// Builds without the assembly plane entries (other architectures, and race
// builds on amd64, where the detector must see the kernels' accesses): the
// vector halves do no cells and every column runs in the Go rows.

func velocityPlaneVec(pl plane, out []float32, dtdx float32, r0, r1, a []float32, as int, b []float32, bs int, c []float32) int {
	return 0
}

func stressDiagPlaneVec(pl plane, xx, yy, zz []float32, dtdx float32, lam, mu, u []float32, us int, v []float32, vs int, w []float32) int {
	return 0
}

func stressShearPlaneVec(pl plane, out []float32, dtdx float32, ra, rb, rc, rd, a []float32, as int, b []float32, bs int) int {
	return 0
}

func attenuationPlaneVec(pl plane, gp []float32, ps int, gs []float32, ss int, xx, yy, zz, xy, xz, yz []float32) int {
	return 0
}

func scalePlaneVec(pl plane, x, f []float32, fs int) bool { return false }
