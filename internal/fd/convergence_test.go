package fd

import (
	"math"
	"testing"

	"swquake/internal/grid"
	"swquake/internal/model"
)

// TestSWaveSpeed times the S arrival on the transverse component of a
// shear (double-couple-like) source.
func TestSWaveSpeed(t *testing.T) {
	mat := model.Material{Vp: 4000, Vs: 2310, Rho: 2500}
	d := grid.Dims{Nx: 64, Ny: 12, Nz: 40}
	dx := 100.0
	dt := 0.8 * model.CFLTimeStep(dx, mat.Vp)
	wf := NewWavefield(d)
	med := homogeneousMedium(d, mat)

	srcI, recI, j, k := 10, 50, 6, 25
	f0 := 2.0
	t0 := 1.2 / f0

	var series []float64
	for n := 0; n < 260; n++ {
		amp := float32(ricker(float64(n)*dt, f0, t0) * 1e6)
		wf.XY.Add(srcI, j, k, amp) // pure shear: radiates S along x
		ApplyFreeSurface(wf)
		UpdateVelocityRegion(wf, med, float32(dt/dx), grid.Box(wf.D))
		ApplyFreeSurface(wf)
		UpdateStressRegion(wf, med, float32(dt/dx), grid.Box(wf.D))
		series = append(series, float64(wf.V.At(recI, j, k)))
	}
	best, bestN := 0.0, -1
	for n, v := range series {
		if math.Abs(v) > best {
			best, bestN = math.Abs(v), n
		}
	}
	if bestN < 0 || best == 0 {
		t.Fatal("no S arrival")
	}
	dist := float64(recI-srcI) * dx
	speed := dist / (float64(bestN)*dt - t0)
	if math.Abs(speed-mat.Vs)/mat.Vs > 0.12 {
		t.Fatalf("S speed %.0f m/s, want %.0f ± 12%%", speed, mat.Vs)
	}
}

// TestGridConvergence verifies that refining the grid reduces the solution
// error: a smooth pulse is propagated on a coarse and a 2x-refined grid
// over the same physical domain and time, and the refined run must be
// closer to a 4x reference. With 4th-order space and 2nd-order time at
// fixed CFL the expected gain is ~4x; we require at least 2x to stay
// robust against interpolation noise.
func TestGridConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("long convergence study")
	}
	mat := model.Material{Vp: 4000, Vs: 2310, Rho: 2500}
	lx, lz := 6400.0, 4000.0
	physT := 0.9
	f0 := 2.0 // wavelength 2 km: 5 pts at coarse, 10 at mid, 20 at fine

	// run at grid spacing h, return u(t) at a fixed physical receiver
	run := func(h float64, samples int) []float64 {
		nx := int(lx / h)
		nz := int(lz / h)
		d := grid.Dims{Nx: nx, Ny: 8, Nz: nz}
		wf := NewWavefield(d)
		med := homogeneousMedium(d, mat)
		dt := physT / float64(samples*8) // common multiple of all runs
		steps := samples * 8
		srcI, srcK := int(1600/h), int(2000/h)
		recI, recK := int(4800/h), int(2000/h)

		out := make([]float64, samples)
		for n := 0; n < steps; n++ {
			amp := float32(ricker(float64(n)*dt, f0, 1.2/f0) * 1e6 * (h * h * h) / (400 * 400 * 400))
			wf.XX.Add(srcI, 4, srcK, amp)
			wf.YY.Add(srcI, 4, srcK, amp)
			wf.ZZ.Add(srcI, 4, srcK, amp)
			ApplyFreeSurface(wf)
			UpdateVelocityRegion(wf, med, float32(dt/h), grid.Box(wf.D))
			ApplyFreeSurface(wf)
			UpdateStressRegion(wf, med, float32(dt/h), grid.Box(wf.D))
			if (n+1)%8 == 0 {
				out[(n+1)/8-1] = float64(wf.U.At(recI, 4, recK))
			}
		}
		return out
	}

	samples := 40
	coarse := run(400, samples) // 5 pts/wavelength
	mid := run(200, samples)    // 10
	fine := run(100, samples)   // 20 (reference)

	rms := func(a, b []float64) float64 {
		var num, den float64
		for i := range a {
			dd := a[i] - b[i]
			num += dd * dd
			den += b[i] * b[i]
		}
		return math.Sqrt(num / den)
	}
	eCoarse := rms(coarse, fine)
	eMid := rms(mid, fine)
	if eMid >= eCoarse {
		t.Fatalf("refinement did not reduce error: %g -> %g", eCoarse, eMid)
	}
	if eCoarse/eMid < 2 {
		t.Fatalf("convergence too slow: coarse %g vs mid %g (ratio %.2f)", eCoarse, eMid, eCoarse/eMid)
	}
}
