package decomp_test

import (
	"math/rand"
	"testing"

	"swquake/internal/fd"
	"swquake/internal/grid"
	"swquake/internal/model"
)

// TestCGTilingComposesWithKernels is the level-2 counterpart of the
// parallel (level-1) equality tests: a process block is split into
// core-group tiles (paper Fig. 4 step 2) and each tile is advanced in place
// by the region kernels, velocity over every tile and then stress; the
// result must equal the monolithic kernel calls.
func TestCGTilingComposesWithKernels(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 21, Nz: 26}
	mat := model.Material{Vp: 5000, Vs: 2887, Rho: 2700}
	lam, mu := mat.Lame()

	makeState := func(seed int64) (*fd.Wavefield, *fd.Medium) {
		wf := fd.NewWavefield(d)
		rng := rand.New(rand.NewSource(seed))
		for _, f := range wf.AllFields() {
			for i := range f.Data {
				f.Data[i] = rng.Float32()*2 - 1
			}
		}
		med := fd.NewMedium(d)
		med.Rho.Fill(float32(mat.Rho))
		med.Lam.Fill(float32(lam))
		med.Mu.Fill(float32(mu))
		return wf, med
	}

	mono, med := makeState(5)
	tiled := mono.Clone()

	// three by three near-equal (y,z) tiles, as a core group would take them
	tiles := grid.Box(d).Split(1, 3, 3)

	fd.UpdateVelocity(mono, med, 0.001, 0, d.Nz)
	fd.UpdateStress(mono, med, 0.001, 0, d.Nz)
	for _, tl := range tiles {
		fd.UpdateVelocityRegion(tiled, med, 0.001, tl)
	}
	for _, tl := range tiles {
		fd.UpdateStressRegion(tiled, med, 0.001, tl)
	}

	for c, f := range mono.AllFields() {
		if !f.InteriorEqual(tiled.AllFields()[c], 0) {
			t.Fatalf("CG tiling diverges from monolithic kernel in field %d", c)
		}
	}
}
