package decomp_test

import (
	"math/rand"
	"testing"

	"swquake/internal/fd"
	"swquake/internal/grid"
	"swquake/internal/model"
)

// TestCGTilingComposesWithKernels is the level-2 counterpart of the
// parallel (level-1) and cgexec (levels 3-4) equality tests: a process
// block is split into core-group tiles (paper Fig. 4 step 2) and each tile
// is advanced through extracted sub-blocks; the result must equal the
// monolithic kernel call.
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

	h := fd.Halo
	for _, tl := range tiles {
		sub := grid.Dims{Nx: d.Nx, Ny: tl.Nj(), Nz: tl.Nk()}
		// extract the tile working set (with stencil halos) for all fields
		fields := tiled.AllFields()
		subs := make([]*grid.Field, len(fields))
		for i, f := range fields {
			subs[i] = f.ExtractSubfield(0, tl.J0, tl.K0, sub, h)
		}
		swf := &fd.Wavefield{D: sub,
			U: subs[0], V: subs[1], W: subs[2],
			XX: subs[3], YY: subs[4], ZZ: subs[5],
			XY: subs[6], XZ: subs[7], YZ: subs[8]}
		fd.UpdateVelocity(swf, med.Sub(0, tl.J0, tl.K0, sub), 0.001, 0, sub.Nz)
		for i, f := range fields {
			f.InsertSubfield(0, tl.J0, tl.K0, subs[i])
		}
	}

	for c, f := range mono.AllFields() {
		if !f.InteriorEqual(tiled.AllFields()[c], 0) {
			t.Fatalf("CG tiling diverges from monolithic kernel in field %d", c)
		}
	}
}
