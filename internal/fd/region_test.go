package fd

import (
	"fmt"
	"testing"

	"swquake/internal/grid"
	"swquake/internal/model"
)

// randomizeWavefield fills every field (halos included) with deterministic
// pseudorandom values in [-1, 1).
func randomizeWavefield(wf *Wavefield, seed uint32) {
	s := seed | 1
	for _, f := range wf.AllFields() {
		for idx := range f.Data {
			s = s*1664525 + 1013904223
			f.Data[idx] = float32(s%1000)/500 - 1
		}
	}
}

// fieldsIdentical compares every value of every field, halos included —
// bit-exact, no tolerance.
func fieldsIdentical(a, b *Wavefield) error {
	names := []string{"u", "v", "w", "xx", "yy", "zz", "xy", "xz", "yz"}
	for c, fa := range a.AllFields() {
		fb := b.AllFields()[c]
		for idx := range fa.Data {
			if fa.Data[idx] != fb.Data[idx] {
				return fmt.Errorf("field %s diverged at flat index %d: %g vs %g",
					names[c], idx, fa.Data[idx], fb.Data[idx])
			}
		}
	}
	return nil
}

// regionPartitions enumerates partition shapes — boxes cut along x, along x
// and y and along all three axes, the overlap interior+shell decomposition,
// and the degenerate one-cell tiling — plus a reversed variant to check
// order independence.
func regionPartitions(d grid.Dims) map[string][]grid.Region {
	box := grid.Box(d)
	parts := map[string][]grid.Region{
		"split2":   box.Split(2, 1, 1),
		"split5":   box.Split(5, 1, 1),
		"split16":  box.Split(10, 2, 1),
		"split222": box.Split(2, 2, 2),
		"cells":    box.Split(d.Nx, d.Ny, d.Nz),
	}
	interior := grid.Region{I0: Halo, I1: d.Nx - Halo, J0: Halo, J1: d.Ny - Halo, K1: d.Nz}
	shells := grid.Box(d).Minus(interior)
	ovl := append([]grid.Region{interior}, shells...)
	parts["interior+shells"] = ovl
	rev := make([]grid.Region, len(ovl))
	for i, r := range ovl {
		rev[len(ovl)-1-i] = r
	}
	parts["shells+interior"] = rev
	return parts
}

// TestRegionPartitionBitExact is the partition property behind the region
// engine: running any stage kernel over any disjoint tiling of the block, in
// any order, must be bit-identical to one full-grid call — the guarantee the
// walk's plane-strips, its wavefront workers and the interior/shell split
// stand on.
func TestRegionPartitionBitExact(t *testing.T) {
	d := grid.Dims{Nx: 10, Ny: 9, Nz: 8}
	mat := model.Material{Vp: 5000, Vs: 2800, Rho: 2600}
	med := homogeneousMedium(d, mat)
	dtdx := float32(0.001)
	const dt = 0.005

	kernels := []struct {
		name string
		run  func(wf *Wavefield, sls *SLS, reg grid.Region)
	}{
		{"velocity", func(wf *Wavefield, _ *SLS, reg grid.Region) {
			UpdateVelocityRegion(wf, med, dtdx, reg)
		}},
		{"stress", func(wf *Wavefield, _ *SLS, reg grid.Region) {
			UpdateStressRegion(wf, med, dtdx, reg)
		}},
		{"sponge", func(wf *Wavefield, _ *SLS, reg grid.Region) {
			sp := NewSponge(d.Nx, d.Ny, d.Nz, 3, 0.08)
			sp.ApplyRegion(wf, reg)
		}},
		{"attenuation", func(wf *Wavefield, _ *SLS, reg grid.Region) {
			at := NewAttenuation(d, ConstantQ{Qp: 80, Qs: 40}, 1, dt)
			at.ApplyRegion(wf, reg)
		}},
		{"sls-after", func(wf *Wavefield, sls *SLS, reg grid.Region) {
			// the stresses move between the snapshot and the update, as the
			// stress kernel moves them in the chain
			var prev StressSnapshot
			prev.Take(wf, reg)
			UpdateStressRegion(wf, med, dtdx, reg)
			sls.AfterRegion(wf, dt, &prev)
		}},
	}

	for _, k := range kernels {
		for name, parts := range regionPartitions(d) {
			ref := NewWavefield(d)
			randomizeWavefield(ref, 7)
			got := ref.Clone()
			// one SLS instance per wavefield: After mutates memory arrays
			refSLS := NewSLS(d, ConstantQ{Qp: 80, Qs: 40}, 1)
			gotSLS := NewSLS(d, ConstantQ{Qp: 80, Qs: 40}, 1)

			k.run(ref, refSLS, grid.Box(d))
			for _, reg := range parts {
				k.run(got, gotSLS, reg)
			}
			if err := fieldsIdentical(ref, got); err != nil {
				t.Fatalf("%s over partition %q: %v", k.name, name, err)
			}
		}
	}
}

// TestRegionWrappersMatchLegacySignatures pins the thin (k0,k1) wrappers to
// their Region bodies, so external callers (cgexec, rupture, benchmarks)
// keep bit-exact behaviour through the refactor.
func TestRegionWrappersMatchLegacySignatures(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 7, Nz: 10}
	med := homogeneousMedium(d, model.Material{Vp: 5000, Vs: 2800, Rho: 2600})
	dtdx := float32(0.001)

	a := NewWavefield(d)
	randomizeWavefield(a, 3)
	b := a.Clone()

	UpdateVelocity(a, med, dtdx, 2, 7)
	UpdateVelocityRegion(b, med, dtdx, grid.FullXY(d, 2, 7))
	UpdateStress(a, med, dtdx, 0, d.Nz)
	UpdateStressRegion(b, med, dtdx, grid.FullXY(d, 0, d.Nz))
	if err := fieldsIdentical(a, b); err != nil {
		t.Fatal(err)
	}

	// ApplyFreeSurface must equal the column-restricted form over the full
	// halo-extended column range
	ApplyFreeSurface(a)
	ApplyFreeSurfaceCols(b, -Halo, d.Nx+Halo, -Halo, d.Ny+Halo)
	if err := fieldsIdentical(a, b); err != nil {
		t.Fatal(err)
	}
}
