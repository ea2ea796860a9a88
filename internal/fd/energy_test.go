package fd

import (
	"math"
	"testing"

	"swquake/internal/grid"
	"swquake/internal/model"
)

func TestEnergyZeroField(t *testing.T) {
	d := grid.Dims{Nx: 6, Ny: 6, Nz: 6}
	wf := NewWavefield(d)
	med := homogeneousMedium(d, model.Material{Vp: 4000, Vs: 2310, Rho: 2500})
	e := ComputeEnergy(wf, med)
	if e.Kinetic != 0 || e.Strain != 0 || e.Total() != 0 {
		t.Fatalf("quiescent energy %+v", e)
	}
}

func TestKineticEnergyValue(t *testing.T) {
	d := grid.Dims{Nx: 4, Ny: 4, Nz: 4}
	wf := NewWavefield(d)
	med := homogeneousMedium(d, model.Material{Vp: 4000, Vs: 2310, Rho: 2000})
	wf.U.FillInterior(3)
	e := ComputeEnergy(wf, med)
	want := 0.5 * 2000 * 9 * 64 // 1/2 rho u^2 per point x 64 points
	if math.Abs(e.Kinetic-want)/want > 1e-9 {
		t.Fatalf("kinetic %g want %g", e.Kinetic, want)
	}
	if e.Strain != 0 {
		t.Fatal("pure motion has no strain energy")
	}
}

func TestStrainEnergyUniaxialConsistency(t *testing.T) {
	// uniaxial stress sigma: strain energy density = sigma^2 / (2E) with
	// E = mu(3 lambda + 2 mu)/(lambda + mu)
	mat := model.Material{Vp: 4000, Vs: 2310, Rho: 2500}
	lam, mu := mat.Lame()
	d := grid.Dims{Nx: 2, Ny: 2, Nz: 2}
	wf := NewWavefield(d)
	med := homogeneousMedium(d, mat)
	sigma := 1e6
	wf.XX.FillInterior(float32(sigma))
	e := ComputeEnergy(wf, med)
	young := mu * (3*lam + 2*mu) / (lam + mu)
	want := sigma * sigma / (2 * young) * 8
	if math.Abs(e.Strain-want)/want > 1e-4 {
		t.Fatalf("strain %g want %g", e.Strain, want)
	}
}

func TestEnergyEquipartitionDuringPropagation(t *testing.T) {
	// once the source stops, a propagating wavefield keeps kinetic and
	// strain energy within the same order (virial-like balance) and the
	// total stays bounded
	mat := model.Material{Vp: 4000, Vs: 2310, Rho: 2500}
	d := grid.Dims{Nx: 24, Ny: 24, Nz: 24}
	wf := NewWavefield(d)
	med := homogeneousMedium(d, mat)
	dtdx := float32(0.8 * model.CFLTimeStep(1, mat.Vp))
	for n := 0; n < 10; n++ {
		amp := float32(ricker(float64(n)*0.002, 25, 0.02) * 1e6)
		wf.XX.Add(12, 12, 12, amp)
		wf.YY.Add(12, 12, 12, amp)
		wf.ZZ.Add(12, 12, 12, amp)
		ApplyFreeSurface(wf)
		UpdateVelocityRegion(wf, med, dtdx, grid.Box(wf.D))
		ApplyFreeSurface(wf)
		UpdateStressRegion(wf, med, dtdx, grid.Box(wf.D))
	}
	e0 := ComputeEnergy(wf, med)
	for n := 0; n < 60; n++ {
		ApplyFreeSurface(wf)
		UpdateVelocityRegion(wf, med, dtdx, grid.Box(wf.D))
		ApplyFreeSurface(wf)
		UpdateStressRegion(wf, med, dtdx, grid.Box(wf.D))
	}
	e1 := ComputeEnergy(wf, med)
	if e1.Total() > e0.Total()*1.1 {
		t.Fatalf("energy grew: %g -> %g", e0.Total(), e1.Total())
	}
	ratio := e1.Kinetic / e1.Strain
	if ratio < 0.2 || ratio > 5 {
		t.Fatalf("kinetic/strain ratio %g far from equipartition", ratio)
	}
}

func TestFluidCellSkipsStrain(t *testing.T) {
	d := grid.Dims{Nx: 2, Ny: 2, Nz: 2}
	wf := NewWavefield(d)
	med := NewMedium(d)
	med.Rho.Fill(1000)
	med.Lam.Fill(2e9)
	med.Mu.Fill(0) // fluid: the mu-based compliance is singular, skipped
	wf.XX.FillInterior(1e5)
	e := ComputeEnergy(wf, med)
	if e.Strain != 0 {
		t.Fatalf("fluid strain energy %g (cell must be skipped)", e.Strain)
	}
}
