package fd

import (
	"fmt"
	"math"
	"testing"

	"swquake/internal/grid"
	"swquake/internal/model"
)

func homogeneousMedium(d grid.Dims, m model.Material) *Medium {
	med := NewMedium(d)
	lam, mu := m.Lame()
	med.Rho.Fill(float32(m.Rho))
	med.Lam.Fill(float32(lam))
	med.Mu.Fill(float32(mu))
	return med
}

// ricker returns a Ricker wavelet value at time t with peak frequency f0.
func ricker(t, f0, t0 float64) float64 {
	a := math.Pi * f0 * (t - t0)
	return (1 - 2*a*a) * math.Exp(-a*a)
}

func TestQuiescentStaysZero(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	wf := NewWavefield(d)
	med := homogeneousMedium(d, model.Material{Vp: 6000, Vs: 3464, Rho: 2700})
	for n := 0; n < 10; n++ {
		ApplyFreeSurface(wf)
		UpdateVelocityRegion(wf, med, 0.001, grid.Box(wf.D))
		ApplyFreeSurface(wf)
		UpdateStressRegion(wf, med, 0.001, grid.Box(wf.D))
	}
	for _, f := range wf.AllFields() {
		if f.MaxAbs() != 0 {
			t.Fatal("quiescent field became nonzero")
		}
	}
}

func TestHarmonic4(t *testing.T) {
	if got := harmonic4(2, 2, 2, 2); got != 2 {
		t.Fatalf("harmonic of equal values = %v", got)
	}
	if got := harmonic4(1, 0, 3, 4); got != 0 {
		t.Fatalf("zero modulus must dominate, got %v", got)
	}
	got := harmonic4(1, 2, 4, 8)
	want := float32(4 / (1.0 + 0.5 + 0.25 + 0.125))
	if math.Abs(float64(got-want)) > 1e-6 {
		t.Fatalf("harmonic4 = %v want %v", got, want)
	}
	// harmonic <= arithmetic mean
	if got > (1+2+4+8)/4.0 {
		t.Fatal("harmonic exceeds arithmetic mean")
	}
}

func TestPWaveSpeed(t *testing.T) {
	// explosion source in a homogeneous medium; time the P arrival along x.
	mat := model.Material{Vp: 4000, Vs: 2310, Rho: 2500}
	d := grid.Dims{Nx: 64, Ny: 12, Nz: 40}
	dx := 100.0
	dt := 0.8 * model.CFLTimeStep(dx, mat.Vp)
	wf := NewWavefield(d)
	med := homogeneousMedium(d, mat)

	srcI, srcJ, srcK := 10, 6, 25
	recI, recJ, recK := 54, 6, 25
	f0 := 2.5 // Hz; wavelength = 1600 m = 16 grid points
	t0 := 1.2 / f0

	var series []float64
	steps := 160
	for n := 0; n < steps; n++ {
		amp := float32(ricker(float64(n)*dt, f0, t0) * 1e6)
		wf.XX.Add(srcI, srcJ, srcK, amp)
		wf.YY.Add(srcI, srcJ, srcK, amp)
		wf.ZZ.Add(srcI, srcJ, srcK, amp)
		ApplyFreeSurface(wf)
		UpdateVelocityRegion(wf, med, float32(dt/dx), grid.Box(wf.D))
		ApplyFreeSurface(wf)
		UpdateStressRegion(wf, med, float32(dt/dx), grid.Box(wf.D))
		series = append(series, float64(wf.U.At(recI, recJ, recK)))
	}

	// pick the time of maximum |u| as the arrival of the P pulse peak
	best, bestN := 0.0, -1
	for n, v := range series {
		if math.Abs(v) > best {
			best, bestN = math.Abs(v), n
		}
	}
	if bestN < 0 || best == 0 {
		t.Fatal("no arrival recorded")
	}
	dist := float64(recI-srcI) * dx
	travel := float64(bestN)*dt - t0 // peak left the source at t0
	speed := dist / travel
	if math.Abs(speed-mat.Vp)/mat.Vp > 0.10 {
		t.Fatalf("P speed %.0f m/s, want %.0f ± 10%%", speed, mat.Vp)
	}
}

func TestPointSourceSymmetry(t *testing.T) {
	// an isotropic source at the x-y center must produce a wavefield
	// symmetric under x<->y exchange (same extents, same position).
	n := 24
	d := grid.Dims{Nx: n, Ny: n, Nz: 16}
	mat := model.Material{Vp: 4000, Vs: 2310, Rho: 2500}
	wf := NewWavefield(d)
	med := homogeneousMedium(d, mat)
	dtdx := float32(0.8 * model.CFLTimeStep(1, mat.Vp))

	c := n/2 - 1 // with u staggered at i+1/2, x<->y symmetry maps u(i,j)->v(j,i)
	for step := 0; step < 12; step++ {
		amp := float32(ricker(float64(step)*0.01, 8, 0.06) * 1e6)
		wf.XX.Add(c, c, 8, amp)
		wf.YY.Add(c, c, 8, amp)
		wf.ZZ.Add(c, c, 8, amp)
		ApplyFreeSurface(wf)
		UpdateVelocityRegion(wf, med, dtdx, grid.Box(wf.D))
		ApplyFreeSurface(wf)
		UpdateStressRegion(wf, med, dtdx, grid.Box(wf.D))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < 16; k++ {
				a := wf.U.At(i, j, k)
				b := wf.V.At(j, i, k)
				if math.Abs(float64(a-b)) > 1e-3*math.Max(1, math.Abs(float64(a))) {
					t.Fatalf("x<->y symmetry broken at (%d,%d,%d): u=%g v=%g", i, j, k, a, b)
				}
			}
		}
	}
}

func totalFieldEnergy(wf *Wavefield) float64 {
	var e float64
	for _, f := range wf.AllFields() {
		for i := 0; i < f.Nx; i++ {
			for j := 0; j < f.Ny; j++ {
				for _, v := range f.Row(i, j) {
					e += float64(v) * float64(v)
				}
			}
		}
	}
	return e
}

func TestStabilityNoEnergyGrowth(t *testing.T) {
	// after the source stops, the leapfrog scheme with free surface +
	// rigid edges must not gain energy (stability at CFL 0.8).
	mat := model.Material{Vp: 4000, Vs: 2310, Rho: 2500}
	d := grid.Dims{Nx: 20, Ny: 20, Nz: 20}
	wf := NewWavefield(d)
	med := homogeneousMedium(d, mat)
	dtdx := float32(0.8 * model.CFLTimeStep(1, mat.Vp))

	for stepN := 0; stepN < 10; stepN++ {
		amp := float32(ricker(float64(stepN)*0.002, 25, 0.02) * 1e6)
		wf.XX.Add(10, 10, 10, amp)
		wf.YY.Add(10, 10, 10, amp)
		wf.ZZ.Add(10, 10, 10, amp)
		ApplyFreeSurface(wf)
		UpdateVelocityRegion(wf, med, dtdx, grid.Box(wf.D))
		ApplyFreeSurface(wf)
		UpdateStressRegion(wf, med, dtdx, grid.Box(wf.D))
	}
	e0 := totalFieldEnergy(wf)
	for stepN := 0; stepN < 200; stepN++ {
		ApplyFreeSurface(wf)
		UpdateVelocityRegion(wf, med, dtdx, grid.Box(wf.D))
		ApplyFreeSurface(wf)
		UpdateStressRegion(wf, med, dtdx, grid.Box(wf.D))
	}
	e1 := totalFieldEnergy(wf)
	if e1 > e0*1.10 {
		t.Fatalf("energy grew from %g to %g", e0, e1)
	}
	if e1 <= 0 {
		t.Fatal("field died unexpectedly")
	}
}

func TestRangeSplitMatchesFullUpdate(t *testing.T) {
	// updating [0,Nz) in one call must equal updating [0,m) then [m,Nz) —
	// the property the compressed slab execution relies on.
	mat := model.Material{Vp: 5000, Vs: 2800, Rho: 2600}
	d := grid.Dims{Nx: 12, Ny: 12, Nz: 24}
	med := homogeneousMedium(d, mat)
	a := NewWavefield(d)
	// random-ish initial state
	s := uint32(1)
	for _, f := range a.AllFields() {
		for idx := range f.Data {
			s = s*1664525 + 1013904223
			f.Data[idx] = float32(s%1000)/500 - 1
		}
	}
	b := a.Clone()
	dtdx := float32(0.001)

	UpdateVelocity(a, med, dtdx, 0, d.Nz)
	UpdateVelocity(b, med, dtdx, 0, 9)
	UpdateVelocity(b, med, dtdx, 9, d.Nz)
	for c, fa := range a.AllFields() {
		if !fa.InteriorEqual(b.AllFields()[c], 0) {
			t.Fatalf("velocity range split diverged in field %d", c)
		}
	}

	UpdateStress(a, med, dtdx, 0, d.Nz)
	UpdateStress(b, med, dtdx, 0, 17)
	UpdateStress(b, med, dtdx, 17, d.Nz)
	for c, fa := range a.AllFields() {
		if !fa.InteriorEqual(b.AllFields()[c], 0) {
			t.Fatalf("stress range split diverged in field %d", c)
		}
	}
}

func TestFreeSurfaceImages(t *testing.T) {
	d := grid.Dims{Nx: 6, Ny: 6, Nz: 6}
	wf := NewWavefield(d)
	wf.ZZ.Set(2, 2, 0, 5)
	wf.ZZ.Set(2, 2, 1, 3)
	wf.XZ.Set(2, 2, 0, 7)
	wf.U.Set(2, 2, 0, 11)
	wf.W.Set(2, 2, 1, 13)
	ApplyFreeSurface(wf)
	if wf.ZZ.At(2, 2, -1) != -5 || wf.ZZ.At(2, 2, -2) != -3 {
		t.Fatalf("zz images: %v %v", wf.ZZ.At(2, 2, -1), wf.ZZ.At(2, 2, -2))
	}
	if wf.XZ.At(2, 2, -1) != -7 {
		t.Fatalf("xz image: %v", wf.XZ.At(2, 2, -1))
	}
	if wf.U.At(2, 2, -1) != 11 {
		t.Fatalf("u image: %v", wf.U.At(2, 2, -1))
	}
	if wf.W.At(2, 2, -2) != 13 {
		t.Fatalf("w image: %v", wf.W.At(2, 2, -2))
	}
}

func TestMediumFromModelSamplesDepth(t *testing.T) {
	lay, err := model.NewLayered([]model.Layer{
		{Top: 0, M: model.Material{Vp: 2000, Vs: 1000, Rho: 2000}},
		{Top: 500, M: model.Material{Vp: 6000, Vs: 3400, Rho: 2700}},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := grid.Dims{Nx: 4, Ny: 4, Nz: 12}
	med := NewMediumFromModel(d, 100, lay, 0, 0)
	if med.Rho.At(0, 0, 0) != 2000 {
		t.Fatalf("surface rho %v", med.Rho.At(0, 0, 0))
	}
	if med.Rho.At(0, 0, 11) != 2700 {
		t.Fatalf("deep rho %v", med.Rho.At(0, 0, 11))
	}
	// halo must be filled by clamped sampling, not zeros
	if med.Rho.At(-1, -1, -1) != 2000 {
		t.Fatalf("halo rho %v", med.Rho.At(-1, -1, -1))
	}
	if med.Rho.At(0, 0, 13) != 2700 {
		t.Fatalf("bottom halo rho %v", med.Rho.At(0, 0, 13))
	}
	if err := med.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestMediumFromModelMatchesPointSampling: the medium sampled column by
// column holds, halos included, the bits of one sampled point by point (the
// loop NewMediumFromModel used to be) — density, both moduli and the
// reciprocal shear modulus — for models with and without a column path, for
// a whole domain and for the blocks of a 2x2 decomposition at their offsets.
func TestMediumFromModelMatchesPointSampling(t *testing.T) {
	d := grid.Dims{Nx: 12, Ny: 10, Nz: 14}
	const dx = 100.0
	lx, ly, lz := float64(d.Nx)*dx, float64(d.Ny)*dx, float64(d.Nz)*dx
	basin := model.ScaledTangshan(lx, ly, lz)
	models := map[string]model.Model{
		"layered":       basin.Background,
		"basin":         basin,
		"heterogeneous": model.NewHeterogeneous(basin, 0.05, 3*dx, lx, ly, lz, 11),
		"grid":          model.NewGridModel(basin, 5, 5, 8, lx/4, ly/4, lz/7),
	}
	pointSampled := func(b grid.Dims, m model.Model, ox, oy float64) *Medium {
		med := NewMedium(b)
		for i := -Halo; i < b.Nx+Halo; i++ {
			for j := -Halo; j < b.Ny+Halo; j++ {
				for k := -Halo; k < b.Nz+Halo; k++ {
					mat := m.Sample(ox+float64(i)*dx, oy+float64(j)*dx, float64(min(max(k, 0), b.Nz-1))*dx)
					lam, mu := mat.Lame()
					med.Rho.Set(i, j, k, float32(mat.Rho))
					med.Lam.Set(i, j, k, float32(lam))
					med.Mu.Set(i, j, k, float32(mu))
				}
			}
		}
		return med
	}
	same := func(what string, want, got *grid.Field) {
		t.Helper()
		for idx := range want.Data {
			if math.Float32bits(want.Data[idx]) != math.Float32bits(got.Data[idx]) {
				t.Fatalf("%s differs at flat index %d: %g, point-sampled %g", what, idx, got.Data[idx], want.Data[idx])
			}
		}
	}
	half := grid.Dims{Nx: d.Nx / 2, Ny: d.Ny / 2, Nz: d.Nz}
	for name, m := range models {
		for _, blk := range []struct {
			b      grid.Dims
			ox, oy float64
		}{{d, 0, 0}, {half, 0, 0}, {half, lx / 2, 0}, {half, 0, ly / 2}, {half, lx / 2, ly / 2}} {
			want, got := pointSampled(blk.b, m, blk.ox, blk.oy), NewMediumFromModel(blk.b, dx, m, blk.ox, blk.oy)
			what := fmt.Sprintf("%s %v at (%g,%g)", name, blk.b, blk.ox, blk.oy)
			same(what+" rho", want.Rho, got.Rho)
			same(what+" lam", want.Lam, got.Lam)
			same(what+" mu", want.Mu, got.Mu)
			same(what+" 1/mu", want.recipMu(), got.recipMu())
		}
	}
	if lo, hi := NewMediumFromModel(d, dx, basin, 0, 0).Mu.MinMax(); lo == hi {
		t.Fatal("the basin medium is uniform; the test would compare nothing")
	}
}

func TestMediumValidateCatchesBadDensity(t *testing.T) {
	med := NewMedium(grid.Dims{Nx: 3, Ny: 3, Nz: 3})
	med.Rho.FillInterior(2000)
	med.Rho.Set(1, 1, 1, 0)
	if err := med.Validate(); err == nil {
		t.Fatal("zero density not caught")
	}
}

func TestWavefieldCloneIndependent(t *testing.T) {
	wf := NewWavefield(grid.Dims{Nx: 4, Ny: 4, Nz: 4})
	wf.U.Set(1, 1, 1, 5)
	c := wf.Clone()
	c.U.Set(1, 1, 1, 9)
	if wf.U.At(1, 1, 1) != 5 {
		t.Fatal("clone shares storage")
	}
	if wf.Bytes() != c.Bytes() || wf.Bytes() == 0 {
		t.Fatal("Bytes mismatch")
	}
}

func TestSpongeProfile(t *testing.T) {
	s := NewSponge(30, 30, 30, 5, 0.2)
	if s.Factor(15, 15, 15) != 1 {
		t.Fatalf("interior damped: %v", s.Factor(15, 15, 15))
	}
	if s.Factor(0, 15, 15) >= 1 {
		t.Fatal("x- boundary not damped")
	}
	if s.Factor(29, 15, 15) >= 1 {
		t.Fatal("x+ boundary not damped")
	}
	if s.Factor(15, 15, 29) >= 1 {
		t.Fatal("bottom not damped")
	}
	if s.Factor(15, 15, 0) != 1 {
		t.Fatal("free surface must not be damped")
	}
	// monotone decrease toward the edge
	if !(s.Factor(0, 15, 15) < s.Factor(2, 15, 15) && s.Factor(2, 15, 15) < s.Factor(4, 15, 15)) {
		t.Fatal("damping not monotone into the sponge")
	}
}

func TestSpongeAbsorbsEnergy(t *testing.T) {
	mat := model.Material{Vp: 4000, Vs: 2310, Rho: 2500}
	d := grid.Dims{Nx: 30, Ny: 30, Nz: 30}
	med := homogeneousMedium(d, mat)
	dtdx := float32(0.8 * model.CFLTimeStep(1, mat.Vp))
	sponge := NewSponge(30, 30, 30, 6, 0.15)

	run := func(useSponge bool) float64 {
		wf := NewWavefield(d)
		for stepN := 0; stepN < 10; stepN++ {
			amp := float32(ricker(float64(stepN)*0.002, 25, 0.02) * 1e6)
			wf.XX.Add(15, 15, 15, amp)
			wf.YY.Add(15, 15, 15, amp)
			wf.ZZ.Add(15, 15, 15, amp)
			ApplyFreeSurface(wf)
			UpdateVelocityRegion(wf, med, dtdx, grid.Box(wf.D))
			ApplyFreeSurface(wf)
			UpdateStressRegion(wf, med, dtdx, grid.Box(wf.D))
		}
		for stepN := 0; stepN < 150; stepN++ {
			ApplyFreeSurface(wf)
			UpdateVelocityRegion(wf, med, dtdx, grid.Box(wf.D))
			ApplyFreeSurface(wf)
			UpdateStressRegion(wf, med, dtdx, grid.Box(wf.D))
			if useSponge {
				sponge.ApplyRegion(wf, grid.Box(d))
			}
		}
		return totalFieldEnergy(wf)
	}

	with, without := run(true), run(false)
	if with >= without*0.5 {
		t.Fatalf("sponge absorbed too little: with=%g without=%g", with, without)
	}
}
