package plasticity

import (
	"math"
	"testing"
	"testing/quick"

	"swquake/internal/fd"
	"swquake/internal/grid"
)

func dims() grid.Dims { return grid.Dims{Nx: 6, Ny: 6, Nz: 6} }

func setup(tau float32, c, phiDeg, pf float64) (*fd.Wavefield, *Params) {
	d := dims()
	wf := fd.NewWavefield(d)
	p := NewParams(d)
	p.SetUniform(c, phiDeg*math.Pi/180, pf)
	// pure shear state of magnitude tau on every point
	wf.XY.FillInterior(tau)
	return wf, p
}

func TestElasticStateUntouched(t *testing.T) {
	// τ̄ = |xy| = 1e5, yield = c cosφ with c=1e6, φ=30° => Y ≈ 8.66e5 > τ̄
	wf, p := setup(1e5, 1e6, 30, 0)
	before := wf.Clone()
	n := ApplyRegion(wf, p, 0.01, grid.Box(wf.D))
	if n != 0 {
		t.Fatalf("%d points yielded below the surface", n)
	}
	for c, f := range wf.StressFields() {
		sameBits(t, "elastic stress", before.StressFields()[c], f)
	}
}

func TestYieldScalesDeviatorOntoSurface(t *testing.T) {
	// τ̄ = 2e6 > Y = 1e6·cos30 ≈ 8.66e5: instantaneous return map
	wf, p := setup(2e6, 1e6, 30, 0)
	n := ApplyRegion(wf, p, 0.01, grid.Box(wf.D))
	if int64(n) != dims().Points() {
		t.Fatalf("yielded %d of %d", n, dims().Points())
	}
	want := float32(1e6 * math.Cos(30*math.Pi/180))
	got := wf.XY.At(2, 2, 2)
	if math.Abs(float64(got-want))/float64(want) > 1e-5 {
		t.Fatalf("post-yield |xy| = %g, want %g (on the yield surface)", got, want)
	}
	// a pure shear state has no deviator on the diagonal: the return map
	// scales the shear alone, by the yield factor r = xy after / xy before
	if r := got / 2e6; !(r > 0 && r < 1) {
		t.Fatalf("yield factor %g not in (0,1)", r)
	}
	if wf.XX.At(2, 2, 2) != 0 || wf.XZ.At(2, 2, 2) != 0 {
		t.Fatalf("return map moved stresses that carry no deviator: xx %g, xz %g", wf.XX.At(2, 2, 2), wf.XZ.At(2, 2, 2))
	}
}

func TestMeanStressPreserved(t *testing.T) {
	// the return map must leave the mean stress untouched
	d := dims()
	wf := fd.NewWavefield(d)
	p := NewParams(d)
	p.SetUniform(1e5, math.Pi/6, 0)
	wf.XX.FillInterior(3e6)
	wf.YY.FillInterior(-1e6)
	wf.ZZ.FillInterior(1e6)
	wf.XY.FillInterior(2e6)
	smBefore := (wf.XX.At(2, 2, 2) + wf.YY.At(2, 2, 2) + wf.ZZ.At(2, 2, 2)) / 3
	if n := ApplyRegion(wf, p, 0.01, grid.Box(wf.D)); n == 0 {
		t.Fatal("expected yielding")
	}
	smAfter := (wf.XX.At(2, 2, 2) + wf.YY.At(2, 2, 2) + wf.ZZ.At(2, 2, 2)) / 3
	if math.Abs(float64(smAfter-smBefore)) > 1 {
		t.Fatalf("mean stress changed: %g -> %g", smBefore, smAfter)
	}
}

func TestCompressionRaisesYield(t *testing.T) {
	// deeper (more compressive σm via Sigma2) points resist more: with the
	// same shear load, shallow points yield while deep points hold.
	d := dims()
	wf := fd.NewWavefield(d)
	p := NewParams(d)
	p.SetUniform(1e5, math.Pi/6, 0) // small cohesion, φ=30°
	p.SetLithostatic(100, 2500)     // σ2 grows with k
	wf.XY.FillInterior(1e6)

	if n := ApplyRegion(wf, p, 0.01, grid.Box(wf.D)); n == 0 {
		t.Fatal("nothing yielded")
	}
	// the yield factor r scales the shear: r = xy after / xy before
	shallow := wf.XY.At(2, 2, 0) / 1e6
	deep := wf.XY.At(2, 2, d.Nz-1) / 1e6
	if !(shallow < 1) {
		t.Fatalf("shallow point did not yield (r=%g)", shallow)
	}
	if !(deep > shallow) {
		t.Fatalf("confinement must strengthen: r_deep=%g r_shallow=%g", deep, shallow)
	}
}

func TestFluidPressureWeakens(t *testing.T) {
	// pore pressure counteracts confinement: with Pf > 0 the same state
	// yields more (smaller r).
	run := func(pf float64) float32 {
		d := dims()
		wf := fd.NewWavefield(d)
		p := NewParams(d)
		p.SetUniform(1e5, math.Pi/6, pf)
		p.Sigma2.Fill(-5e6) // uniform confinement
		wf.XY.FillInterior(3e6)
		if n := ApplyRegion(wf, p, 0.01, grid.Box(wf.D)); int64(n) != d.Points() {
			t.Fatalf("Pf %g: %d of %d cells yielded", pf, n, d.Points())
		}
		return wf.XY.At(2, 2, 2) / 3e6 // the yield factor r scales the shear
	}
	dry, wet := run(0), run(4e6)
	if !(wet < dry) {
		t.Fatalf("fluid pressure must weaken: wet r=%g dry r=%g", wet, dry)
	}
}

func TestTensileRegimeZeroYield(t *testing.T) {
	// strong tension drives Y to zero: the deviator must vanish entirely.
	d := dims()
	wf := fd.NewWavefield(d)
	p := NewParams(d)
	p.SetUniform(1e4, math.Pi/4, 0)
	wf.XX.FillInterior(5e6) // tensile mean stress 5e6/3 >> c·cosφ/sinφ
	wf.XY.FillInterior(1e6)
	if n := ApplyRegion(wf, p, 0.01, grid.Box(wf.D)); int64(n) != d.Points() {
		t.Fatalf("%d of %d cells yielded in tension", n, d.Points())
	}
	if got := wf.XY.At(2, 2, 2); got != 0 {
		t.Fatalf("tensile failure must zero the shear deviator, got %g", got)
	}
	// yield factor 0: the whole deviator goes, the mean stress stays
	sm := float32(5e6) / 3
	for _, f := range []*grid.Field{wf.XX, wf.YY, wf.ZZ} {
		if got := f.At(2, 2, 2); math.Abs(float64(got-sm)) > 1 {
			t.Fatalf("diagonal stress %g after a zero yield factor, want the mean %g", got, sm)
		}
	}
}

func TestViscoplasticRelaxationPartial(t *testing.T) {
	// with Tv >> dt the stress only partially returns toward the surface
	instant, relaxed := func() (float32, float32) {
		wfA, pA := setup(2e6, 1e6, 30, 0)
		ApplyRegion(wfA, pA, 0.01, grid.Box(wfA.D))

		wfB, pB := setup(2e6, 1e6, 30, 0)
		pB.Tv = 0.05 // 5x dt
		ApplyRegion(wfB, pB, 0.01, grid.Box(wfB.D))
		return wfA.XY.At(2, 2, 2), wfB.XY.At(2, 2, 2)
	}()
	if !(relaxed > instant) {
		t.Fatalf("viscoplastic must retain more stress: relaxed=%g instant=%g", relaxed, instant)
	}
	if relaxed >= 2e6 {
		t.Fatal("viscoplastic must still relax some stress")
	}
}

func TestYieldFunction(t *testing.T) {
	d := dims()
	p := NewParams(d)
	p.SetUniform(1e6, math.Pi/6, 0)
	// compression (negative sm) raises yield above the cohesion term
	yc := p.Yield(0, 0, 0, -2e6)
	y0 := p.Yield(0, 0, 0, 0)
	if !(yc > y0) {
		t.Fatalf("compression must raise yield: %g vs %g", yc, y0)
	}
	// strong tension clamps at zero
	if y := p.Yield(0, 0, 0, 1e9); y != 0 {
		t.Fatalf("tension yield %g, want 0", y)
	}
}

func TestApplyIdempotentOnSurface(t *testing.T) {
	// applying twice must not shrink stresses further (the state is already
	// on the yield surface after the first return map).
	wf, p := setup(2e6, 1e6, 30, 0)
	ApplyRegion(wf, p, 0.01, grid.Box(wf.D))
	first := wf.XY.At(2, 2, 2)
	ApplyRegion(wf, p, 0.01, grid.Box(wf.D))
	second := wf.XY.At(2, 2, 2)
	if math.Abs(float64(second-first)) > math.Abs(float64(first))*1e-4 {
		t.Fatalf("second application moved stress: %g -> %g", first, second)
	}
}

func TestQuickReturnMapNeverIncreasesJ2(t *testing.T) {
	d := grid.Dims{Nx: 1, Ny: 1, Nz: 1}
	fn := func(sxx, syy, szz, sxy, sxz, syz float32) bool {
		if bad(sxx) || bad(syy) || bad(szz) || bad(sxy) || bad(sxz) || bad(syz) {
			return true
		}
		wf := fd.NewWavefield(d)
		p := NewParams(d)
		p.SetUniform(1e5, math.Pi/6, 0)
		wf.XX.Set(0, 0, 0, sxx)
		wf.YY.Set(0, 0, 0, syy)
		wf.ZZ.Set(0, 0, 0, szz)
		wf.XY.Set(0, 0, 0, sxy)
		wf.XZ.Set(0, 0, 0, sxz)
		wf.YZ.Set(0, 0, 0, syz)
		before := j2(wf)
		ApplyRegion(wf, p, 0.01, grid.Box(wf.D))
		after := j2(wf)
		return after <= before*(1+1e-5)+1e-3
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func bad(v float32) bool {
	f := float64(v)
	return math.IsNaN(f) || math.IsInf(f, 0) || math.Abs(f) > 1e18
}

func j2(wf *fd.Wavefield) float64 {
	xx := float64(wf.XX.At(0, 0, 0))
	yy := float64(wf.YY.At(0, 0, 0))
	zz := float64(wf.ZZ.At(0, 0, 0))
	sm := (xx + yy + zz) / 3
	dxx, dyy, dzz := xx-sm, yy-sm, zz-sm
	xy := float64(wf.XY.At(0, 0, 0))
	xz := float64(wf.XZ.At(0, 0, 0))
	yz := float64(wf.YZ.At(0, 0, 0))
	return 0.5*(dxx*dxx+dyy*dyy+dzz*dzz) + xy*xy + xz*xz + yz*yz
}
