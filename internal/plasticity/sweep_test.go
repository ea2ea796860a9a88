package plasticity

import (
	"math"
	"math/rand"
	"testing"

	"swquake/internal/cpu"
	"swquake/internal/cpu/cputest"
	"swquake/internal/fd"
	"swquake/internal/grid"
)

// refApplyRegion is the flat-index return-map loop that ApplyRegion's
// plane-sliced form replaced, kept as the reference oracle — less the
// per-cell yield-factor record it used to write, which nothing read.
func refApplyRegion(wf *fd.Wavefield, p *Params, dt float64, r grid.Region) int {
	xx, yy, zz := wf.XX.Data, wf.YY.Data, wf.ZZ.Data
	xy, xz, yz := wf.XY.Data, wf.XZ.Data, wf.YZ.Data
	cohes, sphi, cphi := p.Cohes.Data, p.SinPhi.Data, p.CosPhi.Data
	pf, sig2 := p.FluidPres.Data, p.Sigma2.Data

	// viscoplastic relaxation factor: r' = r + (1-r)*exp(-dt/Tv)
	relax := float32(0)
	if p.Tv > 0 {
		relax = float32(math.Exp(-dt / p.Tv))
	}

	yielded := 0
	for i := r.I0; i < r.I1; i++ {
		for j := r.J0; j < r.J1; j++ {
			q := wf.XX.Idx(i, j, r.K0)
			for k := r.K0; k < r.K1; k, q = k+1, q+1 {
				// total stress = initial lithostatic + dynamic perturbation
				txx := xx[q] + sig2[q]
				tyy := yy[q] + sig2[q]
				tzz := zz[q] + sig2[q]
				sm := (txx + tyy + tzz) * (1.0 / 3.0)

				dxx, dyy, dzz := txx-sm, tyy-sm, tzz-sm
				txy, txz, tyz := xy[q], xz[q], yz[q]
				// τ̄ = sqrt(J2)
				j2 := 0.5*(dxx*dxx+dyy*dyy+dzz*dzz) + txy*txy + txz*txz + tyz*tyz
				tau := float32(math.Sqrt(float64(j2)))

				y := cohes[q]*cphi[q] - (sm+pf[q])*sphi[q]
				if y < 0 {
					y = 0
				}
				if tau <= y || tau == 0 {
					continue
				}
				r := y / tau
				if relax > 0 {
					r = r + (1-r)*relax
				}
				yielded++

				// return map: scale deviator, keep mean stress; store back as
				// dynamic perturbation (subtract lithostatic part again)
				xx[q] = sm + r*dxx - sig2[q]
				yy[q] = sm + r*dyy - sig2[q]
				zz[q] = sm + r*dzz - sig2[q]
				xy[q] = r * txy
				xz[q] = r * txz
				yz[q] = r * tyz
			}
		}
	}
	return yielded
}

// randomState builds stresses of a few MPa — so that, against a cohesion
// of 1 MPa, some cells yield and some do not — salted with zeros (tau == 0
// cells), and cell-by-cell random plasticity parameters.
func randomState(d grid.Dims, rng *rand.Rand) (*fd.Wavefield, *Params) {
	wf := fd.NewWavefield(d)
	for _, f := range wf.StressFields() {
		for idx := range f.Data {
			if rng.Intn(12) == 0 {
				continue
			}
			f.Data[idx] = (rng.Float32()*2 - 1) * 3e6
		}
	}
	// parameters that vary from cell to cell: full fields
	p := &Params{D: d}
	for _, f := range []**grid.Field{&p.Cohes, &p.SinPhi, &p.CosPhi, &p.FluidPres, &p.Sigma2} {
		*f = grid.NewField(d, fd.Halo)
	}
	for idx := range p.Cohes.Data {
		phi := rng.Float64() * 0.7
		p.Cohes.Data[idx] = rng.Float32() * 2e6
		p.SinPhi.Data[idx] = float32(math.Sin(phi))
		p.CosPhi.Data[idx] = float32(math.Cos(phi))
		p.FluidPres.Data[idx] = rng.Float32() * 1e5
		p.Sigma2.Data[idx] = -rng.Float32() * 5e6
	}
	return wf, p
}

func cloneParams(p *Params) *Params {
	c := *p
	c.Cohes, c.SinPhi, c.CosPhi = p.Cohes.Clone(), p.SinPhi.Clone(), p.CosPhi.Clone()
	c.FluidPres, c.Sigma2 = p.FluidPres.Clone(), p.Sigma2.Clone()
	return &c
}

func sameBits(t *testing.T, what string, a, b *grid.Field) {
	t.Helper()
	for idx := range a.Data {
		if math.Float32bits(a.Data[idx]) != math.Float32bits(b.Data[idx]) {
			t.Fatalf("%s differs at flat index %d: %g vs %g", what, idx, a.Data[idx], b.Data[idx])
		}
	}
}

// TestApplyRegionMatchesFlatIndexReference holds the plane-sliced return
// map to the flat-index loop it replaced — stresses and yielded count, bit
// for bit — over the region shapes the engine uses, with and without
// viscoplastic relaxation, on both row paths and at depths whose rows are a
// tail only (9), whole vectors (16) and vectors plus a tail (25).
func TestApplyRegionMatchesFlatIndexReference(t *testing.T) {
	cputest.ForEachKernelPath(t, func(t *testing.T) {
		for _, nz := range []int{9, 16, 25} {
			applyRegionMatchesFlatIndexReference(t, grid.Dims{Nx: 7, Ny: 6, Nz: nz})
		}
	})
}

func applyRegionMatchesFlatIndexReference(t *testing.T, d grid.Dims) {
	rng := rand.New(rand.NewSource(41))
	box := grid.Box(d)
	regs := []grid.Region{box, {},
		grid.FullXY(d, 3, d.Nz-1), grid.FullXY(d, d.Nz-1, d.Nz),
		{I0: 0, I1: 1, J1: d.Ny, K1: d.Nz}, {I1: d.Nx, J0: d.Ny - 1, J1: d.Ny, K1: d.Nz},
		{I0: 3, I1: 4, J0: 2, J1: 3, K0: 5, K1: 6}, {I0: 6, I1: 7, J0: 5, J1: 6, K0: d.Nz - 1, K1: d.Nz},
	}
	interior := grid.Region{I0: fd.Halo, I1: d.Nx - fd.Halo, J0: fd.Halo, J1: d.Ny - fd.Halo, K1: d.Nz}
	shells := grid.Box(d).Minus(interior)
	regs = append(append(regs, interior), shells...)
	regs = append(regs, box.Split(3, 1, 1)...)
	regs = append(regs, box.Split(2, 3, 2)...)

	yieldedSomewhere, elasticSomewhere := false, false
	for _, tv := range []float64{0, 0.02} {
		for _, reg := range regs {
			wantWF, wantP := randomState(d, rng)
			wantP.Tv = tv
			gotWF, gotP := wantWF.Clone(), cloneParams(wantP)
			want := refApplyRegion(wantWF, wantP, 0.005, reg)
			got := ApplyRegion(gotWF, gotP, 0.005, reg)
			if got != want {
				t.Fatalf("Tv=%g %v: yielded %d, reference %d", tv, reg, got, want)
			}
			for c, f := range wantWF.StressFields() {
				sameBits(t, "stress field", f, gotWF.StressFields()[c])
			}
			yieldedSomewhere = yieldedSomewhere || want > 0
			elasticSomewhere = elasticSomewhere || int64(want) < reg.Points()
		}
	}
	if !yieldedSomewhere || !elasticSomewhere {
		t.Fatalf("test state exercises one branch only (yielded %v, elastic %v)", yieldedSomewhere, elasticSomewhere)
	}
}

// expanded returns the full field that holds f's values: what a parameter
// stored at a lower rank stands for.
func expanded(f *grid.Field) *grid.Field {
	full := grid.NewField(f.Dims, f.H)
	n := f.Nz + 2*f.H // a z-row with its halos
	for i := -f.H; i < f.Nx+f.H; i++ {
		for j := -f.H; j < f.Ny+f.H; j++ {
			copy(full.Data[full.Idx(i, j, -f.H):][:n], f.Data[f.Idx(i, j, -f.H):][:n])
		}
	}
	return full
}

// TestRankedParamsMatchFullFields: parameters stored at their rank — four
// constant rows, a lithostatic z-profile — give the stresses and the
// yielded count of the same values held in five full fields, over regions that start below the surface (a profile row is cut
// at K0, like every other operand) and on both row paths.
func TestRankedParamsMatchFullFields(t *testing.T) {
	cputest.ForEachKernelPath(t, func(t *testing.T) {
		d := grid.Dims{Nx: 5, Ny: 4, Nz: 27}
		rng := rand.New(rand.NewSource(43))
		ranked := NewParams(d)
		ranked.SetUniform(8e5, 0.5, 2e4)
		ranked.SetLithostatic(8, 2500) // up to ~5 MPa of confinement at the bottom
		full := &Params{D: d, Cohes: expanded(ranked.Cohes), SinPhi: expanded(ranked.SinPhi),
			CosPhi: expanded(ranked.CosPhi), FluidPres: expanded(ranked.FluidPres),
			Sigma2: expanded(ranked.Sigma2)}
		box := grid.Box(d)
		regs := append([]grid.Region{box, grid.FullXY(d, 8, 16), grid.FullXY(d, 19, d.Nz),
			{I0: 1, I1: 3, J0: 2, J1: 4, K0: 5, K1: 26}}, box.Split(2, 2, 3)...)
		for _, tv := range []float64{0, 0.02} {
			ranked.Tv, full.Tv = tv, tv
			for _, reg := range regs {
				wantWF, _ := randomState(d, rng)
				gotWF := wantWF.Clone()
				want := ApplyRegion(wantWF, full, 0.005, reg)
				got := ApplyRegion(gotWF, ranked, 0.005, reg)
				if reg.K0 > 0 && (want == 0 || int64(want) == reg.Points()) {
					t.Fatalf("%v: %d of %d cells yield: the state exercises one branch only", reg, want, reg.Points())
				}
				if got != want {
					t.Fatalf("Tv=%g %v: yielded %d, full fields %d", tv, reg, got, want)
				}
				for c, f := range wantWF.StressFields() {
					sameBits(t, "stress field", f, gotWF.StressFields()[c])
				}
			}
		}
	})
}

// TestPlaneEntriesMatchGoRows holds the assembly yield check to the Go row,
// bit for bit: ApplyRegion runs with cpu.AVX2 on and off over random
// sub-regions — every depth from 1 cell to all 27 at a random K0, one
// column or several, J0 != 0 — on stresses of a few MPa (some cells yield,
// most do not) salted with -0, denormals, ±Inf and NaN, with the parameters
// at full rank, as profiles (column stride 0) and one of each. Stresses
// (two NaNs equal whatever their payloads) and yielded counts must agree,
// and some regions must yield. Without the assembly (a race build) both
// runs are the Go row: ApplyRegion's fallback, under the detector.
func TestPlaneEntriesMatchGoRows(t *testing.T) {
	paths := cputest.KernelPaths()
	fast := paths[len(paths)-1]
	defer func(was bool) { cpu.AVX2 = was }(cpu.AVX2)
	d := grid.Dims{Nx: 6, Ny: 9, Nz: 27}
	rng := rand.New(rand.NewSource(47))
	_, full := randomState(d, rng)
	ranked := NewParams(d)
	ranked.SetUniform(8e5, 0.5, 2e4)
	ranked.SetLithostatic(8, 2500)
	mixed := &Params{D: d, Cohes: full.Cohes, SinPhi: ranked.SinPhi, CosPhi: full.CosPhi,
		FluidPres: ranked.FluidPres, Sigma2: ranked.Sigma2}
	span := func(n int) (int, int) {
		a, b := rng.Intn(n), rng.Intn(n)
		return min(a, b), max(a, b) + 1
	}
	yielded := 0
	for _, params := range []struct {
		name string
		p    *Params
	}{{"full", full}, {"profiles", ranked}, {"mixed", mixed}} {
		name, p := params.name, params.p
		for _, tv := range []float64{0, 0.02} {
			p.Tv = tv
			for n := 1; n <= d.Nz; n++ {
				r := grid.Region{K0: rng.Intn(d.Nz - n + 1)}
				r.K1 = r.K0 + n
				r.I0, r.I1 = span(d.Nx)
				if r.J0, r.J1 = span(d.Ny); n%4 == 0 {
					r.J1 = r.J0 + 1
				}
				want, _ := randomState(d, rng)
				for _, f := range want.StressFields() {
					for idx := range f.Data {
						if rng.Intn(16) == 0 {
							f.Data[idx] = cputest.HardValue(rng)
						}
					}
				}
				got := want.Clone()
				cpu.AVX2 = false
				wantN := ApplyRegion(want, p, 0.005, r)
				cpu.AVX2 = fast
				gotN := ApplyRegion(got, p, 0.005, r)
				if gotN != wantN {
					t.Fatalf("%s Tv=%g %v: yielded %d, Go row %d", name, tv, r, gotN, wantN)
				}
				for c, f := range want.StressFields() {
					if i, ok := cputest.SameBits(f.Data, got.StressFields()[c].Data); !ok {
						t.Fatalf("%s Tv=%g %v: stress %d differs at flat index %d: %g, Go row %g",
							name, tv, r, c, i, got.StressFields()[c].Data[i], f.Data[i])
					}
				}
				yielded += wantN
			}
		}
	}
	if yielded == 0 {
		t.Fatal("no region yields: the test exercises the elastic branch only")
	}
}

// TestApplyRegionAllocatesNothing: the kernel keeps no yield factor, so a
// call — one slab of a strip of the engine's walk — allocates nothing,
// on either path.
func TestApplyRegionAllocatesNothing(t *testing.T) {
	cputest.ForEachKernelPath(t, func(t *testing.T) {
		d := grid.Dims{Nx: 4, Ny: 5, Nz: 20}
		wf, _ := randomState(d, rand.New(rand.NewSource(53)))
		p := NewParams(d)
		p.SetUniform(1e6, 0.5, 0)
		p.SetLithostatic(100, 2500)
		if n := testing.AllocsPerRun(20, func() { ApplyRegion(wf, p, 0.005, grid.Box(d)) }); n != 0 {
			t.Fatalf("ApplyRegion allocates %g times a call", n)
		}
	})
}

// TestReturnMapLeavesNoCellOutsideTheYieldSurface: after ApplyRegion the
// Drucker–Prager yield function τ̄ − Y(σm) — τ̄ = sqrt(J2) of the total
// stress, Y from Params.Yield, the oracle — is at most zero at every cell,
// within float32 rounding of the cell's stresses, on a state driven well past
// yield (stresses ten times those of randomState: nearly every cell yields),
// on both row paths.
func TestReturnMapLeavesNoCellOutsideTheYieldSurface(t *testing.T) {
	cputest.ForEachKernelPath(t, func(t *testing.T) {
		d := grid.Dims{Nx: 7, Ny: 6, Nz: 25}
		wf, p := randomState(d, rand.New(rand.NewSource(43)))
		for _, f := range wf.StressFields() {
			for idx := range f.Data {
				f.Data[idx] *= 10
			}
		}
		yielded := ApplyRegion(wf, p, 0.005, grid.Box(d))
		if int64(yielded) < d.Points()/2 {
			t.Fatalf("%d of %d cells yielded: not driven past yield", yielded, d.Points())
		}
		for i := 0; i < d.Nx; i++ {
			for j := 0; j < d.Ny; j++ {
				for k := 0; k < d.Nz; k++ {
					s2 := float64(p.Sigma2.At(i, j, k))
					txx, tyy, tzz := float64(wf.XX.At(i, j, k))+s2, float64(wf.YY.At(i, j, k))+s2, float64(wf.ZZ.At(i, j, k))+s2
					txy, txz, tyz := float64(wf.XY.At(i, j, k)), float64(wf.XZ.At(i, j, k)), float64(wf.YZ.At(i, j, k))
					sm := (txx + tyy + tzz) / 3
					dxx, dyy, dzz := txx-sm, tyy-sm, tzz-sm
					tau := math.Sqrt(0.5*(dxx*dxx+dyy*dyy+dzz*dzz) + txy*txy + txz*txz + tyz*tyz)
					y := float64(p.Yield(i, j, k, float32(sm)))
					// a few float32 ulps of the largest stress the cell's
					// arithmetic handled
					tol := 1e-6 * (math.Abs(txx) + math.Abs(tyy) + math.Abs(tzz) + math.Abs(txy) + math.Abs(txz) + math.Abs(tyz) + math.Abs(s2) + y)
					if tau-y > tol {
						t.Fatalf("cell (%d,%d,%d): tau %g above the yield stress %g by %g (tolerance %g)", i, j, k, tau, y, tau-y, tol)
					}
				}
			}
		}
	})
}
