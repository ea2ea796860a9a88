package fd

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"swquake/internal/cpu/cputest"
	"swquake/internal/grid"
)

// bitsIdentical compares every value of every field, halos included, as bit
// patterns: -0 differs from +0 and a NaN equals only the same NaN.
func bitsIdentical(a, b *Wavefield) error {
	names := []string{"u", "v", "w", "xx", "yy", "zz", "xy", "xz", "yz"}
	for c, fa := range a.AllFields() {
		fb := b.AllFields()[c]
		for idx := range fa.Data {
			if math.Float32bits(fa.Data[idx]) != math.Float32bits(fb.Data[idx]) {
				return fmt.Errorf("field %s differs at flat index %d: %g (%#08x) vs %g (%#08x)",
					names[c], idx, fa.Data[idx], math.Float32bits(fa.Data[idx]),
					fb.Data[idx], math.Float32bits(fb.Data[idx]))
			}
		}
	}
	return nil
}

// hardWavefield fills every field, halos included, with values in [-1,1)
// salted with -0, +0 and denormals of either sign; extra values (±Inf, NaN)
// are salted in too when given.
func hardWavefield(d grid.Dims, rng *rand.Rand, extra ...float32) *Wavefield {
	wf := NewWavefield(d)
	negZero := float32(math.Copysign(0, -1))
	for _, f := range wf.AllFields() {
		for idx := range f.Data {
			switch n := rng.Intn(40); {
			case n == 0:
				f.Data[idx] = negZero
			case n == 1:
				f.Data[idx] = 0
			case n == 2:
				f.Data[idx] = cputest.Denormal(rng)
			case n == 3:
				f.Data[idx] = -cputest.Denormal(rng)
			case n == 4 && len(extra) > 0:
				f.Data[idx] = extra[rng.Intn(len(extra))]
			default:
				f.Data[idx] = rng.Float32()*2 - 1
			}
		}
	}
	return wf
}

// hardMedium is a cell-by-cell random medium, halos included, in which
// about a tenth of the cells are fluid (mu = 0) and a tenth have a denormal
// shear modulus — the inputs on which a reciprocal could differ from the
// five-divide harmonic mean if it were not the same arithmetic.
func hardMedium(d grid.Dims, rng *rand.Rand) *Medium {
	med := NewMedium(d)
	for idx := range med.Mu.Data {
		med.Rho.Data[idx] = 1000 + 2000*rng.Float32()
		med.Lam.Data[idx] = 5e10 * rng.Float32()
		switch rng.Intn(10) {
		case 0:
			med.Mu.Data[idx] = 0
		case 1:
			med.Mu.Data[idx] = cputest.Denormal(rng)
		default:
			med.Mu.Data[idx] = 1e9 + 4e10*rng.Float32()
		}
	}
	return med
}

// hardRegions enumerates the region shapes the engine hands a kernel —
// whole block, z-slabs with K0 > 0, the overlap interior and shells, strips
// and plane-strips — plus one-cell boxes, the rows and planes next to every halo, and
// random boxes.
func hardRegions(d grid.Dims, rng *rand.Rand) []grid.Region {
	box := grid.Box(d)
	regs := []grid.Region{box,
		grid.FullXY(d, 3, d.Nz-2), grid.FullXY(d, d.Nz-1, d.Nz), grid.FullXY(d, 1, 2),
		{I0: 0, I1: 1, J1: d.Ny, K1: d.Nz}, {I0: d.Nx - 1, I1: d.Nx, J1: d.Ny, K1: d.Nz},
		{I1: d.Nx, J0: 0, J1: 1, K1: d.Nz}, {I1: d.Nx, J0: d.Ny - 1, J1: d.Ny, K1: d.Nz},
		{I1: d.Nx, J1: d.Ny, K0: 0, K1: 1},
		{}, {I0: 2, I1: 2, J1: d.Ny, K1: d.Nz}, // empty
	}
	interior := grid.Region{I0: Halo, I1: d.Nx - Halo, J0: Halo, J1: d.Ny - Halo, K1: d.Nz}
	shells := grid.Box(d).Minus(interior)
	regs = append(regs, interior)
	regs = append(regs, shells...)
	regs = append(regs, box.Split(3, 1, 1)...)
	regs = append(regs, box.Split(d.Nx, 2, 1)...)
	for _, c := range [][3]int{{0, 0, 0}, {d.Nx - 1, d.Ny - 1, d.Nz - 1}, {0, d.Ny - 1, 0}, {d.Nx - 1, 0, d.Nz - 1}} {
		regs = append(regs, grid.Region{I0: c[0], I1: c[0] + 1, J0: c[1], J1: c[1] + 1, K0: c[2], K1: c[2] + 1})
	}
	span := func(n int) (int, int) {
		a, b := rng.Intn(n), rng.Intn(n)
		if a > b {
			a, b = b, a
		}
		return a, b + 1
	}
	for n := 0; n < 40; n++ {
		var r grid.Region
		r.I0, r.I1 = span(d.Nx)
		r.J0, r.J1 = span(d.Ny)
		r.K0, r.K1 = span(d.Nz)
		if n%4 == 0 { // one-cell box
			r.I1, r.J1, r.K1 = r.I0+1, r.J0+1, r.K0+1
		}
		regs = append(regs, r)
	}
	return regs
}

// TestSweepKernelsMatchFlatIndexReference holds each row-sliced kernel to
// the flat-index loop it replaced, bit for bit, over every region shape and
// on a medium with fluid and denormal-mu cells — on both row paths, and at
// depths whose rows are a tail only (9 cells and fewer), whole vectors (16)
// and vectors plus a tail (25) in every region shape.
func TestSweepKernelsMatchFlatIndexReference(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		for _, nz := range []int{9, 16, 25} {
			d := grid.Dims{Nx: 7, Ny: 6, Nz: nz}
			rng := rand.New(rand.NewSource(14))
			med := hardMedium(d, rng)
			att := NewAttenuation(d, VsScaledQ{Med: med}, 2, 0.004)
			// dt/dx sized so that an update is of the order of the value it
			// is added to (fields are in [-1,1), densities ~1e3, moduli
			// ~1e10): the final add then rounds, and a fused or reordered
			// update shows
			const dtdxV, dtdxS = float32(1e3), float32(2e-11)

			kernels := []struct {
				name     string
				ref, got func(wf *Wavefield, r grid.Region)
			}{
				{"velocity",
					func(wf *Wavefield, r grid.Region) { refUpdateVelocityRegion(wf, med, dtdxV, r) },
					func(wf *Wavefield, r grid.Region) { UpdateVelocityRegion(wf, med, dtdxV, r) }},
				{"stress",
					func(wf *Wavefield, r grid.Region) { refUpdateStressRegion(wf, med, dtdxS, r) },
					func(wf *Wavefield, r grid.Region) { UpdateStressRegion(wf, med, dtdxS, r) }},
				{"attenuation",
					func(wf *Wavefield, r grid.Region) { refAttenuationApplyRegion(att, wf, r) },
					func(wf *Wavefield, r grid.Region) { att.ApplyRegion(wf, r) }},
			}
			for _, k := range kernels {
				for _, reg := range hardRegions(d, rng) {
					want := hardWavefield(d, rng)
					got := want.Clone()
					k.ref(want, reg)
					k.got(got, reg)
					if err := bitsIdentical(want, got); err != nil {
						t.Fatalf("Nz=%d: %s over %v: %v", nz, k.name, reg, err)
					}
				}
			}
		}
	})
}

// TestFreeSurfaceColsMatchAccessorReference: the flat-index image condition
// writes the bits the accessor form writes, over owned columns, the ghost
// frame and a single column.
func TestFreeSurfaceColsMatchAccessorReference(t *testing.T) {
	d := grid.Dims{Nx: 5, Ny: 4, Nz: 6}
	rng := rand.New(rand.NewSource(8))
	for _, c := range [][4]int{{0, d.Nx, 0, d.Ny}, {-Halo, d.Nx + Halo, -Halo, d.Ny + Halo},
		{-Halo, 0, -Halo, d.Ny + Halo}, {2, 3, 1, 2}, {3, 3, 0, d.Ny}} {
		want := hardWavefield(d, rng)
		got := want.Clone()
		refApplyFreeSurfaceCols(want, c[0], c[1], c[2], c[3])
		ApplyFreeSurfaceCols(got, c[0], c[1], c[2], c[3])
		if err := bitsIdentical(want, got); err != nil {
			t.Fatalf("columns %v: %v", c, err)
		}
	}
}

// TestSpongeMatchesFullVolumeReference: the separable sponge reproduces the
// full-volume damping array bit for bit — Factor at every cell, ApplyRegion
// over every region shape on fields holding -0, denormals, ±Inf and NaN,
// and the count of damped cells — for a serial block and for every block of
// a 3x3 decomposition, with the zone narrower and wider than a block, on
// both row paths (depth 10: one vector and a two-cell tail).
func TestSpongeMatchesFullVolumeReference(t *testing.T) {
	forEachKernelPath(t, spongeMatchesFullVolumeReference)
}

func spongeMatchesFullVolumeReference(t *testing.T) {
	const gnx, gny, gnz = 15, 12, 10
	const alpha = 0.08
	rng := rand.New(rand.NewSource(3))
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())

	check := func(name string, width, i0, j0, nx, ny int) int64 {
		sp := NewSpongeGlobal(gnx, gny, gnz, width, alpha, i0, j0, nx, ny, gnz)
		ref := newRefSponge(gnx, gny, gnz, width, alpha, i0, j0, nx, ny, gnz)
		var damped int64
		for i := 0; i < nx; i++ {
			for j := 0; j < ny; j++ {
				for k := 0; k < gnz; k++ {
					if math.Float32bits(sp.Factor(i, j, k)) != math.Float32bits(ref.factor(i, j, k)) {
						t.Fatalf("%s: factor(%d,%d,%d) = %g, reference %g", name, i, j, k,
							sp.Factor(i, j, k), ref.factor(i, j, k))
					}
					if ref.factor(i, j, k) != 1 {
						damped++
					}
				}
			}
		}
		if sp.DampedPoints() != damped {
			t.Fatalf("%s: DampedPoints %d, reference has %d factors != 1", name, sp.DampedPoints(), damped)
		}
		d := grid.Dims{Nx: nx, Ny: ny, Nz: gnz}
		for _, reg := range hardRegions(d, rng) {
			want := hardWavefield(d, rng, inf, -inf, nan)
			got := want.Clone()
			halves := want.Clone()
			ref.applyRegion(want, reg)
			sp.ApplyRegion(got, reg)
			if err := bitsIdentical(want, got); err != nil {
				t.Fatalf("%s over %v: %v", name, reg, err)
			}
			// the engine applies the sponge as two halves, velocities last
			sp.ApplyStressRegion(halves, reg)
			sp.ApplyVelocityRegion(halves, reg)
			if err := bitsIdentical(want, halves); err != nil {
				t.Fatalf("%s over %v, stress then velocity half: %v", name, reg, err)
			}
		}
		return damped
	}

	for _, width := range []int{3, 5} { // blocks are 5x4: narrower, and wider than a block in y
		serial := check(fmt.Sprintf("serial w=%d", width), width, 0, 0, gnx, gny)
		if serial == 0 || serial == gnx*gny*gnz {
			t.Fatalf("width %d: %d damped cells of %d", width, serial, gnx*gny*gnz)
		}
		var sum int64
		for bi := 0; bi < 3; bi++ {
			for bj := 0; bj < 3; bj++ {
				sum += check(fmt.Sprintf("block (%d,%d) w=%d", bi, bj, width),
					width, bi*gnx/3, bj*gny/3, gnx/3, gny/3)
			}
		}
		if sum != serial {
			t.Fatalf("width %d: blocks damp %d cells, the serial block %d", width, sum, serial)
		}
	}
}

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestMediumReciprocalFreshOrLoud: a hand-built medium may be edited up to
// its first stress update, which then sees a reciprocal of the edited Mu;
// from there on Mu is frozen, so an edit that would leave the reciprocal
// stale panics at the edit. Lam and Rho, which the kernels read directly,
// stay editable.
func TestMediumReciprocalFreshOrLoud(t *testing.T) {
	d := grid.Dims{Nx: 5, Ny: 5, Nz: 6}
	rng := rand.New(rand.NewSource(9))
	med := NewMedium(d)
	med.Rho.Fill(2500)
	med.Lam.Fill(3e10)
	med.Mu.Fill(2e10)
	med.Mu.Set(2, 2, 3, 0) // edits after construction, before the first step
	med.Mu.Set(1, 2, 3, 7e9)

	want := hardWavefield(d, rng)
	got := want.Clone()
	refUpdateStressRegion(want, med, 1e-5, grid.Box(d))
	UpdateStressRegion(got, med, 1e-5, grid.Box(d))
	if err := bitsIdentical(want, got); err != nil {
		t.Fatalf("edited-before-use medium: %v", err)
	}

	mustPanic(t, "Mu.Set after the first stress update", func() { med.Mu.Set(2, 2, 3, 1e10) })
	mustPanic(t, "Mu.Fill after the first stress update", func() { med.Mu.Fill(1e10) })
	med.Lam.Set(2, 2, 3, 1e10)
	med.Rho.Set(2, 2, 3, 2000)
	refUpdateStressRegion(want, med, 1e-5, grid.Box(d))
	UpdateStressRegion(got, med, 1e-5, grid.Box(d))
	if err := bitsIdentical(want, got); err != nil {
		t.Fatalf("after editing lam and rho: %v", err)
	}
}

// TestReciprocalFirstUseIsConcurrent: workers that all make the first stress
// update of a hand-built medium at once share one reciprocal build (run
// under -race by `make check`) and compute the reference bits.
func TestReciprocalFirstUseIsConcurrent(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 6, Nz: 7}
	rng := rand.New(rand.NewSource(5))
	med := hardMedium(d, rng)
	want := hardWavefield(d, rng)
	got := want.Clone()
	refUpdateStressRegion(want, med, 1e-5, grid.Box(d))

	var wg sync.WaitGroup
	for _, reg := range grid.Box(d).Split(8, 1, 1) {
		wg.Add(1)
		go func(reg grid.Region) {
			defer wg.Done()
			UpdateStressRegion(got, med, 1e-5, reg)
		}(reg)
	}
	wg.Wait()
	if err := bitsIdentical(want, got); err != nil {
		t.Fatal(err)
	}
}

// TestMaxAbsVelocityPropagatesNaN: the divergence scan returns a NaN that
// sits in any velocity component, and the plain maximum otherwise.
func TestMaxAbsVelocityPropagatesNaN(t *testing.T) {
	d := grid.Dims{Nx: 4, Ny: 3, Nz: 7}
	wf := NewWavefield(d)
	wf.U.Set(1, 1, 1, -3)
	wf.V.Set(3, 2, 6, 2)
	wf.W.Set(0, 0, 0, float32(math.Inf(-1)))
	wf.XX.Set(0, 0, 0, float32(math.NaN())) // stresses are not scanned
	wf.U.Set(0, 0, -1, float32(math.NaN())) // nor are halos
	if m := grid.MaxAbs(wf.VelocityFields()...); !math.IsInf(float64(m), 1) {
		t.Fatalf("max |v| = %g, want +Inf", m)
	}
	wf.W.Set(0, 0, 0, 1)
	if m := grid.MaxAbs(wf.VelocityFields()...); m != 3 {
		t.Fatalf("max |v| = %g, want 3", m)
	}
	for n := range wf.VelocityFields() {
		c := wf.Clone()
		c.U.Set(0, 0, 0, 1e30) // a NaN must win over any magnitude
		c.VelocityFields()[n].Set(3, 2, 5, float32(math.NaN()))
		if m := grid.MaxAbs(c.VelocityFields()...); m == m {
			t.Fatalf("NaN in velocity field %d not reported: max |v| = %g", n, m)
		}
	}
}
