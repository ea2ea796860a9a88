package fd

import (
	"math"
	"testing"

	"swquake/internal/grid"
	"swquake/internal/model"
)

func TestConstantQFactors(t *testing.T) {
	d := grid.Dims{Nx: 4, Ny: 4, Nz: 4}
	a := NewAttenuation(d, ConstantQ{Qp: 100, Qs: 50}, 1.0, 0.01)
	gp := float64(a.GP.At(1, 1, 1))
	gs := float64(a.GS.At(1, 1, 1))
	wantP := math.Exp(-math.Pi * 1.0 * 0.01 / 100)
	wantS := math.Exp(-math.Pi * 1.0 * 0.01 / 50)
	if math.Abs(gp-wantP) > 1e-7 || math.Abs(gs-wantS) > 1e-7 {
		t.Fatalf("factors %g %g want %g %g", gp, gs, wantP, wantS)
	}
	if !(gs < gp && gp < 1) {
		t.Fatal("lower Q must damp harder")
	}
}

func TestInfiniteQIsNoOp(t *testing.T) {
	d := grid.Dims{Nx: 4, Ny: 4, Nz: 4}
	a := NewAttenuation(d, ConstantQ{Qp: 0, Qs: 0}, 1.0, 0.01) // 0 = elastic
	if a.GP.At(0, 0, 0) != 1 || a.GS.At(0, 0, 0) != 1 {
		t.Fatal("Q=0 sentinel must disable damping")
	}
	wf := NewWavefield(d)
	wf.XX.FillInterior(3)
	wf.XY.FillInterior(5)
	a.ApplyRegion(wf, grid.Box(d))
	if wf.XX.At(1, 1, 1) != 3 || wf.XY.At(1, 1, 1) != 5 {
		t.Fatal("elastic attenuation modified stress")
	}
}

func TestApplyDampsStressesOnly(t *testing.T) {
	d := grid.Dims{Nx: 4, Ny: 4, Nz: 4}
	a := NewAttenuation(d, ConstantQ{Qp: 20, Qs: 10}, 2.0, 0.01)
	wf := NewWavefield(d)
	wf.XX.FillInterior(1)
	wf.XY.FillInterior(1)
	wf.U.FillInterior(1)
	a.ApplyRegion(wf, grid.Box(d))
	if wf.U.At(1, 1, 1) != 1 {
		t.Fatal("velocity must not be damped")
	}
	if !(wf.XY.At(1, 1, 1) < wf.XX.At(1, 1, 1)) {
		t.Fatal("shear (Qs) must damp more than diagonal (Qp=2Qs)")
	}
	if wf.XX.At(1, 1, 1) >= 1 {
		t.Fatal("diagonal not damped")
	}
}

func TestVsScaledQ(t *testing.T) {
	d := grid.Dims{Nx: 2, Ny: 2, Nz: 2}
	med := NewMedium(d)
	mat := model.Material{Vp: 3464, Vs: 2000, Rho: 2500}
	lam, mu := mat.Lame()
	med.Rho.Fill(float32(mat.Rho))
	med.Lam.Fill(float32(lam))
	med.Mu.Fill(float32(mu))

	qm := VsScaledQ{Med: med}
	qp, qs := qm.Q(0, 0, 0)
	if math.Abs(qs-100) > 1 { // 0.05 * 2000
		t.Fatalf("Qs = %g, want ~100", qs)
	}
	if qp != 2*qs {
		t.Fatalf("Qp = %g, want 2*Qs", qp)
	}
	// zero-stiffness cell floors at Qs = 5
	med.Mu.Set(0, 0, 1, 0)
	if _, qs := qm.Q(0, 0, 1); qs != 5 {
		t.Fatalf("soft floor Qs = %g", qs)
	}
}

func TestAttenuationDecayMatchesTheory(t *testing.T) {
	// propagate a pulse through a damped medium and compare the received
	// amplitude against exp(-pi f t*) relative to the undamped run
	mat := model.Material{Vp: 4000, Vs: 2310, Rho: 2500}
	d := grid.Dims{Nx: 64, Ny: 10, Nz: 30}
	dx := 100.0
	dt := 0.8 * model.CFLTimeStep(dx, mat.Vp)
	f0 := 2.5
	q := 30.0

	run := func(withQ bool) float64 {
		wf := NewWavefield(d)
		med := homogeneousMedium(d, mat)
		var att *Attenuation
		if withQ {
			att = NewAttenuation(d, ConstantQ{Qp: q, Qs: q}, f0, dt)
		}
		var peak float64
		for n := 0; n < 150; n++ {
			amp := float32(ricker(float64(n)*dt, f0, 1.2/f0) * 1e6)
			wf.XX.Add(8, 5, 15, amp)
			wf.YY.Add(8, 5, 15, amp)
			wf.ZZ.Add(8, 5, 15, amp)
			ApplyFreeSurface(wf)
			UpdateVelocityRegion(wf, med, float32(dt/dx), grid.Box(wf.D))
			ApplyFreeSurface(wf)
			UpdateStressRegion(wf, med, float32(dt/dx), grid.Box(wf.D))
			if withQ {
				att.ApplyRegion(wf, grid.Box(d))
			}
			if v := math.Abs(float64(wf.U.At(56, 5, 15))); v > peak {
				peak = v
			}
		}
		return peak
	}

	elastic := run(false)
	damped := run(true)
	if elastic <= 0 {
		t.Fatal("no arrival")
	}
	ratio := damped / elastic
	dist := 48 * dx
	want := math.Exp(-math.Pi * f0 * dist / (mat.Vp * q)) // exp(-pi f t*), t* = dist/(v Q)
	// the exponential constant-Q operator is approximate; allow 25%
	if math.Abs(ratio-want)/want > 0.25 {
		t.Fatalf("decay ratio %.3f, theory %.3f", ratio, want)
	}
	if ratio >= 1 {
		t.Fatal("attenuation did not reduce amplitude")
	}
}

// perCellQ hides a ConstantQ from NewAttenuation's choice of rank: the same
// quality factors, asked for cell by cell and stored in full fields.
type perCellQ struct{ ConstantQ }

// TestConstantQRowsMatchFullFields: a constant Q stored as two constant rows
// damps exactly as the same factors held in two full fields do — on every
// region shape, below the surface too (the rows are cut at K0 like any other
// operand), and on both row paths.
func TestConstantQRowsMatchFullFields(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		d := grid.Dims{Nx: 5, Ny: 4, Nz: 27}
		q := ConstantQ{Qp: 90, Qs: 35}
		rows := NewAttenuation(d, q, 2, 4e-3)
		full := NewAttenuation(d, perCellQ{q}, 2, 4e-3)
		padded := (d.Nx + 2*Halo) * (d.Ny + 2*Halo) * (d.Nz + 2*Halo)
		if len(rows.GP.Data) != d.Nz+2*Halo || len(rows.GS.Data) != d.Nz+2*Halo ||
			len(full.GP.Data) != padded || len(full.GS.Data) != padded {
			t.Fatalf("factor storage: rows %d and %d floats, full fields %d and %d",
				len(rows.GP.Data), len(rows.GS.Data), len(full.GP.Data), len(full.GS.Data))
		}
		if !(rows.GS.At(1, 2, 3) < rows.GP.At(1, 2, 3)) {
			t.Fatal("the lower Q must damp harder: GP and GS swapped?")
		}
		box := grid.Box(d)
		regs := append([]grid.Region{box, grid.FullXY(d, 8, 16), grid.FullXY(d, 19, d.Nz),
			{I0: 1, I1: 3, J0: 2, J1: 4, K0: 5, K1: 26}}, box.Split(2, 2, 3)...)
		for n, reg := range regs {
			want := NewWavefield(d)
			randomizeWavefield(want, uint32(7+n))
			got := want.Clone()
			full.ApplyRegion(want, reg)
			rows.ApplyRegion(got, reg)
			if err := fieldsIdentical(want, got); err != nil {
				t.Fatalf("%v: %v", reg, err)
			}
		}
	})
}
