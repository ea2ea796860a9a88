package fd

import (
	"math"

	"swquake/internal/grid"
)

// Anelastic attenuation. AWP-ODC carries quality-factor arrays (the qp, qs
// arrays visible in the paper's Fig. 5 working set) so that seismic energy
// decays as exp(-pi f t / Q) along the propagation path — without it, coda
// durations and basin amplification are overestimated. We implement the
// memory-light constant-Q approximation used by many FD codes: each step
// multiplies the stress components by per-cell factors
//
//	g_p = exp(-pi f0 dt / Qp)   (diagonal / P energy)
//	g_s = exp(-pi f0 dt / Qs)   (shear / S energy)
//
// exact for the reference frequency f0 and within a few percent across the
// simulated band. (The full AWP coarse-grained memory-variable method costs
// three more 3D arrays; the exponential form preserves the behaviour the
// paper's evaluation depends on — path attenuation — at the same per-point
// memory touch count.)
type Attenuation struct {
	// GP and GS are the per-step decay factors, per cell or — for a uniform
	// Q — one constant row each.
	GP, GS *grid.Field
}

// QModel supplies quality factors at a grid point. The common empirical
// rule for sedimentary settings ties Q to the S velocity. The set-up calls Q
// from several goroutines at once.
type QModel interface {
	Q(i, j, k int) (qp, qs float64)
}

// ConstantQ applies uniform quality factors.
type ConstantQ struct{ Qp, Qs float64 }

// Q returns the uniform factors.
func (c ConstantQ) Q(_, _, _ int) (float64, float64) { return c.Qp, c.Qs }

// VsScaledQ uses the standard engineering rule Qs = Vs(m/s) * Factor
// (classically Qs = 0.05 Vs ... 0.1 Vs), Qp = 2 Qs, evaluated on a medium.
type VsScaledQ struct {
	Med    *Medium
	Factor float64 // Qs per (m/s of Vs); 0.05 if zero
}

// Q derives the factors from the local shear velocity.
func (v VsScaledQ) Q(i, j, k int) (float64, float64) {
	f := v.Factor
	if f == 0 {
		f = 0.05
	}
	mu := float64(v.Med.Mu.At(i, j, k))
	rho := float64(v.Med.Rho.At(i, j, k))
	vs := 0.0
	if rho > 0 && mu > 0 {
		vs = math.Sqrt(mu / rho)
	}
	qs := f * vs
	if qs < 5 {
		qs = 5 // fluid/soft floor keeps the factors finite
	}
	return 2 * qs, qs
}

// NewAttenuation precomputes the decay factors for time step dt and
// reference frequency f0 from the Q model, stored at the model's rank: a
// ConstantQ is two constant rows (grid.NewProfile) with the exponential
// evaluated once, any other model two full fields, made at once
// (grid.NewFields) and filled in slabs of i-planes on grid.Workers
// goroutines.
func NewAttenuation(d grid.Dims, qm QModel, f0, dt float64) *Attenuation {
	decay := func(q float64) float32 {
		if q > 0 {
			return float32(math.Exp(-math.Pi * f0 * dt / q))
		}
		return 1
	}
	if c, ok := qm.(ConstantQ); ok {
		a := &Attenuation{GP: grid.NewProfile(d, Halo), GS: grid.NewProfile(d, Halo)}
		a.GP.Fill(decay(c.Qp))
		a.GS.Fill(decay(c.Qs))
		return a
	}
	f := grid.NewFields(2, d, Halo)
	a := &Attenuation{GP: f[0], GS: f[1]}
	grid.Slabs(-Halo, d.Nx+Halo, grid.Workers(d.Points()), func(_, i0, i1 int) {
		// the slab's planes, halo cells (no decay) included
		lo, hi := a.GP.Idx(i0, -Halo, -Halo), a.GP.Idx(i1, -Halo, -Halo)
		for _, g := range f {
			planes := g.Data[lo:hi]
			for p := range planes {
				planes[p] = 1
			}
		}
		for i := max(i0, 0); i < min(i1, d.Nx); i++ {
			for j := 0; j < d.Ny; j++ {
				gp, gs := a.GP.Row(i, j), a.GS.Row(i, j)
				for k := range gp {
					qp, qs := qm.Q(i, j, k)
					gp[k], gs[k] = decay(qp), decay(qs)
				}
			}
		}
	})
	return a
}
