// Package plasticity implements the Drucker–Prager plasticity of the
// paper's nonlinear solver (eqs. 3–4; the drprecpc_calc / drprecpc_app
// kernels, after Roten et al. 2016). After every elastic stress update the
// trial stress is tested against the pressure-dependent yield surface
//
//	Y(σ) = max(0, c·cosφ − (σm + Pf)·sinφ)
//
// where c is cohesion, φ the friction angle, Pf the fluid pressure and σm
// the mean stress. Where the deviatoric stress magnitude exceeds Y, the
// deviator is scaled back onto the yield surface:
//
//	σij = σm δij + r·sij,  r = Y/τ̄
//
// optionally relaxed over a viscoplastic time scale Tv, which is the
// formulation AWP-ODC uses for high-frequency runs.
//
// Moving from the linear to this nonlinear formulation is what pushes the
// per-point array count from 28 to 35+ 3D arrays (paper §3), i.e. ~25% more
// memory capacity and bandwidth — the pressure the paper's memory scheme
// exists to relieve.
package plasticity

import (
	"math"

	"swquake/internal/fd"
	"swquake/internal/grid"
)

// FlopsPerPoint is the hand-counted arithmetic of the yield check + return
// map per grid point, for the performance model.
const FlopsPerPoint = 48

// Params holds the spatially varying plasticity parameters — the extra 3D
// arrays of the nonlinear formulation.
type Params struct {
	D grid.Dims
	// Cohes is the cohesion c in Pa.
	Cohes *grid.Field
	// SinPhi / CosPhi cache sin φ and cos φ of the friction angle.
	SinPhi *grid.Field
	CosPhi *grid.Field
	// FluidPres is the pore fluid pressure Pf in Pa (positive in
	// compression, matching σm sign convention below).
	FluidPres *grid.Field
	// Sigma2 is the depth-dependent mean initial (lithostatic) stress in Pa,
	// negative in compression. The dynamic stresses from the wave solver are
	// perturbations around this state.
	Sigma2 *grid.Field
	// YldFac records, per point, the most recent yield factor r (1 = elastic).
	YldFac *grid.Field
	// Tv is the viscoplastic relaxation time in seconds; 0 applies the
	// return map instantaneously.
	Tv float64
}

// FieldCount is the number of extra 3D arrays the nonlinear formulation
// carries (cohes, sinphi, cosphi, pf, sigma2, yldfac, plus EPS bookkeeping
// in full AWP — we count the six we allocate). With the 28 arrays of the
// linear solver this reproduces the paper's "over 35 instead of just 28"
// accounting.
const FieldCount = 6

// NewParams allocates plasticity parameter fields, with YldFac set to 1.
func NewParams(d grid.Dims) *Params {
	p := &Params{
		D:         d,
		Cohes:     grid.NewField(d, fd.Halo),
		SinPhi:    grid.NewField(d, fd.Halo),
		CosPhi:    grid.NewField(d, fd.Halo),
		FluidPres: grid.NewField(d, fd.Halo),
		Sigma2:    grid.NewField(d, fd.Halo),
		YldFac:    grid.NewField(d, fd.Halo),
	}
	p.YldFac.Fill(1)
	return p
}

// SetUniform configures spatially constant parameters: cohesion c (Pa),
// friction angle phi (radians), fluid pressure pf (Pa).
func (p *Params) SetUniform(c, phi, pf float64) {
	p.Cohes.Fill(float32(c))
	p.SinPhi.Fill(float32(math.Sin(phi)))
	p.CosPhi.Fill(float32(math.Cos(phi)))
	p.FluidPres.Fill(float32(pf))
}

// SetLithostatic fills Sigma2 with the overburden mean stress at each
// depth: σ2(k) = -rho*g*z(k) (compression negative), given grid spacing dx
// and a representative density rho.
func (p *Params) SetLithostatic(dx, rho float64) {
	const g = 9.81
	for k := 0; k < p.D.Nz; k++ {
		s := float32(-rho * g * (float64(k) + 0.5) * dx)
		for i := 0; i < p.D.Nx; i++ {
			for j := 0; j < p.D.Ny; j++ {
				p.Sigma2.Set(i, j, k, s)
			}
		}
	}
}

// Yield returns the Drucker–Prager yield stress for mean stress sm at
// interior point (i,j,k) (paper eq. 3).
func (p *Params) Yield(i, j, k int, sm float32) float32 {
	y := p.Cohes.At(i, j, k)*p.CosPhi.At(i, j, k) -
		(sm+p.FluidPres.At(i, j, k))*p.SinPhi.At(i, j, k)
	if y < 0 {
		return 0
	}
	return y
}

// Apply performs the yield check and return map over the z-range [k0,k1)
// (kernels drprecpc_calc + drprecpc_app fused). dt is the time step,
// used only when Tv > 0. It returns the number of yielded points. Thin
// full-x/y wrapper over ApplyRegion.
func Apply(wf *fd.Wavefield, p *Params, dt float64, k0, k1 int) int {
	return ApplyRegion(wf, p, dt, grid.FullXY(wf.D, k0, k1))
}
