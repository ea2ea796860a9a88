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
// paper's per-point array count from 28 to 35+ 3D arrays (§3), i.e. ~25% more
// memory capacity and bandwidth — the pressure its memory scheme exists to
// relieve. Here the parameters are stored at their rank (DESIGN.md §3.1): a
// uniform one is a constant z-row, the lithostatic stress a z-profile, and
// only a parameter that really varies from cell to cell is a 3D array.
package plasticity

import (
	"math"

	"swquake/internal/fd"
	"swquake/internal/grid"
)

// FlopsPerPoint is the hand-counted arithmetic of the yield check + return
// map per grid point, for the performance model.
const FlopsPerPoint = 48

// Params holds the plasticity parameters — the extra arrays of the
// nonlinear formulation — each a grid.Field of whatever rank it needs: the
// kernel slices every operand's z-row at the operand's own index, so a
// constant row, a z-profile and a full field are the same operand to it.
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
	// Tv is the viscoplastic relaxation time in seconds; 0 applies the
	// return map instantaneously.
	Tv float64
}

// NewParams returns parameters that are zero everywhere, each stored as one
// z-row; SetUniform and SetLithostatic give them values at that rank. A
// caller with parameters that vary from cell to cell assigns full fields.
func NewParams(d grid.Dims) *Params {
	return &Params{
		D:         d,
		Cohes:     grid.NewProfile(d, fd.Halo),
		SinPhi:    grid.NewProfile(d, fd.Halo),
		CosPhi:    grid.NewProfile(d, fd.Halo),
		FluidPres: grid.NewProfile(d, fd.Halo),
		Sigma2:    grid.NewProfile(d, fd.Halo),
	}
}

// SetUniform configures spatially constant parameters: cohesion c (Pa),
// friction angle phi (radians), fluid pressure pf (Pa).
func (p *Params) SetUniform(c, phi, pf float64) {
	p.Cohes.Fill(float32(c))
	p.SinPhi.Fill(float32(math.Sin(phi)))
	p.CosPhi.Fill(float32(math.Cos(phi)))
	p.FluidPres.Fill(float32(pf))
}

// SetLithostatic makes Sigma2 the z-profile of the overburden mean stress:
// σ2(k) = -rho*g*z(k) (compression negative), given grid spacing dx and a
// representative density rho. k is the depth index of the run's domain,
// which no decomposition cuts.
func (p *Params) SetLithostatic(dx, rho float64) {
	const g = 9.81
	p.Sigma2 = grid.NewProfile(p.D, fd.Halo)
	for k := 0; k < p.D.Nz; k++ {
		p.Sigma2.Set(0, 0, k, float32(-rho*g*(float64(k)+0.5)*dx))
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
