package model

import "fmt"

// GridModel is a discretely sampled model on a regular coarse grid with
// trilinear interpolation — the in-memory form of the community velocity
// model the paper interpolates onto the simulation mesh (its north-China
// model has 25 km horizontal and 1-2 km vertical spacing).
type GridModel struct {
	NX, NY, NZ int     // sample counts
	DX, DY, DZ float64 // sample spacing, m
	Vp         []float64
	Vs         []float64
	Rho        []float64
}

// NewGridModel samples src at the given resolution into a GridModel.
func NewGridModel(src Model, nx, ny, nz int, dx, dy, dz float64) *GridModel {
	g := &GridModel{
		NX: nx, NY: ny, NZ: nz,
		DX: dx, DY: dy, DZ: dz,
		Vp:  make([]float64, nx*ny*nz),
		Vs:  make([]float64, nx*ny*nz),
		Rho: make([]float64, nx*ny*nz),
	}
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			for k := 0; k < nz; k++ {
				m := src.Sample(float64(i)*dx, float64(j)*dy, float64(k)*dz)
				idx := g.idx(i, j, k)
				g.Vp[idx], g.Vs[idx], g.Rho[idx] = m.Vp, m.Vs, m.Rho
			}
		}
	}
	return g
}

func (g *GridModel) idx(i, j, k int) int { return (i*g.NY+j)*g.NZ + k }

// Sample trilinearly interpolates the gridded model at (x, y, z), clamping
// coordinates to the model extent.
func (g *GridModel) Sample(x, y, z float64) Material {
	fx, i0, i1 := locate(x, g.DX, g.NX)
	fy, j0, j1 := locate(y, g.DY, g.NY)
	fz, k0, k1 := locate(z, g.DZ, g.NZ)

	interp := func(a []float64) float64 {
		c00 := a[g.idx(i0, j0, k0)]*(1-fx) + a[g.idx(i1, j0, k0)]*fx
		c10 := a[g.idx(i0, j1, k0)]*(1-fx) + a[g.idx(i1, j1, k0)]*fx
		c01 := a[g.idx(i0, j0, k1)]*(1-fx) + a[g.idx(i1, j0, k1)]*fx
		c11 := a[g.idx(i0, j1, k1)]*(1-fx) + a[g.idx(i1, j1, k1)]*fx
		c0 := c00*(1-fy) + c10*fy
		c1 := c01*(1-fy) + c11*fy
		return c0*(1-fz) + c1*fz
	}
	return Material{Vp: interp(g.Vp), Vs: interp(g.Vs), Rho: interp(g.Rho)}
}

// locate maps coordinate v to bracketing sample indices and a weight.
func locate(v, d float64, n int) (frac float64, lo, hi int) {
	t := v / d
	if t <= 0 {
		return 0, 0, 0
	}
	if t >= float64(n-1) {
		return 0, n - 1, n - 1
	}
	lo = int(t)
	return t - float64(lo), lo, lo + 1
}

// MinVs returns the smallest shear velocity in the model, which controls
// the grid spacing needed to resolve a target frequency.
func (g *GridModel) MinVs() float64 {
	m := g.Vs[0]
	for _, v := range g.Vs {
		if v < m {
			m = v
		}
	}
	return m
}

// MaxVp returns the largest P velocity, which controls the CFL time step.
func (g *GridModel) MaxVp() float64 {
	m := g.Vp[0]
	for _, v := range g.Vp {
		if v > m {
			m = v
		}
	}
	return m
}

// String summarizes the model grid.
func (g *GridModel) String() string {
	return fmt.Sprintf("GridModel %dx%dx%d @ (%.0f,%.0f,%.0f) m", g.NX, g.NY, g.NZ, g.DX, g.DY, g.DZ)
}

// CFLTimeStep returns the largest stable time step for 4th-order staggered
// FD on grid spacing dx: dt <= ccfl * dx / Vpmax with ccfl ~ 0.49 in 3D
// (sum of |FD coefficients| = 7/6, ccfl = 1/(sqrt(3)*7/6) ≈ 0.494).
func CFLTimeStep(dx, vpMax float64) float64 {
	return 0.49 * dx / vpMax
}
