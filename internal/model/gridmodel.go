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
	c := g.column(x, y)
	return c.at(z)
}

// SampleColumn forms the bilinear (x, y) value of a lattice level once for
// all the depths between the same two levels.
func (g *GridModel) SampleColumn(x, y float64, zs []float64, out []Material) {
	c := g.column(x, y)
	for k, z := range zs {
		out[k] = c.at(z)
	}
}

// gridColumn is a GridModel's column at one (x, y): its bilinear weights and
// corners, and the pair of lattice levels the last depth fell between.
type gridColumn struct {
	g              *GridModel
	fx, fy         float64
	i0, i1, j0, j1 int
	k0, k1         int // the levels lo and hi hold
	lo, hi         Material
}

// column is g's column at (x, y), with no level formed yet.
func (g *GridModel) column(x, y float64) gridColumn {
	c := gridColumn{g: g, k0: -1}
	c.fx, c.i0, c.i1 = locate(x, g.DX, g.NX)
	c.fy, c.j0, c.j1 = locate(y, g.DY, g.NY)
	return c
}

// at interpolates at depth z, forming the two levels only when z leaves the
// previous depth's pair.
func (c *gridColumn) at(z float64) Material {
	fz, k0, k1 := locate(z, c.g.DZ, c.g.NZ)
	if k0 != c.k0 || k1 != c.k1 {
		c.k0, c.k1, c.lo, c.hi = k0, k1, c.level(k0), c.level(k1)
	}
	return Material{
		Vp:  c.lo.Vp*(1-fz) + c.hi.Vp*fz,
		Vs:  c.lo.Vs*(1-fz) + c.hi.Vs*fz,
		Rho: c.lo.Rho*(1-fz) + c.hi.Rho*fz,
	}
}

// level is the bilinear (x, y) value of lattice level k.
func (c *gridColumn) level(k int) Material {
	g := c.g
	bilinear := func(a []float64) float64 {
		c0 := a[g.idx(c.i0, c.j0, k)]*(1-c.fx) + a[g.idx(c.i1, c.j0, k)]*c.fx
		c1 := a[g.idx(c.i0, c.j1, k)]*(1-c.fx) + a[g.idx(c.i1, c.j1, k)]*c.fx
		return c0*(1-c.fy) + c1*c.fy
	}
	return Material{Vp: bilinear(g.Vp), Vs: bilinear(g.Vs), Rho: bilinear(g.Rho)}
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
