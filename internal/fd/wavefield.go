// Package fd implements the 4th-order staggered-grid velocity–stress
// finite-difference kernels at the heart of the solver — the Go analogues of
// AWP-ODC's delcx/delcy (velocity update), dstrqc (stress update) and fstr
// (free surface) kernels that the paper redesigns for the SW26010 (§6.2).
//
// Staggering follows the standard Graves/AWP convention:
//
//	u  at (i+1/2, j,     k)       sxx,syy,szz at (i, j, k)
//	v  at (i,     j+1/2, k)       sxy at (i+1/2, j+1/2, k)
//	w  at (i,     j,     k+1/2)   sxz at (i+1/2, j,     k+1/2)
//	                              syz at (i,     j+1/2, k+1/2)
//
// The k index increases downward; k = 0 is the free surface.
// Spatial derivatives use the 4th-order coefficients c1 = 9/8, c2 = -1/24;
// time integration is 2nd-order leapfrog.
package fd

import (
	"fmt"
	"math"
	"sync"

	"swquake/internal/grid"
	"swquake/internal/model"
)

// FD coefficients of the 4th-order staggered first-derivative operator.
const (
	C1 = 9.0 / 8.0
	C2 = -1.0 / 24.0
)

// Halo is the ghost width the kernels require.
const Halo = grid.DefaultHalo

// Wavefield holds the nine dynamic fields of the velocity–stress system.
type Wavefield struct {
	D grid.Dims
	// velocities
	U, V, W *grid.Field
	// stress tensor components
	XX, YY, ZZ, XY, XZ, YZ *grid.Field
}

// NewWavefield allocates a zeroed wavefield, its nine fields at once
// (grid.NewFields).
func NewWavefield(d grid.Dims) *Wavefield {
	f := grid.NewFields(9, d, Halo)
	return &Wavefield{D: d, U: f[0], V: f[1], W: f[2],
		XX: f[3], YY: f[4], ZZ: f[5], XY: f[6], XZ: f[7], YZ: f[8]}
}

// VelocityFields returns the three velocity fields (the paper's vec3 fusion
// group).
func (w *Wavefield) VelocityFields() []*grid.Field { return []*grid.Field{w.U, w.V, w.W} }

// StressFields returns the six stress fields (the paper's vec6 fusion group).
func (w *Wavefield) StressFields() []*grid.Field {
	return []*grid.Field{w.XX, w.YY, w.ZZ, w.XY, w.XZ, w.YZ}
}

// AllFields returns all nine dynamic fields.
func (w *Wavefield) AllFields() []*grid.Field {
	return append(w.VelocityFields(), w.StressFields()...)
}

// Bytes returns the total allocated size of the dynamic fields.
func (w *Wavefield) Bytes() int64 {
	var n int64
	for _, f := range w.AllFields() {
		n += f.Bytes()
	}
	return n
}

// Clone deep-copies the wavefield.
func (w *Wavefield) Clone() *Wavefield {
	c := &Wavefield{D: w.D}
	c.U, c.V, c.W = w.U.Clone(), w.V.Clone(), w.W.Clone()
	c.XX, c.YY, c.ZZ = w.XX.Clone(), w.YY.Clone(), w.ZZ.Clone()
	c.XY, c.XZ, c.YZ = w.XY.Clone(), w.XZ.Clone(), w.YZ.Clone()
	return c
}

// Medium holds the static material fields sampled at grid points.
// Rho is stored as density (kg/m^3); Lam and Mu are the Lamé moduli (Pa).
//
// The stress kernel averages Mu harmonically over four points per shear
// component, which it evaluates from the float32 reciprocal 1/Mu. Medium
// owns that derived array: it is built once — by the constructors that
// define Mu completely (NewMediumFromModel), otherwise on the first
// stress update, under a sync.Once so concurrent tiles share one build —
// and building it freezes Mu, so a later Mu.Set/Fill panics instead of
// leaving the reciprocal stale. Fill a hand-built medium before its first
// stress update; never copy a Medium by value.
//
// A medium sampled from a model (NewMediumFromModel) also keeps what its
// sampling pass found over the interior: Validate's verdict and the CFL
// bound MaxVpSquared.
type Medium struct {
	D            grid.Dims
	Rho, Lam, Mu *grid.Field

	recipOnce sync.Once
	rmu       *grid.Field // 1/Mu, same shape as Mu; read through recipMu

	sampled *audit // nil for a medium filled by hand
}

// NewMedium allocates an uninitialized medium — ρ, λ, μ and the array 1/μ
// is built in — the four at once (grid.NewFields).
func NewMedium(d grid.Dims) *Medium {
	f := grid.NewFields(4, d, Halo)
	return &Medium{D: d, Rho: f[0], Lam: f[1], Mu: f[2], rmu: f[3]}
}

// recipMu returns the reciprocal shear modulus, building it (and freezing
// Mu) on first use. 1/0 = +Inf marks fluid cells; the stress kernel's
// 4/(sum of reciprocals) then yields the +0 the harmonic mean must have.
func (m *Medium) recipMu() *grid.Field {
	m.recipOnce.Do(func() {
		if m.sampled == nil { // the sampling pass fills it itself
			for i, v := range m.Mu.Data {
				m.rmu.Data[i] = recip(v)
			}
		}
		m.Mu.Freeze()
	})
	return m.rmu
}

// recip is the reciprocal shear modulus the stress kernel reads.
func recip(mu float32) float32 {
	if mu == 0 {
		return float32(math.Inf(1)) // also for -0, whose reciprocal is -Inf
	}
	return 1 / mu
}

// NewMediumFromModel samples a velocity model onto the grid: point (i,j,k)
// maps to physical position (i*dx, j*dx, k*dx) offset by (ox, oy, 0), with k
// increasing downward from the free surface. The halo layers are filled by
// clamped sampling so one-sided stencil reads see sensible material.
//
// It is the only pass over the medium at set-up: each column is sampled,
// converted to ρ, λ, μ and 1/μ, and — when interior — audited, while it is
// in cache. The four arrays are made at once (NewMedium), and the pass
// runs on grid.Workers goroutines, each over a contiguous slab of i-planes
// with an audit of its own; the audits merge lowest slab first, so the
// verdict is the first offending cell in (i, j, k) order and the CFL bound
// the one a single pass records. m is sampled from those goroutines at once.
func NewMediumFromModel(d grid.Dims, dx float64, m model.Model, ox, oy float64) *Medium {
	med := NewMedium(d)
	med.sampled = &audit{}
	h := Halo
	// the depth axis clamps to keep z >= 0 for the free surface, so every
	// column is sampled at the same depths: whole columns at a time
	// (model.SampleColumn), which spares a model its per-(x, y) work per point
	zs := make([]float64, d.Nz+2*h)
	for k := range zs {
		zs[k] = float64(min(max(k-h, 0), d.Nz-1)) * dx
	}
	audits := make([]audit, grid.Workers(d.Points()))
	grid.Slabs(-h, d.Nx+h, len(audits), func(s, i0, i1 int) {
		col := make([]model.Material, len(zs))
		for i := i0; i < i1; i++ {
			for j := -h; j < d.Ny+h; j++ {
				// horizontal halo points sample the model at their true
				// global position, so a decomposed block sees exactly the
				// material a serial run holds at the same global indices
				model.SampleColumn(m, ox+float64(i)*dx, oy+float64(j)*dx, zs, col)
				p := med.Rho.Idx(i, j, -h)
				n := len(col)
				rho, lam, mu, rmu := med.Rho.Data[p:p+n], med.Lam.Data[p:p+n], med.Mu.Data[p:p+n], med.rmu.Data[p:p+n]
				for k, mat := range col {
					l, u := mat.Lame()
					rho[k], lam[k], mu[k] = float32(mat.Rho), float32(l), float32(u)
					rmu[k] = recip(mu[k])
				}
				if i >= 0 && i < d.Nx && j >= 0 && j < d.Ny {
					audits[s].column(i, j, rho[h:h+d.Nz], lam[h:h+d.Nz], mu[h:h+d.Nz])
				}
			}
		}
	})
	for _, a := range audits {
		med.sampled.merge(a)
	}
	med.recipMu() // freezes Mu: 1/Mu is built
	return med
}

// Validate reports the first interior cell, in (i, j, k) order, whose
// density is not positive, whose moduli are negative, or whose ρ, λ or μ is
// not finite. For a sampled medium it is the sampling pass's verdict.
func (m *Medium) Validate() error { return m.audited().err }

// MaxVpSquared is the interior maximum of (λ+2μ)/ρ in float64, the square
// of the fastest P speed, which bounds the CFL time step.
func (m *Medium) MaxVpSquared() float64 { return m.audited().maxVp2 }

// audited is what the sampling pass recorded, or for a medium filled by hand
// the same check over its interior now.
func (m *Medium) audited() audit {
	if m.sampled != nil {
		return *m.sampled
	}
	var a audit
	for i := 0; i < m.D.Nx; i++ {
		for j := 0; j < m.D.Ny; j++ {
			a.column(i, j, m.Rho.Row(i, j), m.Lam.Row(i, j), m.Mu.Row(i, j))
		}
	}
	return a
}

// audit accumulates the set-up checks over interior columns visited in
// (i, j) order.
type audit struct {
	err    error   // the first offending cell
	maxVp2 float64 // max of (λ+2μ)/ρ over the cells audited
}

// merge folds in the audit of the columns that follow a's in (i, j) order,
// as if a had gone on to audit them: nothing after a's first offending cell.
func (a *audit) merge(next audit) {
	if a.err != nil {
		return
	}
	a.err, a.maxVp2 = next.err, max(a.maxVp2, next.maxVp2)
}

// column checks the interior z-row of column (i, j).
func (a *audit) column(i, j int, rho, lam, mu []float32) {
	if a.err != nil {
		return
	}
	mu, lam = mu[:len(rho)], lam[:len(rho)]
	r0 := math.Float32bits(float32(math.NaN())) // the bits of no cell
	var l0, u0 uint32
	for k, r := range rho {
		l, u := lam[k], mu[k]
		// a cell equal to the one above passed, and its quotient was compared
		if math.Float32bits(r) == r0 && math.Float32bits(l) == l0 && math.Float32bits(u) == u0 {
			continue
		}
		r0, l0, u0 = math.Float32bits(r), math.Float32bits(l), math.Float32bits(u)
		if !(r > 0 && l >= 0 && u >= 0 && r <= math.MaxFloat32 && l <= math.MaxFloat32 && u <= math.MaxFloat32) {
			switch {
			case r <= 0:
				a.err = fmt.Errorf("fd: non-positive density at (%d,%d,%d)", i, j, k)
			case u < 0 || l < 0:
				a.err = fmt.Errorf("fd: negative modulus at (%d,%d,%d)", i, j, k)
			default:
				a.err = fmt.Errorf("fd: non-finite material at (%d,%d,%d): rho %g, lambda %g, mu %g", i, j, k, r, l, u)
			}
			return
		}
		if v := (float64(l) + 2*float64(u)) / float64(r); v > a.maxVp2 {
			a.maxVp2 = v
		}
	}
}
