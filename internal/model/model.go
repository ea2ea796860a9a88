// Package model builds and samples 3D velocity/density models for the
// earthquake solver, playing the role of the paper's "3D model generator"
// and "3D model interpolator" (Fig. 3): an analytic layered-crust +
// sediment-basin generator stands in for the north-China community model
// (25 km horizontal / 1-2 km vertical resolution in the paper), and a
// trilinear interpolator remaps any coarse gridded model onto the target
// simulation mesh.
package model

import (
	"fmt"
	"math"
)

// Material holds isotropic elastic properties at a point.
type Material struct {
	Vp  float64 // P-wave speed, m/s
	Vs  float64 // S-wave speed, m/s
	Rho float64 // density, kg/m^3
}

// Lame returns the Lamé parameters (lambda, mu) in Pa.
func (m Material) Lame() (lam, mu float64) {
	mu = m.Rho * m.Vs * m.Vs
	lam = m.Rho*(m.Vp*m.Vp) - 2*mu
	return lam, mu
}

// Valid reports whether the material is physically plausible: finite, with
// positive density and P speed and a non-negative S speed.
func (m Material) Valid() bool {
	// NaN fails the comparisons; the sum of the three, none negative, is
	// +Inf when any of them is
	if !(m.Rho > 0 && m.Vp > 0 && m.Vs >= 0) || math.IsInf(m.Rho+m.Vp+m.Vs, 1) {
		return false
	}
	// lambda >= 0 requires Vp >= sqrt(2) Vs
	return m.Vp*m.Vp >= 2*m.Vs*m.Vs
}

func (m Material) String() string {
	return fmt.Sprintf("Vp=%.0f Vs=%.0f rho=%.0f", m.Vp, m.Vs, m.Rho)
}

// Model samples material properties at a point. Coordinates are in meters;
// z is depth below the free surface (z >= 0, increasing downward).
//
// Sample may be called from several goroutines at once (fd's set-up samples
// a block in slabs, one goroutine each): it must not write shared state, or
// must guard what it writes, as Heterogeneous builds its lattice under a
// sync.Once. Every model in this package only reads after construction.
type Model interface {
	Sample(x, y, z float64) Material
}

// ColumnSampler is an optional fast path of a Model: all the depths of one
// (x, y) at once, for models whose Sample repeats work that depends on x and
// y alone. out[k] must be exactly what Sample(x, y, zs[k]) returns, and,
// like Sample, SampleColumn may be called from several goroutines at once,
// each with its own zs and out.
type ColumnSampler interface {
	SampleColumn(x, y float64, zs []float64, out []Material)
}

// SampleColumn fills out[k] with m's material at (x, y, zs[k]): through m's
// ColumnSampler when it has one, point by point otherwise.
func SampleColumn(m Model, x, y float64, zs []float64, out []Material) {
	if cs, ok := m.(ColumnSampler); ok {
		cs.SampleColumn(x, y, zs, out)
		return
	}
	for k, z := range zs {
		out[k] = m.Sample(x, y, z)
	}
}

// Layer is one constant-property layer of a 1D crustal model.
type Layer struct {
	Top float64 // depth of the layer top, m
	M   Material
}

// Layered is a 1D depth-layered model (the classic crustal background).
type Layered struct {
	Layers []Layer // sorted by increasing Top; Layers[0].Top is typically 0
}

// NewLayered builds a layered model, validating ordering and materials.
func NewLayered(layers []Layer) (*Layered, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("model: no layers")
	}
	for i, l := range layers {
		if !l.M.Valid() {
			return nil, fmt.Errorf("model: layer %d has invalid material %v", i, l.M)
		}
		if i > 0 && l.Top <= layers[i-1].Top {
			return nil, fmt.Errorf("model: layer tops not increasing at %d", i)
		}
	}
	return &Layered{Layers: layers}, nil
}

// Sample returns the material of the layer containing depth z.
func (l *Layered) Sample(_, _, z float64) Material {
	m := l.Layers[0].M
	for _, layer := range l.Layers {
		if z >= layer.Top {
			m = layer.M
		} else {
			break
		}
	}
	return m
}

// SampleColumn walks the layers once down a column. Sample's answer is the
// layer before the first one whose top lies deeper than z, and that first
// layer never moves up as z grows, so the walk resumes where the previous
// depth stopped and starts over only when a depth is above the previous one
// (or is NaN).
func (l *Layered) SampleColumn(_, _ float64, zs []float64, out []Material) {
	n, prev, m := 0, math.Inf(-1), l.Layers[0].M
	for k, z := range zs {
		if !(z >= prev) {
			n, m = 0, l.Layers[0].M
		}
		for n < len(l.Layers) && z >= l.Layers[n].Top {
			m = l.Layers[n].M
			n++
		}
		out[k], prev = m, z
	}
}

// Basin is a low-velocity sediment basin carved into a background model.
// The basin floor depth varies horizontally as a sum of Gaussian bowls,
// mimicking the Bohai-bay sediment map of paper Fig. 10a (max depth 800 m).
type Basin struct {
	Background Model
	Sediment   Material
	Bowls      []Bowl
	// GradeDepth linearly blends sediment properties toward the background
	// over the bottom GradeDepth fraction of the local basin depth (0..1).
	GradeDepth float64
}

// Bowl is one Gaussian depression of the basin floor.
type Bowl struct {
	CX, CY   float64 // center, m
	RadiusX  float64 // Gaussian sigma along x, m
	RadiusY  float64 // Gaussian sigma along y, m
	MaxDepth float64 // basin depth at the center, m
}

// Depth returns the basin floor depth at (x, y): the max over all bowls.
func (b *Basin) Depth(x, y float64) float64 {
	var d float64
	for _, bowl := range b.Bowls {
		dx := (x - bowl.CX) / bowl.RadiusX
		dy := (y - bowl.CY) / bowl.RadiusY
		v := bowl.MaxDepth * math.Exp(-0.5*(dx*dx+dy*dy))
		if v > d {
			d = v
		}
	}
	return d
}

// Sample returns sediment inside the basin and the background elsewhere.
func (b *Basin) Sample(x, y, z float64) Material {
	floor, bg := b.Depth(x, y), b.Background.Sample(x, y, z)
	if z >= floor || floor <= 0 {
		return bg
	}
	return b.fill(floor, z, bg)
}

// SampleColumn computes the basin floor — one exponential per bowl — once
// for the column, samples the background as a column, and overwrites the
// depths above the floor.
func (b *Basin) SampleColumn(x, y float64, zs []float64, out []Material) {
	floor := b.Depth(x, y)
	SampleColumn(b.Background, x, y, zs, out)
	for k, z := range zs {
		if !(z >= floor || floor <= 0) {
			out[k] = b.fill(floor, z, out[k])
		}
	}
}

// fill is the material at depth z above a basin floor, over background bg.
func (b *Basin) fill(floor, z float64, bg Material) Material {
	if b.GradeDepth > 0 {
		t := z / floor // 0 at surface, 1 at basin floor
		if start := 1 - b.GradeDepth; t > start {
			f := (t - start) / b.GradeDepth
			return Material{
				Vp:  b.Sediment.Vp + f*(bg.Vp-b.Sediment.Vp),
				Vs:  b.Sediment.Vs + f*(bg.Vs-b.Sediment.Vs),
				Rho: b.Sediment.Rho + f*(bg.Rho-b.Sediment.Rho),
			}
		}
	}
	return b.Sediment
}

// Homogeneous is a uniform whole-space model, handy for tests against
// analytic wave speeds.
type Homogeneous struct{ M Material }

// Sample returns the uniform material.
func (h Homogeneous) Sample(_, _, _ float64) Material { return h.M }
