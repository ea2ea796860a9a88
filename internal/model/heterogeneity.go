package model

import (
	"math/rand"
	"sync"
)

// Stochastic small-scale heterogeneity. Community velocity models (like
// the paper's north-China model) resolve only kilometre-scale structure;
// high-frequency simulations conventionally superpose a correlated random
// perturbation field on top, which scatters energy into the coda. This is
// a simple smoothed-noise implementation: white noise on a coarse lattice,
// trilinearly interpolated (correlation length = lattice spacing), scaling
// Vp and Vs together (density follows with half the relative amplitude,
// Birch-law-style), clamped so materials stay valid.

// Heterogeneous wraps a base model with a correlated perturbation field.
type Heterogeneous struct {
	Base Model
	// Amplitude is the RMS fractional velocity perturbation (e.g. 0.05).
	Amplitude float64
	// CorrLen is the correlation length in meters.
	CorrLen float64
	// Seed makes the field reproducible.
	Seed int64

	// the lattice of perturbation factors over lx x ly x lz meters, built by
	// the first sample: describing a model costs nothing, so a request is
	// priced (admission) before anything is allocated for it
	lx, ly, lz float64
	once       sync.Once
	noise      *GridModel
}

// NewHeterogeneous describes the perturbation field covering a domain of
// (lx, ly, lz) meters.
func NewHeterogeneous(base Model, amplitude, corrLen, lx, ly, lz float64, seed int64) *Heterogeneous {
	return &Heterogeneous{Base: base, Amplitude: amplitude, CorrLen: corrLen, Seed: seed, lx: lx, ly: ly, lz: lz}
}

// buildNoise fills the lattice: white noise, one value per corrLen.
func (h *Heterogeneous) buildNoise() {
	amplitude, corrLen := h.Amplitude, h.CorrLen
	nx := int(h.lx/corrLen) + 2
	ny := int(h.ly/corrLen) + 2
	nz := int(h.lz/corrLen) + 2
	rng := rand.New(rand.NewSource(h.Seed))
	g := &GridModel{
		NX: nx, NY: ny, NZ: nz,
		DX: corrLen, DY: corrLen, DZ: corrLen,
		Vp:  make([]float64, nx*ny*nz),
		Vs:  make([]float64, nx*ny*nz),
		Rho: make([]float64, nx*ny*nz),
	}
	for i := range g.Vp {
		p := rng.NormFloat64() * amplitude
		// clamp at 3 sigma to keep materials valid
		if p > 3*amplitude {
			p = 3 * amplitude
		}
		if p < -3*amplitude {
			p = -3 * amplitude
		}
		g.Vp[i] = p
		g.Vs[i] = p
		g.Rho[i] = p / 2
	}
	h.noise = g
}

// Sample perturbs the base material.
func (h *Heterogeneous) Sample(x, y, z float64) Material {
	h.once.Do(h.buildNoise)
	return perturb(h.Base.Sample(x, y, z), h.noise.Sample(x, y, z))
}

// SampleColumn samples the base by column and perturbs it through the noise
// lattice's column.
func (h *Heterogeneous) SampleColumn(x, y float64, zs []float64, out []Material) {
	SampleColumn(h.Base, x, y, zs, out)
	h.once.Do(h.buildNoise)
	c := h.noise.column(x, y)
	for k, z := range zs {
		out[k] = perturb(out[k], c.at(z))
	}
}

// perturb applies the interpolated perturbation triple p to the base
// material m.
func perturb(m, p Material) Material {
	out := Material{
		Vp:  m.Vp * (1 + p.Vp),
		Vs:  m.Vs * (1 + p.Vs),
		Rho: m.Rho * (1 + p.Rho),
	}
	// guard Poisson validity: keep Vp >= sqrt(2) Vs
	if out.Vp*out.Vp < 2*out.Vs*out.Vs {
		out.Vp = out.Vs * 1.42
	}
	return out
}
