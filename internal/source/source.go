// Package source provides seismic source representations for the solver:
// moment-tensor point sources driven by source-time functions, kinematic
// multi-point rupture sources (as produced by the dynamic rupture
// generator), and the source partitioner that splits one large source input
// across the source-responsible MPI ranks (paper Fig. 3).
package source

import (
	"fmt"
	"math"
	"sort"

	"swquake/internal/fd"
	"swquake/internal/grid"
)

// STF is a source-time function: moment rate (N·m/s) as a function of time.
type STF interface {
	MomentRate(t float64) float64
}

// Ricker is a Ricker wavelet STF with peak frequency F0, onset delay T0 and
// scalar moment M0.
type Ricker struct {
	F0, T0, M0 float64
}

// MomentRate returns the Ricker moment rate at time t.
func (r Ricker) MomentRate(t float64) float64 {
	a := math.Pi * r.F0 * (t - r.T0)
	return r.M0 * (1 - 2*a*a) * math.Exp(-a*a)
}

// Sampled is an STF tabulated at fixed Dt (slip-rate output of the dynamic
// rupture generator becomes moment rate here); linear interpolation between
// samples, zero outside.
type Sampled struct {
	Dt    float64
	Rates []float64
}

// MomentRate linearly interpolates the tabulated rates.
func (s Sampled) MomentRate(t float64) float64 {
	if t < 0 || len(s.Rates) == 0 {
		return 0
	}
	x := t / s.Dt
	i := int(x)
	if i >= len(s.Rates)-1 {
		if i == len(s.Rates)-1 && x == float64(i) {
			return s.Rates[i]
		}
		return 0
	}
	f := x - float64(i)
	return s.Rates[i]*(1-f) + s.Rates[i+1]*f
}

// Scaled multiplies another STF's moment rate by Factor. The compression
// calibration uses it to match moment density between grids of different
// spacing (a point source's stress amplitude scales with moment/cell
// volume).
type Scaled struct {
	S      STF
	Factor float64
}

// MomentRate returns Factor times the wrapped moment rate.
func (s Scaled) MomentRate(t float64) float64 { return s.Factor * s.S.MomentRate(t) }

// MomentTensor holds the six independent components of a symmetric seismic
// moment tensor (unit-normalized; the STF supplies the scalar moment).
type MomentTensor struct {
	Mxx, Myy, Mzz, Mxy, Mxz, Myz float64
}

// Explosion is the isotropic moment tensor.
func Explosion() MomentTensor { return MomentTensor{Mxx: 1, Myy: 1, Mzz: 1} }

// StrikeSlipXY is a vertical strike-slip double couple on a fault plane
// normal to y with slip along x (the dominant mechanism of the Tangshan
// earthquake).
func StrikeSlipXY() MomentTensor { return MomentTensor{Mxy: 1} }

// PointSource is one moment-tensor point source at a grid location.
type PointSource struct {
	I, J, K int
	M       MomentTensor
	S       STF
}

// Inject adds the source contribution for the time step ending at time t
// into the stress fields: dσij -= Mij * ṁ(t) * dt / dx^3 (moment density).
func (p *PointSource) Inject(wf *fd.Wavefield, t, dt, dx float64) {
	rate := p.S.MomentRate(t)
	if rate == 0 {
		return
	}
	s := float32(rate * dt / (dx * dx * dx))
	wf.XX.Add(p.I, p.J, p.K, -s*float32(p.M.Mxx))
	wf.YY.Add(p.I, p.J, p.K, -s*float32(p.M.Myy))
	wf.ZZ.Add(p.I, p.J, p.K, -s*float32(p.M.Mzz))
	wf.XY.Add(p.I, p.J, p.K, -s*float32(p.M.Mxy))
	wf.XZ.Add(p.I, p.J, p.K, -s*float32(p.M.Mxz))
	wf.YZ.Add(p.I, p.J, p.K, -s*float32(p.M.Myz))
}

// Set is a collection of point sources with injection over a z-range.
type Set struct {
	Sources []PointSource
}

// InjectRegion adds every source whose grid point lies in the region,
// preserving list order. A source belongs to exactly one region of any
// disjoint partition, and co-located sources stay in the same region in the
// same order, so region-decomposed injection is bit-identical to full-grid
// injection.
func (s *Set) InjectRegion(wf *fd.Wavefield, t, dt, dx float64, r grid.Region) {
	for i := range s.Sources {
		src := &s.Sources[i]
		if src.I >= r.I0 && src.I < r.I1 && src.J >= r.J0 && src.J < r.J1 &&
			src.K >= r.K0 && src.K < r.K1 {
			src.Inject(wf, t, dt, dx)
		}
	}
}

// MomentMagnitude converts a scalar moment (N·m) to Mw.
func MomentMagnitude(m0 float64) float64 {
	if m0 <= 0 {
		return math.Inf(-1)
	}
	return 2.0/3.0*math.Log10(m0) - 6.07
}

// Partition splits the sources among an Mx x My process grid over a global
// domain of nx x ny points, returning for each rank the sources that fall
// in its block with indices rebased to block-local coordinates — the
// paper's "source partitioner" that turns one large source input into
// per-rank files. Sources on rank boundaries go to the owning (lower) rank.
func Partition(sources []PointSource, nx, ny, mx, my int) ([][]PointSource, error) {
	if nx%mx != 0 || ny%my != 0 {
		return nil, fmt.Errorf("source: domain %dx%d not divisible by process grid %dx%d", nx, ny, mx, my)
	}
	bx, by := nx/mx, ny/my
	parts := make([][]PointSource, mx*my)
	for _, s := range sources {
		if s.I < 0 || s.I >= nx || s.J < 0 || s.J >= ny {
			return nil, fmt.Errorf("source: point (%d,%d) outside %dx%d domain", s.I, s.J, nx, ny)
		}
		px, py := s.I/bx, s.J/by
		rank := px*my + py
		local := s
		local.I -= px * bx
		local.J -= py * by
		parts[rank] = append(parts[rank], local)
	}
	// deterministic ordering inside each rank for reproducible runs — and a
	// stable one: co-located sources are summed in list order, as the serial
	// run sums them
	for _, p := range parts {
		sort.SliceStable(p, func(a, b int) bool {
			if p[a].K != p[b].K {
				return p[a].K < p[b].K
			}
			if p[a].J != p[b].J {
				return p[a].J < p[b].J
			}
			return p[a].I < p[b].I
		})
	}
	return parts, nil
}
