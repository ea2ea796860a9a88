// Package scenario builds ready-to-run simulation configurations: the
// quickstart demo and the scaled Tangshan earthquake scenario of the
// paper's §8 (used by the CLIs, the bench harness and the public API).
package scenario

import (
	"fmt"

	"math"
	"swquake/internal/core"
	"swquake/internal/grid"

	"swquake/internal/model"
	"swquake/internal/seismo"
	"swquake/internal/source"
)

// Quickstart returns a small, fast configuration: an explosion source in a
// homogeneous half-space with one surface station.
func Quickstart() core.Config {
	return core.Config{
		Dims:  grid.Dims{Nx: 32, Ny: 32, Nz: 24},
		Dx:    100,
		Steps: 100,
		Model: model.Homogeneous{M: model.Material{Vp: 4000, Vs: 2310, Rho: 2500}},
		Sources: []source.PointSource{{
			I: 16, J: 16, K: 12,
			M: source.Explosion(),
			S: source.Ricker{F0: 3, T0: 0.3, M0: 1e13},
		}},
		Stations:    []seismo.Station{{Name: "station-0", I: 26, J: 16, K: 0}},
		SpongeWidth: 5,
		RecordPGV:   true,
	}
}

// Tangshan describes a scaled Tangshan ground-motion run: the paper's
// 320 km x 312 km x 40 km domain shrunk onto a laptop-sized mesh while
// preserving the relative geometry of the fault, the sediment basin and
// the station layout (Ninghe near the fault and in the basin, Cangzhou
// far to the south-west — the two stations of Figs. 6 and 11).
type Tangshan struct {
	Dims      grid.Dims
	Dx        float64 // m
	Steps     int
	Nonlinear bool
}

// Stations returns the scenario's named receivers at scaled positions.
func (s Tangshan) Stations() []seismo.Station {
	nx, ny := s.Dims.Nx, s.Dims.Ny
	return []seismo.Station{
		{Name: "Ninghe", I: nx * 45 / 100, J: ny * 48 / 100, K: 0},
		{Name: "Cangzhou", I: nx * 30 / 100, J: ny * 15 / 100, K: 0},
		{Name: "Beijing", I: nx * 15 / 100, J: ny * 75 / 100, K: 0},
	}
}

// TotalMoment is the kinematic source's scalar moment (N·m). At the
// default laptop scale it corresponds to a ~Mw 6.3 event, which produces
// the paper's intensity-6-to-10 hazard pattern on the shrunken domain.
const TotalMoment = 3e19

// kinematicFault builds the distributed strike-slip source: a line of
// sub-sources along the scaled Tangshan fault trace at one-third depth,
// with onset delays propagating from the hypocentre at a sub-shear rupture
// speed — a kinematic stand-in for the dynamic source of §8.1.
func (s Tangshan) kinematicFault() []source.PointSource {
	const (
		nsrc = 12
		vr   = 2800.0 // rupture speed, m/s
		f0   = 2.5
		t0   = 0.4
	)
	i0 := s.Dims.Nx * 25 / 100
	i1 := s.Dims.Nx * 70 / 100
	hypo := s.Dims.Nx * 40 / 100
	j := s.Dims.Ny / 2
	kTop := s.Dims.Nz / 3
	depths := []int{kTop, kTop + 1, kTop + 2, kTop + 3}
	cols := []int{j, j + 1}
	srcs := make([]source.PointSource, 0, nsrc*len(depths)*len(cols))
	perSource := TotalMoment / float64(nsrc*len(depths)*len(cols))
	for n := 0; n < nsrc; n++ {
		i := i0 + n*(i1-i0)/(nsrc-1)
		delay := math.Abs(float64(i-hypo)) * s.Dx / vr
		for _, k := range depths {
			for _, jj := range cols {
				srcs = append(srcs, source.PointSource{
					I: i, J: jj, K: k,
					M: source.StrikeSlipXY(),
					S: source.Ricker{F0: f0, T0: t0 + delay, M0: perSource},
				})
			}
		}
	}
	return srcs
}

// Config builds the ground-motion configuration with a kinematic
// strike-slip source along the scaled fault. For the full dynamic-source
// pipeline, generate sources with the rupture package and substitute them.
func (s Tangshan) Config() (core.Config, error) {
	if !s.Dims.Valid() || s.Dx <= 0 || s.Steps <= 0 {
		return core.Config{}, fmt.Errorf("scenario: invalid Tangshan scenario %+v", s)
	}
	lx := float64(s.Dims.Nx) * s.Dx
	ly := float64(s.Dims.Ny) * s.Dx
	lz := float64(s.Dims.Nz) * s.Dx
	m := model.ScaledTangshan(lx, ly, lz)

	cfg := core.Config{
		Dims:        s.Dims,
		Dx:          s.Dx,
		Steps:       s.Steps,
		Model:       m,
		Sources:     s.kinematicFault(),
		Stations:    s.Stations(),
		SpongeWidth: 5,
		RecordPGV:   true,
	}
	if s.Nonlinear {
		cfg.Nonlinear = true
		cfg.Plasticity = core.PlasticityConfig{
			Cohesion:      5e4, // weak shallow sediment
			FrictionAngle: 0.5236,
			Lithostatic:   true,
			LithoDensity:  2400,
		}
	}
	return cfg, nil
}
