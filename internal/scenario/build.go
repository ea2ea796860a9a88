package scenario

import (
	"fmt"

	"swquake/internal/core"
	"swquake/internal/grid"
	"swquake/internal/model"
)

// Overrides adjusts a named scenario. Zero values keep the scenario's
// defaults, so an empty Overrides runs the scenario as shipped.
type Overrides struct {
	Nx        int     `json:"nx,omitempty"`
	Ny        int     `json:"ny,omitempty"`
	Nz        int     `json:"nz,omitempty"`
	Dx        float64 `json:"dx,omitempty"`
	Steps     int     `json:"steps,omitempty"`
	Nonlinear bool    `json:"nonlinear,omitempty"`
	// Qs enables constant-Q attenuation (Qp = 2 Qs) when positive.
	Qs float64 `json:"qs,omitempty"`
	// QVsScaled enables Vs-scaled attenuation (takes precedence over Qs).
	QVsScaled bool `json:"q_vs,omitempty"`
	// Overlap enables the communication-hiding pipeline variant
	// (core.Config.Overlap). Bit-identical too; matters for parallel runs.
	Overlap bool `json:"overlap,omitempty"`
	// HetAmplitude, when positive, superposes stochastic small-scale
	// velocity heterogeneity (model.Heterogeneous) on the scenario's
	// velocity model: the RMS fractional perturbation (e.g. 0.05).
	// Distinct Seeds then give distinct realizations — the substrate of
	// ensemble campaigns.
	HetAmplitude float64 `json:"het_amplitude,omitempty"`
	// HetCorrLen is the heterogeneity correlation length in meters
	// (0 = 8 grid spacings).
	HetCorrLen float64 `json:"het_corr_len,omitempty"`
	// Seed selects the heterogeneity realization. It is part of the
	// config's cache identity (via the model rendering in ConfigKey), so
	// two members of a seed sweep never collide in the result cache.
	Seed int64 `json:"seed,omitempty"`
}

// Names lists the scenarios Build accepts.
func Names() []string { return []string{"quickstart", "tangshan"} }

// Build constructs a named scenario's configuration with overrides applied
// — the one entry point shared by the quakesim CLI and the quaked daemon,
// so a scenario requested over HTTP is exactly the scenario the CLI runs.
func Build(name string, o Overrides) (core.Config, error) {
	var cfg core.Config
	switch name {
	case "quickstart":
		cfg = Quickstart()
		if o.Nx != 0 || o.Ny != 0 || o.Nz != 0 || o.Dx != 0 {
			return cfg, fmt.Errorf("scenario: quickstart has a fixed grid; use tangshan for custom sizes")
		}
		if o.Nonlinear {
			return cfg, fmt.Errorf("scenario: quickstart is linear; use tangshan with nonlinear")
		}
		if o.Steps > 0 {
			cfg.Steps = o.Steps
		}
	case "tangshan":
		s := Tangshan{
			Dims:      grid.Dims{Nx: 64, Ny: 62, Nz: 24},
			Dx:        500,
			Steps:     200,
			Nonlinear: o.Nonlinear,
		}
		if o.Nx > 0 {
			s.Dims.Nx = o.Nx
		}
		if o.Ny > 0 {
			s.Dims.Ny = o.Ny
		}
		if o.Nz > 0 {
			s.Dims.Nz = o.Nz
		}
		if o.Dx > 0 {
			s.Dx = o.Dx
		}
		if o.Steps > 0 {
			s.Steps = o.Steps
		}
		var err error
		cfg, err = s.Config()
		if err != nil {
			return cfg, err
		}
	default:
		return core.Config{}, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, Names())
	}
	switch {
	case o.QVsScaled:
		cfg.Attenuation = core.AttenuationConfig{Enabled: true, VsScaled: true, Factor: 0.05, F0: 2}
	case o.Qs > 0:
		cfg.Attenuation = core.AttenuationConfig{Enabled: true, Qp: 2 * o.Qs, Qs: o.Qs, F0: 2}
	}
	if o.Overlap {
		cfg.Overlap = true
	}
	if o.Seed != 0 && o.HetAmplitude <= 0 {
		return cfg, fmt.Errorf("scenario: seed %d set without het_amplitude — the seed would be a silent no-op", o.Seed)
	}
	if o.HetAmplitude > 0 {
		corrLen := o.HetCorrLen
		if corrLen <= 0 {
			corrLen = 8 * cfg.Dx
		}
		if corrLen < cfg.Dx {
			// unresolvable on the grid, and a lattice finer than the grid
			// it perturbs
			return cfg, fmt.Errorf("scenario: het_corr_len %g m is below the grid spacing %g m", corrLen, cfg.Dx)
		}
		lx := float64(cfg.Dims.Nx) * cfg.Dx
		ly := float64(cfg.Dims.Ny) * cfg.Dx
		lz := float64(cfg.Dims.Nz) * cfg.Dx
		cfg.Model = model.NewHeterogeneous(cfg.Model, o.HetAmplitude, corrLen, lx, ly, lz, o.Seed)
	}
	return cfg, nil
}
