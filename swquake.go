// Package swquake is a reproduction, in pure Go, of the SC'17 Gordon Bell
// paper "18.9-Pflops Nonlinear Earthquake Simulation on Sunway TaihuLight:
// Enabling Depiction of 18-Hz and 8-Meter Scenarios" (Fu et al.).
//
// The package exposes the complete framework of the paper's Fig. 3:
//
//   - a 4th-order staggered-grid velocity–stress finite-difference solver
//     with Drucker–Prager plasticity (the nonlinear mode), Cerjan absorbing
//     boundaries and a free surface;
//   - a dynamic rupture source generator with slip-weakening friction;
//   - 3D velocity models (layered crust, sediment basins, gridded models
//     with trilinear interpolation) and a synthetic Tangshan scenario;
//   - the on-the-fly 16-bit compression scheme (three codecs), whose
//     coarse-run calibration pass each compressed run makes itself;
//   - LZ4-compressed checkpoint/restart with group-I/O planning;
//   - a simulated-MPI parallel runner using the paper's 2D decomposition;
//   - a calibrated Sunway SW26010 machine model and performance model that
//     regenerate the paper's tables and figures.
//
// Quick start:
//
//	cfg := swquake.QuickstartConfig()
//	sim, err := swquake.New(cfg)
//	if err != nil { ... }
//	res, err := sim.Run()
//	fmt.Println(res.Recorder.Trace("station-0").PeakVelocity())
//
// The heavy lifting lives in the internal packages; this package re-exports
// the stable surface a downstream user needs.
package swquake

import (
	"swquake/internal/checkpoint"
	"swquake/internal/compress"
	"swquake/internal/core"
	"swquake/internal/fd"
	"swquake/internal/grid"
	"swquake/internal/model"
	"swquake/internal/rupture"
	"swquake/internal/seismo"
	"swquake/internal/source"
)

// Core solver types.
type (
	// Config describes one simulation (grid, physics, sources, outputs).
	Config = core.Config
	// Simulator advances a configured simulation.
	Simulator = core.Simulator
	// Result is what Run returns: seismograms, PGV, counters.
	Result = core.Result
	// PlasticityConfig sets the nonlinear (Drucker–Prager) response.
	PlasticityConfig = core.PlasticityConfig
	// AttenuationConfig enables anelastic attenuation (exponential
	// constant-Q or the SLS memory-variable formulation).
	AttenuationConfig = core.AttenuationConfig
	// Perf is the PERF-style flop/throughput accounting of a run.
	Perf = core.Perf
	// Dims is a 3D grid extent.
	Dims = grid.Dims
)

// Model types.
type (
	// Material is an isotropic elastic material (Vp, Vs, rho).
	Material = model.Material
	// Model samples material at physical coordinates. Set-up samples a
	// model from several goroutines at once, so its Sample (and
	// SampleColumn, when it has one) must be safe for concurrent use.
	Model = model.Model
	// Layered is a 1D layered crustal model.
	Layered = model.Layered
	// Basin carves a low-velocity sediment basin into a background model.
	Basin = model.Basin
	// GridModel is a discretely sampled model with trilinear interpolation.
	GridModel = model.GridModel
)

// Source and recording types.
type (
	// PointSource is a moment-tensor point source.
	PointSource = source.PointSource
	// MomentTensor is a symmetric seismic moment tensor.
	MomentTensor = source.MomentTensor
	// STF is a source-time function (moment rate over time).
	STF = source.STF
	// Ricker is the Ricker wavelet STF.
	Ricker = source.Ricker
	// Station is a named receiver location.
	Station = seismo.Station
	// Trace is a recorded three-component seismogram.
	Trace = seismo.Trace
	// PGVField accumulates peak ground velocity over the surface.
	PGVField = seismo.PGVField
)

// Rupture types.
type (
	// RuptureConfig describes a dynamic-rupture fault.
	RuptureConfig = rupture.Config
	// RuptureResult is a computed rupture history.
	RuptureResult = rupture.Result
)

// CheckpointController writes periodic LZ4-compressed restart dumps.
type CheckpointController = checkpoint.Controller

// Compression method selectors (paper Fig. 5d), for Config.Compression: a
// run that names Adaptive or Normalized calibrates their ranges on a coarse
// run of itself first (Fig. 5a).
const (
	CompressionOff        = compress.Off
	CompressionHalf       = compress.Half
	CompressionAdaptive   = compress.Adaptive
	CompressionNormalized = compress.Normalized
)

// New builds a Simulator from a validated configuration.
func New(cfg Config) (*Simulator, error) { return core.New(cfg) }

// RunParallel runs the configuration over an mx x my grid of simulated MPI
// ranks (paper §6.3), producing results identical to a serial run. All
// serial features work here too: checkpoints are gathered to rank 0 and
// written as one global dump (resumable by serial or parallel runs via
// Config.RestartFrom), and Result.Perf is the run's: its configuration's
// work and rank 0's stepping time.
func RunParallel(cfg Config, mx, my int) (*Result, error) {
	return core.RunParallel(cfg, mx, my)
}

// Medium is the sampled material grid used by the rupture generator and
// the kernels (density and Lamé moduli on the simulation mesh).
type Medium = fd.Medium

// NewMediumFromModel samples a velocity model onto a grid with spacing dx;
// (ox, oy) places the block in model coordinates.
func NewMediumFromModel(d Dims, dx float64, m Model, ox, oy float64) *Medium {
	return fd.NewMediumFromModel(d, dx, m, ox, oy)
}

// SimulateRupture runs the dynamic rupture generator (paper Fig. 3, the
// CG-FDM component) and returns the slip history, convertible to point
// sources via RuptureResult.Sources.
func SimulateRupture(cfg RuptureConfig, med *Medium, dx, dt float64, steps int) (*RuptureResult, error) {
	return rupture.Simulate(cfg, med, dx, dt, steps)
}

// TangshanRuptureConfig builds a scaled Tangshan-like non-planar fault for
// the given grid (paper §8.1).
func TangshanRuptureConfig(d Dims, dx float64) RuptureConfig {
	return rupture.TangshanConfig(d, dx)
}
