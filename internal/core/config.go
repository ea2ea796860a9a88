// Package core is the solver that ties every substrate together: the
// unified software framework of paper Fig. 3. A Simulator advances the
// staggered-grid velocity–stress system with optional Drucker–Prager
// plasticity (nonlinear mode), Cerjan absorbing boundaries and a free
// surface, injects moment-tensor or rupture-derived sources, records
// seismograms/PGV, writes LZ4 checkpoints, and optionally stores all nine
// wavefields through 16-bit codecs with the decompress–compute–compress
// workflow of §6.5, round tripping them in place where the paper stores
// them.
//
// All of it runs through one step-pipeline engine (pipeline.go): the
// serial Run, the simulated-MPI RunParallel of §6.3 and every execution
// strategy drive the same stage sequence through the Exchanger seam, so
// features (checkpointing, divergence detection, perf accounting) behave
// identically on every path.
package core

import (
	"fmt"
	"math"
	"time"

	"swquake/internal/checkpoint"
	"swquake/internal/compress"
	"swquake/internal/grid"
	"swquake/internal/model"
	"swquake/internal/seismo"
	"swquake/internal/source"
)

// AutoTiles is another name for the zero Tiles: the engine derives the
// walk's worker count from the host and the block (DerivedTiles on
// GOMAXPROCS divided by the rank count).
const AutoTiles = -1

// SpongeAlpha is the Cerjan damping strength of the absorbing boundary.
const SpongeAlpha = 0.08

// StepEvent describes one completed step of the pipeline, as reported to a
// StepObserver: how far the run is, how long it has been stepping, and how
// fast the medium moves.
type StepEvent struct {
	// Step is the number of completed steps (the first event carries 1).
	Step int
	// Total is the configured step count of the run.
	Total int
	// SimTime is the simulation clock after the step, in seconds.
	SimTime float64
	// Wall is the wall time since the run (or restart) started stepping.
	Wall time.Duration
	// MaxVelocity is the largest |velocity component| anywhere in the run's
	// domain after the step, in m/s — every block's, under RunParallel —
	// and +Inf if any cell holds a NaN. The divergence verdict judges it
	// right after the observer returns.
	MaxVelocity float64
}

// StepObserver receives a StepEvent after every completed pipeline step. It
// is called synchronously from the step loop — on rank 0 only under
// RunParallel — so implementations must be cheap and must not block.
type StepObserver func(StepEvent)

// PlasticityConfig sets the nonlinear material response.
type PlasticityConfig struct {
	// Cohesion in Pa (rock ~5e6, shallow sediment ~1e4-1e5).
	Cohesion float64
	// FrictionAngle in radians.
	FrictionAngle float64
	// FluidPressure in Pa.
	FluidPressure float64
	// Lithostatic enables the depth-dependent initial mean stress.
	Lithostatic bool
	// LithoDensity is the overburden density for the lithostatic profile.
	LithoDensity float64
	// Tv is the viscoplastic relaxation time (0 = instantaneous return).
	Tv float64
}

// AttenuationConfig enables anelastic attenuation (the qp/qs physics of
// AWP-ODC). Either constant quality factors or the Vs-scaled empirical
// rule; F0 is the reference frequency of the constant-Q operator.
type AttenuationConfig struct {
	Enabled bool
	// UseSLS selects the standard-linear-solid memory-variable formulation
	// (6 memory arrays + phi, frequency-dependent Q) instead of the cheap
	// exponential operator.
	UseSLS bool
	F0     float64 // reference frequency, Hz (default: 1)
	// Constant factors (used when VsScaled is false). Zero means elastic.
	Qp, Qs float64
	// VsScaled derives Qs = Factor * Vs(m/s), Qp = 2 Qs from the medium.
	VsScaled bool
	Factor   float64
}

// Config describes one simulation.
type Config struct {
	Dims  grid.Dims
	Dx    float64 // grid spacing, m
	Dt    float64 // time step, s; 0 derives it from the CFL limit
	Steps int

	Model model.Model

	Nonlinear  bool
	Plasticity PlasticityConfig

	Attenuation AttenuationConfig

	// Compression names the codec of the on-the-fly 16-bit storage (Off:
	// float32 storage). Adaptive and Normalized take their ranges from a
	// coarse calibration run (Fig. 5a) that New and RunParallelCtx make
	// once per run, on the run's global configuration.
	Compression compress.Method

	Sources  []source.PointSource
	Stations []seismo.Station // recorded every step

	// SpongeWidth in grid points (0 disables absorbing boundaries); the
	// damping strength is SpongeAlpha.
	SpongeWidth int

	RecordPGV bool

	// Checkpoint, when non-nil, saves restart dumps during the run: every
	// block's interior is gathered to block 0, which writes one global dump
	// (Simulator.checkpoint) — the same bytes whatever the decomposition.
	Checkpoint *checkpoint.Controller

	// RestartFrom, when non-empty, resumes from the named checkpoint
	// before stepping: Run restores the global wavefield, RunParallel has
	// every rank extract its block (plus halos) from the global dump.
	// Steps is then the TOTAL step count of the simulation, so a run
	// checkpointed at step N performs Steps-N further steps. A compressed
	// run resumes bit-exactly only under the Steps of the run that wrote
	// the dump: its codecs are calibrated on a coarse run of Steps/2 steps
	// (at least 4), so another total calibrates other codecs.
	RestartFrom string

	// Observer, when non-nil, is invoked after every completed step (rank 0
	// only under RunParallel) — the one progress mechanism shared by the
	// CLI, the job service and any other driver of the engine.
	Observer StepObserver

	// Tiles sets the intra-rank parallelism of the kernel stages: how many
	// workers walk the strips of each walk of the step at once, strip k on
	// worker k mod Tiles, each strip a plane behind the one before it (a
	// wavefront) — the result, bit for bit, is unchanged. The block's strips
	// are cut so that each worker gets as many; a count above the strips
	// leaves the rest idle, and a block of at most 32768 cells is one strip,
	// so one worker. 0 (or AutoTiles) derives the count from the host and
	// the block, by the rule set-up shares its passes by: GOMAXPROCS divided
	// by the rank count under RunParallel, fewer, down to one, on a block too
	// small for workers to pay (DerivedTiles). 1 runs the stages
	// single-threaded. Result.Perf.Workers reports what the run walked on.
	// Workers walk only while Run/RunParallel is stepping; a bare Step() is
	// always single-threaded. Set-up does not read Tiles: it makes the
	// block's arrays and samples its medium on grid.Workers goroutines at any
	// setting.
	Tiles int

	// Overlap hides velocity-halo latency under RunParallel: the ring of
	// velocities a neighbour is sent is computed and posted first, the
	// interior walked while the messages fly, the boundary shells after the
	// wait (paper §6.2); without it a rank with neighbours waits for the halo
	// before any stress work. The same walk over other passes, so
	// bit-identical by construction (DESIGN.md §3.5). No effect on serial
	// runs: a lone block has no ring and no shell, and walks whole either way.
	Overlap bool

	// StepDeadline bounds every halo-exchange wait under RunParallel: a
	// receive still pending after this long is diagnosed as a stalled
	// neighbour and the run unwinds collectively with an EngineFault
	// (kind "stall") instead of deadlocking forever. 0 disables the
	// watchdog. Size it generously — several times the slowest expected
	// step — or slow machines will see spurious stalls.
	StepDeadline time.Duration

	// MaxFaultRetries is how many times RunParallelCtx heals an
	// EngineFault in-process by rewinding to the newest valid checkpoint
	// in Checkpoint.Dir (or RestartFrom, or the start) and resuming. 0
	// means a fault fails the run on first occurrence. Non-fault errors
	// (divergence, cancellation) are never retried.
	MaxFaultRetries int

	// OnFault, when non-nil, receives one FaultEvent per contained engine
	// fault — recovered or not — as it happens. Called from the merge
	// goroutine of RunParallelCtx, never concurrently with itself.
	OnFault func(FaultEvent)
}

// Validate checks the configuration and fills defaults in place.
func (c *Config) Validate() error {
	if !c.Dims.Valid() {
		return fmt.Errorf("core: invalid dims %v", c.Dims)
	}
	if !(c.Dx > 0) || math.IsInf(c.Dx, 1) {
		return fmt.Errorf("core: dx %g is not finite and positive", c.Dx)
	}
	if c.Steps <= 0 {
		return fmt.Errorf("core: non-positive step count")
	}
	if c.Model == nil {
		return fmt.Errorf("core: no velocity model")
	}
	if c.SpongeWidth < 0 || 2*c.SpongeWidth >= min(c.Dims.Nx, c.Dims.Ny) {
		return fmt.Errorf("core: sponge width %d does not fit %v", c.SpongeWidth, c.Dims)
	}
	if c.Nonlinear {
		p := &c.Plasticity
		if p.Cohesion <= 0 {
			return fmt.Errorf("core: nonlinear run needs positive cohesion")
		}
		if p.FrictionAngle <= 0 {
			return fmt.Errorf("core: nonlinear run needs a friction angle")
		}
		if p.Lithostatic && p.LithoDensity <= 0 {
			p.LithoDensity = 2500
		}
	}
	if c.Attenuation.Enabled {
		a := &c.Attenuation
		if a.F0 <= 0 {
			a.F0 = 1
		}
		if !a.VsScaled && (a.Qp < 0 || a.Qs < 0) {
			return fmt.Errorf("core: negative quality factor")
		}
		if a.VsScaled && a.Factor < 0 {
			return fmt.Errorf("core: negative Q scale factor")
		}
	}
	if c.Tiles < AutoTiles {
		return fmt.Errorf("core: invalid tile count %d", c.Tiles)
	}
	for _, s := range c.Stations {
		if s.I < 0 || s.I >= c.Dims.Nx || s.J < 0 || s.J >= c.Dims.Ny || s.K < 0 || s.K >= c.Dims.Nz {
			return fmt.Errorf("core: station %q outside grid", s.Name)
		}
	}
	if c.StepDeadline < 0 {
		return fmt.Errorf("core: negative step deadline")
	}
	if c.MaxFaultRetries < 0 {
		return fmt.Errorf("core: negative fault retry count")
	}
	return nil
}

// FieldNames names the nine dynamic fields, in fd.Wavefield.AllFields
// order, which is also the order of a compressed run's codecs.
var FieldNames = []string{"u", "v", "w", "xx", "yy", "zz", "xy", "xz", "yz"}
