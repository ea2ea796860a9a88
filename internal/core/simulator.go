package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"swquake/internal/cgexec"
	"swquake/internal/checkpoint"
	"swquake/internal/compress"
	"swquake/internal/decomp"
	"swquake/internal/fd"
	"swquake/internal/grid"
	"swquake/internal/model"
	"swquake/internal/plasticity"
	"swquake/internal/seismo"
	"swquake/internal/source"
	"swquake/internal/telemetry"
)

// Simulator advances one block of the simulation.
type Simulator struct {
	Cfg Config

	WF   *fd.Wavefield
	Med  *fd.Medium
	Plas *plasticity.Params

	sponge  *fd.Sponge
	atten   *fd.Attenuation
	sls     *fd.SLS
	cgx     *cgexec.Executor
	backend Backend
	rec     *seismo.Recorder
	pgv     *seismo.PGVField
	srcs    source.Set
	comp    *compressedState

	// tiles is the resolved intra-rank tile count (effectiveTiles); pool is
	// the live worker pool, attached only while Run/RunParallel is stepping
	// (startTiling). A nil pool executes every fan inline.
	tiles int
	pool  *tilePool
	// ovInterior/ovShells are the precomputed overlap decomposition of the
	// block: the interior (stencils never reach a ghost layer) and the four
	// boundary shells, used by stepOverlapped when Cfg.Overlap is set.
	ovInterior grid.Region
	ovShells   []grid.Region

	step    int
	simTime float64
	yielded int64
	perf    Perf
	// stages is this worker's per-stage timing collector, always on (<2% of
	// a step: BenchmarkStepTimingOverhead): lock-free because each rank owns
	// its own clock, merged across ranks by RunParallel.
	stages *telemetry.StageClock
}

// Result is what Run returns.
type Result struct {
	Recorder *seismo.Recorder
	PGV      *seismo.PGVField
	Steps    int
	Dt       float64
	// YieldedPointSteps counts (point, step) pairs where plasticity engaged.
	YieldedPointSteps int64
	// Perf is the PERF-style flop/throughput accounting of the run.
	Perf Perf
	// Sunway holds the simulated core-group accounting when Config.SunwaySim
	// is set (nil stats otherwise).
	Sunway *cgexec.Stats
	// Checkpoints lists restart files written during the run; every one is
	// durable by the time the run returns.
	Checkpoints []checkpoint.Info
	// CheckpointWriteSeconds sums the dumps' write time — work the
	// checkpoint lane did beside the solver, which StageCheckpoint (the
	// snapshot and any wait for the previous dump) does not include.
	CheckpointWriteSeconds float64
	// Stages is the per-stage wall-time accounting of the run (summed over
	// ranks under RunParallel). Call Stages.Report() for the Fig. 7-style
	// breakdown.
	Stages *telemetry.StageClock
	// Faults lists the engine faults RunParallelCtx contained AND recovered
	// from in-process (Config.MaxFaultRetries); a fault that exhausted the
	// retry budget fails the run instead. Empty on an undisturbed run.
	Faults []FaultEvent
	// Sim exposes the simulator for inspection after the run.
	Sim *Simulator
}

// New builds a simulator: samples the medium, derives the time step,
// prepares plasticity, sponge, recorders, and compressed storage.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{Cfg: cfg, stages: telemetry.NewStageClock()}
	s.WF = fd.NewWavefield(cfg.Dims)
	s.Med = fd.NewMediumFromModel(cfg.Dims, cfg.Dx, cfg.Model, cfg.OriginX, cfg.OriginY)
	if err := s.Med.Validate(); err != nil {
		return nil, err
	}

	if s.Cfg.Dt <= 0 {
		s.Cfg.Dt = s.autoDt()
	} else if s.Cfg.Dt > s.autoDt() {
		return nil, fmt.Errorf("core: dt %g exceeds CFL limit %g", s.Cfg.Dt, s.autoDt())
	}

	if cfg.Nonlinear {
		p := plasticity.NewParams(cfg.Dims)
		p.SetUniform(cfg.Plasticity.Cohesion, cfg.Plasticity.FrictionAngle, cfg.Plasticity.FluidPressure)
		if cfg.Plasticity.Lithostatic {
			p.SetLithostatic(cfg.Dx, cfg.Plasticity.LithoDensity)
		}
		p.Tv = cfg.Plasticity.Tv
		s.Plas = p
	}
	if cfg.SpongeWidth > 0 {
		s.sponge = fd.NewSponge(cfg.Dims.Nx, cfg.Dims.Ny, cfg.Dims.Nz, cfg.SpongeWidth, cfg.SpongeAlpha)
	}
	if cfg.Attenuation.Enabled {
		s.buildAttenuation()
	}
	s.rec = seismo.NewRecorder(cfg.Stations, s.Cfg.Dt, cfg.SampleEvery)
	if cfg.RecordPGV {
		s.pgv = seismo.NewPGVField(cfg.Dims.Nx, cfg.Dims.Ny, 0)
	}
	s.srcs = source.Set{Sources: cfg.Sources}

	if cfg.Compression.Method != compress.Off {
		cs, err := newCompressedState(s.WF, cfg.Compression)
		if err != nil {
			return nil, err
		}
		s.comp = cs
	}
	if cfg.SunwaySim {
		ex, err := cgexec.New(cfg.Dims)
		if err != nil {
			return nil, err
		}
		s.cgx = ex
		s.backend = cgBackend{ex}
	} else {
		s.backend = hostBackend{}
	}
	s.tiles = effectiveTiles(cfg.Tiles, 1, cfg.Dims.Points())
	if cfg.Overlap {
		s.ovInterior, s.ovShells = decomp.InteriorShell(cfg.Dims, fd.Halo)
	}
	return s, nil
}

// rebuildForDt refreshes every dt-dependent precomputation (attenuation
// factors, recorder sampling) after Cfg.Dt is changed externally — the
// parallel runner does this once the global CFL minimum is agreed.
func (s *Simulator) rebuildForDt() {
	if s.Cfg.Attenuation.Enabled {
		s.buildAttenuation()
	}
	s.rec = seismo.NewRecorder(s.Cfg.Stations, s.Cfg.Dt, s.Cfg.SampleEvery)
}

// buildAttenuation constructs the configured attenuation operator (the
// exponential constant-Q damper or the SLS memory-variable formulation).
func (s *Simulator) buildAttenuation() {
	var qm fd.QModel
	if s.Cfg.Attenuation.VsScaled {
		qm = fd.VsScaledQ{Med: s.Med, Factor: s.Cfg.Attenuation.Factor}
	} else {
		qm = fd.ConstantQ{Qp: s.Cfg.Attenuation.Qp, Qs: s.Cfg.Attenuation.Qs}
	}
	if s.Cfg.Attenuation.UseSLS {
		s.sls = fd.NewSLS(s.Cfg.Dims, qm, s.Cfg.Attenuation.F0)
		s.atten = nil
	} else {
		s.atten = fd.NewAttenuation(s.Cfg.Dims, qm, s.Cfg.Attenuation.F0, s.Cfg.Dt)
		s.sls = nil
	}
}

// autoDt derives the CFL time step from the sampled medium.
func (s *Simulator) autoDt() float64 {
	var vpMax float64
	d := s.Cfg.Dims
	for i := 0; i < d.Nx; i++ {
		for j := 0; j < d.Ny; j++ {
			for k := 0; k < d.Nz; k++ {
				lam := float64(s.Med.Lam.At(i, j, k))
				mu := float64(s.Med.Mu.At(i, j, k))
				rho := float64(s.Med.Rho.At(i, j, k))
				vp := math.Sqrt((lam + 2*mu) / rho)
				if vp > vpMax {
					vpMax = vp
				}
			}
		}
	}
	return 0.9 * model.CFLTimeStep(s.Cfg.Dx, vpMax)
}

// Dt returns the time step in use.
func (s *Simulator) Dt() float64 { return s.Cfg.Dt }

// Time returns the current simulation time.
func (s *Simulator) Time() float64 { return s.simTime }

// StepCount returns the number of completed steps.
func (s *Simulator) StepCount() int { return s.step }

// Recorder exposes the station recorder (also available via Run's Result).
func (s *Simulator) Recorder() *seismo.Recorder { return s.rec }

// PGV exposes the peak-ground-velocity accumulator, or nil if disabled.
func (s *Simulator) PGV() *seismo.PGVField { return s.pgv }

// Stages exposes the per-stage timing collector.
func (s *Simulator) Stages() *telemetry.StageClock { return s.stages }

// Step advances one time step through the pipeline with no halo exchange
// (the serial execution of the stage sequence in pipeline.go).
func (s *Simulator) Step() {
	s.stepWith(NoExchange{})
}

// countKernels tallies the per-step kernel work for Perf.
func (s *Simulator) countKernels() {
	pts := s.Cfg.Dims.Points()
	s.perf.VelocityPoints += pts
	s.perf.StressPoints += pts
	if s.Plas != nil {
		s.perf.PlasticityPoints += pts
	}
	if s.sponge != nil {
		s.perf.SpongePoints += s.sponge.DampedPoints()
	}
	s.perf.Steps++
}

// Run advances the simulation until StepCount reaches Cfg.Steps. When
// Cfg.RestartFrom names a checkpoint, it is restored first, so the run
// resumes there and Steps is the TOTAL step count of the whole simulation.
func (s *Simulator) Run() (*Result, error) {
	return s.RunCtx(context.Background())
}

// RunCtx is Run with cancellation: the context is checked at every
// step-pipeline boundary, so a canceled or expired context stops the run
// within one step and returns the context's cause wrapped in the error.
func (s *Simulator) RunCtx(ctx context.Context) (*Result, error) {
	res, err := s.runCtx(ctx)
	// however the run ended, its last dump lands before the caller hears of
	// it: a canceled or failed run restarts from there
	if c := s.Cfg.Checkpoint; c != nil {
		infos, cerr := c.Close()
		switch {
		case err != nil: // the run's own error outranks the drain's
		case cerr != nil:
			res, err = nil, cerr
		default:
			res.setCheckpoints(infos)
		}
	}
	return res, err
}

// setCheckpoints records the dumps a drained controller reported.
func (r *Result) setCheckpoints(infos []checkpoint.Info) {
	r.Checkpoints = infos
	for _, ck := range infos {
		r.CheckpointWriteSeconds += ck.WriteSeconds
	}
}

func (s *Simulator) runCtx(ctx context.Context) (*Result, error) {
	if c := s.Cfg.Checkpoint; c != nil && c.Aux == nil {
		// checkpoints written by this serial run carry the replay state
		// (traces, PGV, perf) so a resumed run is bit-identical
		c.Aux = s.resumeAux
	}
	if s.Cfg.RestartFrom != "" && s.step == 0 {
		if err := s.Restore(s.Cfg.RestartFrom); err != nil {
			return nil, err
		}
	}
	res := &Result{Recorder: s.rec, PGV: s.pgv, Dt: s.Cfg.Dt, Sim: s}
	stopTiling := s.startTiling()
	defer stopTiling()
	runStart := timeNow()
	for s.step < s.Cfg.Steps {
		if ctx.Err() != nil {
			s.perf.Elapsed += timeNow().Sub(runStart)
			return nil, fmt.Errorf("core: run stopped at step %d: %w", s.step, context.Cause(ctx))
		}
		s.Step()
		s.observe(runStart)
		sw := s.stages.Stopwatch()
		if s.Cfg.Checkpoint != nil {
			if _, err := s.Cfg.Checkpoint.MaybeSave(s.step, s.simTime, s.WF); err != nil {
				return nil, err
			}
			sw.Lap(telemetry.StageCheckpoint)
		}
		m := float64(s.WF.MaxAbsVelocity())
		sw.Lap(telemetry.StageDivergence)
		if diverged(m, s.Cfg.DivergenceLimit) {
			return nil, fmt.Errorf("core: solution diverged at step %d (max |v| = %g)", s.step, m)
		}
	}
	res.Steps = s.step
	res.YieldedPointSteps = s.yielded
	res.Stages = s.stages
	s.perf.Elapsed += timeNow().Sub(runStart)
	res.Perf = s.perf
	if s.cgx != nil {
		stats := s.cgx.Stats
		res.Sunway = &stats
	}
	return res, nil
}

// observe reports the just-completed step to Cfg.Observer, if any.
func (s *Simulator) observe(runStart time.Time) {
	if obs := s.Cfg.Observer; obs != nil {
		obs(StepEvent{Step: s.step, Total: s.Cfg.Steps, SimTime: s.simTime,
			Wall: timeNow().Sub(runStart)})
	}
}

// timeNow is a seam for tests.
var timeNow = time.Now

// Restore loads a checkpoint into the simulator (step count, time and
// wavefield), resuming a run after a failure. When the checkpoint carries
// a resume-aux section (written by serial runs), the recorder traces, PGV
// peaks, yield counter and perf accounting are restored too, so the
// resumed run's outputs match an uninterrupted run exactly.
func (s *Simulator) Restore(path string) error {
	step, tm, wf, aux, err := checkpoint.LoadAux(path)
	if err != nil {
		return err
	}
	if wf.D != s.Cfg.Dims {
		return fmt.Errorf("core: checkpoint dims %v do not match config %v", wf.D, s.Cfg.Dims)
	}
	if len(aux) > 0 {
		if err := s.applyResumeAux(aux); err != nil {
			return err
		}
	}
	s.WF = wf
	s.step = step
	s.simTime = tm
	if s.comp != nil {
		s.comp.encodeAll(s.WF)
	}
	return nil
}
