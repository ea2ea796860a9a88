package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"swquake/internal/cgexec"
	"swquake/internal/checkpoint"
	"swquake/internal/compress"
	"swquake/internal/decomp"
	"swquake/internal/faultinject"
	"swquake/internal/fd"
	"swquake/internal/grid"
	"swquake/internal/model"
	"swquake/internal/plasticity"
	"swquake/internal/seismo"
	"swquake/internal/source"
	"swquake/internal/telemetry"
)

// Simulator advances one block of the simulation: the whole domain (New —
// the 1x1 process grid, with nobody to talk to) or one rank's share of it
// under RunParallel. Both are built by newBlock and stepped by run.
type Simulator struct {
	// Cfg is the block's configuration: the run's, with Dims, the origin,
	// Sources and Stations cut and re-indexed to the block.
	Cfg Config

	WF   *fd.Wavefield
	Med  *fd.Medium
	Plas *plasticity.Params

	sponge *fd.Sponge
	atten  *fd.Attenuation
	sls    *fd.SLS
	cgx    *cgexec.Executor
	rec    *seismo.Recorder
	pgv    *seismo.PGVField
	srcs   source.Set
	comp   *compressedState

	// pg and id place the block in the run's process grid; stations is the
	// run's station list, of which Cfg.Stations are the ones the block hosts
	// (blockStationIndices is the mapping).
	pg       *decomp.ProcessGrid
	id       int
	stations []seismo.Station
	peers    peers

	// tiles is the resolved intra-rank worker count (effectiveTiles); workers
	// is how many walk the strips, tiles only while Run/RunParallel is
	// stepping (startTiling) and one otherwise; scratch holds each worker's
	// (scratchFor).
	tiles, workers int
	scratch        []*scratch
	// walks are the step's passes before, during and after the velocity-halo
	// exchange, frame the ghost frame's columns (planWalks).
	walks [3]pass
	frame []grid.Region

	step    int
	simTime float64
	yielded int64
	// vmax is the sign-cleared bit pattern of the last step's largest |v|
	// over the block, which the step takes as it goes (stepPipeline).
	vmax uint32
	perf Perf
	// stages is this worker's per-stage timing collector, always on (<2% of
	// a step: BenchmarkStepTimingOverhead): lock-free because each rank owns
	// its own clock, merged across ranks by RunParallel.
	stages *telemetry.StageClock
}

// peers is how a block reaches the other blocks of its run: the three things
// that differ between the serial run and a rank of RunParallel.
type peers struct {
	// ex moves halos to and from the neighbouring blocks.
	ex Exchanger
	// allMax returns the largest v any block of the run passed in. It is a
	// collective: every block calls it at the same points in the same order.
	allMax func(v float64) float64
	// checkpoint hands the block's share of a due dump to the run's
	// checkpoint controller.
	checkpoint func(s *Simulator) error
}

// alone is the whole-domain block's peers: no neighbour, a reduction over
// one value, and a dump that is the block's own wavefield.
var alone = peers{
	ex:     NoExchange{},
	allMax: func(v float64) float64 { return v },
	checkpoint: func(s *Simulator) error {
		_, err := s.Cfg.Checkpoint.MaybeSave(s.step, s.simTime, s.WF, s.resumeAux())
		return err
	},
}

// agree is the collective health check: every block passes what stopped it,
// if anything did, and if any was stopped every block gets an error back —
// its own or errOtherBlock — so that all give up together instead of
// deadlocking the ones that could go on.
func (p *peers) agree(err error) error {
	flag := 0.0
	if err != nil {
		flag = 1
	}
	if p.allMax(flag) > 0 && err == nil {
		err = errOtherBlock
	}
	return err
}

var errOtherBlock = errors.New("aborted: another rank failed")

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

// New builds a simulator of the whole domain: samples the medium, derives
// the time step, prepares plasticity, sponge, recorders, and compressed
// storage — calibrating its codecs first (calibrate).
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	codecs, err := calibrate(cfg)
	if err != nil {
		return nil, err
	}
	d := cfg.Dims
	pg := &decomp.ProcessGrid{GlobalNx: d.Nx, GlobalNy: d.Ny, GlobalNz: d.Nz, Mx: 1, My: 1}
	return newBlock(cfg, pg, 0, cfg.Sources, codecs, alone)
}

// newBlock builds the simulator of block id of the process grid from the
// run's validated configuration, the sources that fall in the block and the
// run's codecs (calibrate; nil for float32 storage). Every block of the run calls it
// at once: a block that cannot be set up fails them all (each learns of it
// before the first collective any of them could be left waiting in), and
// they agree on the time step.
func newBlock(cfg Config, pg *decomp.ProcessGrid, id int, srcs []source.PointSource, codecs []compress.Codec, p peers) (*Simulator, error) {
	s := &Simulator{Cfg: cfg, pg: pg, id: id, stations: cfg.Stations, peers: p,
		stages: telemetry.NewStageClock()}
	i0, j0 := pg.Offset(id)
	s.Cfg.Dims = pg.BlockDims()
	s.Cfg.Sources = srcs
	s.Cfg.Stations = nil
	for _, gi := range blockStationIndices(cfg.Stations, pg, id) {
		st := cfg.Stations[gi]
		s.Cfg.Stations = append(s.Cfg.Stations,
			seismo.Station{Name: st.Name, I: st.I - i0, J: st.J - j0, K: st.K})
	}
	// progress and step spans are reported once, not once per block
	if id != 0 {
		s.Cfg.Observer = nil
		s.Cfg.Tracer = nil
	}

	if err := p.agree(s.setUp(codecs)); err != nil {
		return nil, err
	}
	// the global CFL minimum, then everything derived from the time step;
	// every block holds the same minimum, so all of them fail here or none
	s.Cfg.Dt = -p.allMax(-s.Cfg.Dt)
	if !(s.Cfg.Dt > 0) || math.IsInf(s.Cfg.Dt, 1) {
		return nil, fmt.Errorf("core: CFL time step %g is not finite and positive", s.Cfg.Dt)
	}
	if cfg.Attenuation.Enabled {
		s.buildAttenuation()
	}
	s.rec = seismo.NewRecorder(s.Cfg.Stations, s.Cfg.Dt)
	return s, nil
}

// setUp builds what the block's own configuration decides, its CFL time
// step included, and the compressed storage through the run's codecs, whose
// first round trip stores the initial wavefield — everything that can fail.
func (s *Simulator) setUp(codecs []compress.Codec) error {
	cfg := &s.Cfg
	// the block's offset in the run's domain, in cells and in model metres
	i0, j0 := s.pg.Offset(s.id)
	s.WF = fd.NewWavefield(cfg.Dims)
	s.Med = fd.NewMediumFromModel(cfg.Dims, cfg.Dx, cfg.Model, float64(i0)*cfg.Dx, float64(j0)*cfg.Dx)
	if err := s.Med.Validate(); err != nil {
		return err
	}

	// the sampling pass's maximum of (λ+2μ)/ρ; the root is monotone, so this
	// is the fastest P velocity a root per cell would find, bit for bit
	limit := 0.9 * model.CFLTimeStep(cfg.Dx, math.Sqrt(s.Med.MaxVpSquared()))
	if cfg.Dt <= 0 {
		cfg.Dt = limit
	} else if cfg.Dt > limit {
		return fmt.Errorf("core: dt %g exceeds CFL limit %g", cfg.Dt, limit)
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
		// the profile of the run's domain, so every decomposition damps
		// exactly the same boundary zones (a block gets no damping from faces
		// it does not own); the width may exceed the block
		s.sponge = fd.NewSpongeGlobal(s.pg.GlobalNx, s.pg.GlobalNy, s.pg.GlobalNz,
			cfg.SpongeWidth, SpongeAlpha, i0, j0, cfg.Dims.Nx, cfg.Dims.Ny, cfg.Dims.Nz)
	}
	if cfg.RecordPGV {
		s.pgv = seismo.NewPGVField(cfg.Dims.Nx, cfg.Dims.Ny, 0)
	}
	s.srcs = source.Set{Sources: cfg.Sources}

	if codecs != nil {
		s.comp = &compressedState{codecs: codecs}
		s.comp.roundTrip(s.WF, allFields, padded(cfg.Dims), s.scratchFor(1)[0].codes)
	}
	if cfg.SunwaySim {
		ex, err := cgexec.New(cfg.Dims)
		if err != nil {
			return err
		}
		s.cgx = ex
	}
	// AutoTiles resolves against the rank count, so the tiles of all ranks
	// together match GOMAXPROCS
	s.tiles = effectiveTiles(cfg.Tiles, s.pg.Size(), cfg.Dims.Points())
	s.planWalks()
	return nil
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
	} else {
		s.atten = fd.NewAttenuation(s.Cfg.Dims, qm, s.Cfg.Attenuation.F0, s.Cfg.Dt)
	}
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

// countKernels tallies the per-step kernel work for Perf and, under
// SunwaySim, charges the simulated core group the step.
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
	if s.cgx != nil {
		s.cgx.Step()
	}
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
	c := s.Cfg.Checkpoint
	var err error
	if s.Cfg.RestartFrom != "" && s.step == 0 {
		err = s.Restore(s.Cfg.RestartFrom)
	}
	if err == nil {
		if err = s.run(ctx); err != nil {
			err = fmt.Errorf("core: %w", err)
		}
	}
	var res *Result
	if err == nil {
		res = &Result{Recorder: s.rec, PGV: s.pgv, Dt: s.Cfg.Dt, Sim: s, Steps: s.step,
			YieldedPointSteps: s.yielded, Stages: s.stages, Perf: s.perf, Sunway: s.sunwayStats()}
	}
	// however the run ended, its last dump lands before the caller hears of
	// it: a canceled or failed run restarts from there
	if c != nil {
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

// sunwayStats copies the simulated core group's accounting, nil without
// Config.SunwaySim.
func (s *Simulator) sunwayStats() *cgexec.Stats {
	if s.cgx == nil {
		return nil
	}
	stats := s.cgx.Stats
	return &stats
}

// run is the one step loop: the serial run and every rank of RunParallel
// step their block through it until StepCount reaches Cfg.Steps, talking to
// the other blocks through s.peers alone. What stops a run stops every block
// at the same step boundary. A step is observed with the run's max |v| and
// judged before it is dumped, so no checkpoint holds a diverged state.
func (s *Simulator) run(ctx context.Context) error {
	stopTiling := s.startTiling()
	defer stopTiling()
	start := timeNow()
	defer func() { s.perf.Elapsed += timeNow().Sub(start) }()
	for s.step < s.Cfg.Steps {
		if s.peers.agree(ctx.Err()) != nil {
			return fmt.Errorf("run stopped at step %d: %w", s.step, context.Cause(ctx))
		}
		// the rank failpoints fire between the boundary collective and the
		// step body: a stalled rank is detected by its neighbours' halo
		// deadlines, not parked inside a reduction
		faultinject.Fire(faultinject.RankStall) // sleeps the configured Delay
		if faultinject.Fire(faultinject.RankPanic) {
			panic(fmt.Sprintf("%s: injected rank failure", faultinject.RankPanic))
		}
		s.Step()
		sw := s.stages.Stopwatch()
		// NaN maps to +Inf so it survives the max reduction
		m := float64(math.Float32frombits(s.vmax))
		if math.IsNaN(m) {
			m = math.Inf(1)
		}
		m = s.peers.allMax(m)
		sw.Lap(telemetry.StageDivergence)
		s.observe(start, m)
		if diverged(m, s.Cfg.DivergenceLimit) {
			return fmt.Errorf("solution %w at step %d (max |v| = %g)", ErrDiverged, s.step, m)
		}
		sw = s.stages.Stopwatch()
		if c := s.Cfg.Checkpoint; c != nil && c.Due(s.step) {
			if err := s.peers.checkpoint(s); err != nil {
				return err
			}
			sw.Lap(telemetry.StageCheckpoint)
		}
	}
	return nil
}

// observe reports the just-completed step, whose max |v| over the run was
// vmax, to Cfg.Observer, if any.
func (s *Simulator) observe(runStart time.Time, vmax float64) {
	if obs := s.Cfg.Observer; obs != nil {
		obs(StepEvent{Step: s.step, Total: s.Cfg.Steps, SimTime: s.simTime,
			Wall: timeNow().Sub(runStart), MaxVelocity: vmax})
	}
}

// timeNow is a seam for tests.
var timeNow = time.Now

// Restore loads a checkpoint — always a dump of the run's whole domain,
// whoever wrote it — into the simulator, resuming a run after a failure: the
// step count, the time and the block's share of the wavefield, interior plus
// ghost layers (see checkpoint.ExtractBlock for why that is bit-exact). When
// the dump carries a resume-aux section (every dump a run writes does), the
// block's share of the replay state is restored too, so the resumed run's
// outputs match an uninterrupted run exactly. A dump does not carry the SLS
// memory variables, so a simulator that keeps them refuses to resume rather
// than continue from zeroed ones.
func (s *Simulator) Restore(path string) error {
	if s.sls != nil {
		return fmt.Errorf("core: cannot resume from %s: SLS attenuation keeps memory variables a checkpoint does not carry", path)
	}
	step, tm, gwf, aux, err := checkpoint.LoadAux(path)
	if err != nil {
		return err
	}
	if gwf.D != s.pg.GlobalDims() {
		return fmt.Errorf("core: checkpoint dims %v do not match run %v", gwf.D, s.pg.GlobalDims())
	}
	i0, j0 := s.pg.Offset(s.id)
	wf, err := checkpoint.ExtractBlock(gwf, s.Cfg.Dims, i0, j0)
	if err != nil {
		return err
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
		// a dump written by a plain run or through other codecs holds values
		// these codecs do not store
		s.comp.roundTrip(s.WF, allFields, padded(s.Cfg.Dims), s.scratchFor(1)[0].codes)
	}
	return nil
}
