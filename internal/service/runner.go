package service

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"os"
	"runtime"
	"time"

	"swquake/internal/admission"
	"swquake/internal/checkpoint"
	"swquake/internal/core"
	"swquake/internal/faultinject"
	"swquake/internal/manifest"
	"swquake/internal/telemetry"
)

// worker pops admitted items — each arrives with its budget reservation
// already held — until Drain closes the scheduler and it runs dry. Done
// releases the reservation and feeds slow-start.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		it, ok := s.sched.Pop()
		if !ok {
			return
		}
		s.sched.Done(it, s.runJob(it.Payload.(*job)))
	}
}

// runJob is one attempt of one job, in four parts: prepare the run, execute
// the engine, classify how it ended, settle the job's state. It reports
// whether the job completed successfully (the slow-start advance signal).
func (s *Service) runJob(j *job) bool {
	restartFrom, step := s.resumePoint(j)
	if !s.transition(j, change{from: StateQueued, to: StateRunning, resumedStep: step}) {
		return false // canceled while it waited in the queue
	}
	ctx, cfg, release := s.prepare(j, restartFrom)
	res, panicked, err := s.execute(ctx, j, cfg)
	release()
	return s.settle(j, cfg, res, err, classify(err, panicked))
}

// resumePoint finds where a durable job's next attempt starts: the newest
// dump in its checkpoint directory that passes the integrity checks (a
// corrupted latest falls back to the one before it), or nothing. Serial and
// parallel attempts write the same global dumps, so they resume each other's.
func (s *Service) resumePoint(j *job) (path string, step int) {
	if !s.autoCheckpoints(j.req) {
		return "", 0
	}
	path, err := checkpoint.LatestValid(s.ckptDir(j.id))
	if err != nil {
		return "", 0
	}
	step, _ = checkpoint.PathStep(path)
	return path, step
}

// prepare builds what one attempt runs with: the deadline context, the
// progress watchdog, the engine configuration — the daemon's resilience
// defaults, the fault hook, the checkpoint controller and resume point of a
// durable job, the progress observer — and the release of all of it.
func (s *Service) prepare(j *job, restartFrom string) (context.Context, core.Config, func()) {
	attempt, tid := j.attempt, jobSeq(j.id) // j.attempt moves only between this worker's attempts
	jl := s.jobLog(j).With("attempt", attempt)
	ctx, endDeadline := j.ctx, context.CancelFunc(func() {})
	if timeout := cmp.Or(max(j.req.Timeout, 0), s.opts.DefaultTimeout); timeout > 0 {
		ctx, endDeadline = context.WithTimeout(ctx, timeout)
	}
	// the progress watchdog is a timer every completed step pushes back by
	// the progress deadline; left to run out, it cancels the run
	ctx, stall := context.WithCancelCause(ctx)
	unwatch := func() bool { return false }
	progress := func() {
		if pd := s.opts.ProgressDeadline; pd > 0 {
			unwatch()
			unwatch = s.clk.AfterFunc(pd, func() { s.stalled(ctx, j, stall, jl) })
		}
	}
	progress()

	cfg := j.req.Config
	// every job walks on its share of the cores, whatever its request says,
	// so the pool's jobs together never walk more workers than GOMAXPROCS
	ranks := max(1, j.req.MX) * max(1, j.req.MY)
	share := runtime.GOMAXPROCS(0) / s.opts.Workers
	cfg.Tiles = core.DerivedTiles(share/ranks, cfg.Dims.Points()/int64(ranks))
	// requests that configure their own engine resilience win, everything
	// else inherits the daemon's policy
	cfg.StepDeadline = cmp.Or(cfg.StepDeadline, s.opts.StepDeadline)
	cfg.MaxFaultRetries = cmp.Or(cfg.MaxFaultRetries, s.opts.EngineRetries)
	// each step is a span on the job's track, dated by the engine's own
	// stepping clock: base is when the engine attempt began stepping, taken
	// at its first step event; a recovered fault rewinds the engine into a
	// new attempt, whose clock begins again at zero
	var base time.Time
	var lastWall time.Duration
	fresh := true // the next step event is an engine attempt's first
	// engine faults (recovered or not) feed the per-kind counters, the
	// journal, the job log and the job's trace track; a recovery is the
	// engine healing itself without burning a job-level attempt
	cfg.OnFault = func(ev core.FaultEvent) {
		if ev.Recovered {
			fresh = true
		}
		s.tracer.Instant(0, tid, "engine", "engine_fault", s.clk.Now(), map[string]any{
			"kind": string(ev.Kind), "rank": ev.Rank, "step": ev.Step,
			"attempt": ev.Attempt, "recovered": ev.Recovered, "resume_step": ev.ResumeStep,
			"err": fmt.Sprint(ev.Err),
		})
		s.m.engineFaults.Add(string(ev.Kind), 1)
		if ev.Recovered {
			s.m.engineRecoveries.Add(1)
		}
		jl.Warn("engine fault", "kind", string(ev.Kind), "rank", ev.Rank,
			"step", ev.Step, "engine_attempt", ev.Attempt,
			"recovered", ev.Recovered, "resume_step", ev.ResumeStep, "err", ev.Err)
		s.logEvent(j, journalEvent{Event: "engine_fault", Attempt: attempt,
			Step: ev.Step, Error: fmt.Sprintf("%s (recovered=%v): %v", ev.Kind, ev.Recovered, ev.Err)})
	}
	var ctl *checkpoint.Controller
	if dir := s.ckptDir(j.id); s.autoCheckpoints(j.req) && os.MkdirAll(dir, 0o755) == nil {
		ctl = &checkpoint.Controller{Dir: dir, Interval: s.opts.CheckpointEvery, Keep: checkpointKeep}
		cfg.Checkpoint, cfg.RestartFrom = ctl, restartFrom
	}
	cfg.Observer = func(ev core.StepEvent) {
		if s.tracer != nil {
			if fresh {
				base, lastWall, fresh = s.clk.Now().Add(-ev.Wall), 0, false
			}
			s.tracer.Span(0, tid, "engine", "step", base.Add(lastWall), ev.Wall-lastWall,
				map[string]any{"step": ev.Step, "sim_time_s": ev.SimTime})
			lastWall = ev.Wall
		}
		j.stepsDone.Store(int64(ev.Step))
		j.simTime.Store(math.Float64bits(ev.SimTime))
		if v := ev.MaxVelocity; !math.IsInf(v, 0) && !math.IsNaN(v) {
			j.maxVel.Store(math.Float64bits(v))
		}
		j.wall.Store(int64(ev.Wall))
		s.m.steps.Add(1)
		progress()
		if ctl != nil && ctl.Due(ev.Step) {
			s.logEvent(j, journalEvent{Event: "progress", Attempt: attempt, Step: ev.Step})
			s.tracer.Instant(0, tid, "job", "checkpoint", s.clk.Now(), map[string]any{"step": ev.Step})
		}
	}
	return ctx, cfg, func() { unwatch(); stall(nil); endDeadline() }
}

// stalled is the progress watchdog running out: the attempt made no step
// for the progress deadline. It cancels the run with a cause classify can
// tell from a user's cancellation, so the stalled run ends in the
// retry-from-checkpoint machinery.
func (s *Service) stalled(ctx context.Context, j *job, stall context.CancelCauseFunc, jl *slog.Logger) {
	if ctx.Err() != nil {
		return // the run ended first
	}
	s.m.progressStalls.Add(1)
	jl.Warn("progress stalled, canceling for retry",
		"steps_done", j.stepsDone.Load(), "deadline", s.opts.ProgressDeadline.String())
	stall(errProgressStalled)
}

// execute is the engine call. A panicking run must fail its job, not the
// daemon: the stack unwinds here and comes back as an error like any other.
func (s *Service) execute(ctx context.Context, j *job, cfg core.Config) (res *core.Result, panicked bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, panicked, err = nil, true, fmt.Errorf("service: job %s panicked: %v", j.id, r)
			s.m.workerPanics.Add(1)
		}
	}()
	if faultinject.Fire(faultinject.WorkerPanic) {
		panic("injected worker panic")
	}
	if j.req.MX > 1 || j.req.MY > 1 {
		res, err = core.RunParallelCtx(ctx, cfg, j.req.MX, j.req.MY)
	} else if sim, nerr := core.New(cfg); nerr != nil {
		err = nerr
	} else {
		res, err = sim.RunCtx(ctx)
	}
	if res != nil {
		s.m.checkpointsSaved.Add(int64(len(res.Checkpoints)))
		s.m.checkpointWriteNS.Add(int64(res.CheckpointWriteSeconds * 1e9))
		s.m.haloBytes.Add(res.Perf.HaloBytes)
	}
	return res, false, err
}

// verdict is how an attempt ended, read once for both who need it: settle
// takes the job to next, the circuit breaker counts infra.
type verdict struct {
	// next is done, canceled, retrying for a transient failure — worth
	// another attempt, resuming from the newest dump — or failed for a
	// permanent one: deterministic, every retry would end the same way
	next   State
	parked bool // canceled by Drain's deadline, not by a user: stays recoverable
	// infra: the failure is the infrastructure's — a worker panic, a
	// contained engine fault, a progress stall — not the simulation's
	infra bool
}

// classify is the one reading of how an engine run ended. Divergence and
// the job's own deadline are properties of the submission and permanent;
// everything the infrastructure can cause — and an error nobody has named,
// such as a checkpoint write that failed — is transient.
func classify(err error, panicked bool) verdict {
	var ef *core.EngineFault
	switch {
	case err == nil:
		return verdict{next: StateDone}
	case panicked:
		return verdict{next: StateRetrying, infra: true}
	case errors.Is(err, errShutdown):
		return verdict{next: StateCanceled, parked: true}
	case errors.Is(err, context.Canceled):
		return verdict{next: StateCanceled}
	case errors.As(err, &ef), errors.Is(err, errProgressStalled):
		return verdict{next: StateRetrying, infra: true}
	case errors.Is(err, core.ErrDiverged), errors.Is(err, context.DeadlineExceeded):
		return verdict{next: StateFailed}
	}
	return verdict{next: StateRetrying}
}

// settle takes the job out of StateRunning along the edge the verdict picks
// (move turns a retry the attempt budget cannot honour into a failure) and
// reports the same verdict to the circuit breaker: any success closes it,
// an infrastructure failure counts towards tripping it.
func (s *Service) settle(j *job, cfg core.Config, res *core.Result, err error, v verdict) bool {
	c := change{from: StateRunning, to: v.next, parked: v.parked, err: err}
	if v.next == StateDone {
		c.result = buildResult(cfg, res)
		s.brk.Success()
		s.mergeStages(res.Stages)
	} else if v.infra && s.brk.Failure() {
		s.m.breakerTrips.Add(1)
		s.jobLog(j).Error("circuit breaker tripped: shedding new submissions",
			"cooldown", s.opts.BreakerCooldown.String())
	}
	s.transition(j, c)
	return v.next == StateDone
}

// autoCheckpoints reports whether the job will run with auto-checkpoints:
// a journaled job on a durable service with checkpointing left on.
func (s *Service) autoCheckpoints(req Request) bool {
	return s.wal != nil && req.Spec != nil && s.opts.CheckpointEvery > 0
}

// estimateCost prices a request as it will run: an auto-checkpointing job
// also holds the checkpoint lane's wavefield.
func (s *Service) estimateCost(req Request) admission.Cost {
	cfg := req.Config
	if s.autoCheckpoints(req) {
		cfg.Checkpoint = &checkpoint.Controller{Interval: s.opts.CheckpointEvery}
	}
	return admission.EstimateCost(cfg, req.MX, req.MY)
}

// mergeStages folds one run's per-stage clock into the service aggregate.
func (s *Service) mergeStages(c *telemetry.StageClock) {
	if c == nil {
		return
	}
	s.stageMu.Lock()
	s.stageAgg.Merge(c)
	s.stageMu.Unlock()
}

// StageReport snapshots the per-stage engine seconds accumulated over every
// completed job — the service-wide kernel-time breakdown.
func (s *Service) StageReport() telemetry.StageReport {
	s.stageMu.Lock()
	defer s.stageMu.Unlock()
	return s.stageAgg.Report()
}

// buildResult shapes a core result as the API payload.
func buildResult(cfg core.Config, res *core.Result) *Result {
	out := &Result{Manifest: manifest.New(cfg, res)}
	for _, tr := range res.Recorder.Traces {
		out.Traces = append(out.Traces, Trace{
			Name: tr.Station.Name, I: tr.Station.I, J: tr.Station.J,
			Dt: tr.Dt, U: tr.U, V: tr.V, W: tr.W,
		})
	}
	if res.PGV != nil {
		out.PGV = &SurfaceField{
			Nx: res.PGV.Nx, Ny: res.PGV.Ny,
			Values: append([]float64(nil), res.PGV.PGV...),
		}
	}
	return out
}
