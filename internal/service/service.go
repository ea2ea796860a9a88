// Package service is the simulation job service: a bounded submission
// queue with backpressure, a worker pool that drives the core engine
// (serial RunCtx or the simulated-MPI RunParallelCtx), per-job deadlines
// and cancellation plumbed down to the pipeline's per-step boundary, a
// scenario-keyed LRU result cache over canonical config hashes, live
// progress tracking through the engine's step-observer hook, metrics
// declared once on a telemetry.Registry, and graceful drain on shutdown.
//
// Overload protection (DESIGN.md §3.8) is layered on through
// internal/admission: every submission is priced by the cost model and
// admitted against a global memory budget at dispatch time (never-fitting
// jobs are rejected at submit with admission.ErrNeverFits), priority
// classes keep batch sweeps from starving interactive work, a token
// bucket bounds the submission rate, a circuit breaker sheds load after
// repeated worker panics/engine faults until a probe succeeds, jobs
// recovered on boot trickle in under TCP-style slow-start, and a progress
// watchdog cancels-for-retry any run that stops advancing. Health exposes
// the resulting healthy/degraded/draining state machine.
//
// This is the layer the ROADMAP's north star asks for: the paper's batch
// pipeline turned into a subsystem that serves many concurrent scenario
// requests. cmd/quaked exposes it over HTTP; the public swquake package
// re-exports the submission types.
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"swquake/internal/admission"
	"swquake/internal/clock"
	"swquake/internal/core"
	"swquake/internal/decomp"
	"swquake/internal/manifest"
	"swquake/internal/telemetry"
	"swquake/internal/wal"
)

// Sentinel errors of the submission and result API.
var (
	// ErrQueueFull is returned by Submit, wrapped in an
	// admission.RetryAfterError, when the bounded queue is at capacity —
	// the backpressure signal (HTTP 429 in quaked).
	ErrQueueFull = errors.New("service: submission queue full")
	// ErrClosed is returned by Submit after Drain has begun.
	ErrClosed = errors.New("service: draining, not accepting jobs")
	// ErrUnknownJob is returned for IDs the service has never issued.
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrNotFinished is returned by Result while the job is queued/running.
	ErrNotFinished = errors.New("service: job not finished")
)

// State is a job's lifecycle state.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateRetrying State = "retrying"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether a job in this state will never change again.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Request describes one simulation job.
type Request struct {
	// Config is the full solver configuration (validated on Submit). How it
	// runs is not the request's to choose: the daemon sets its Tiles from
	// the job's share of the cores, its Overlap from the layout, and its
	// StepDeadline and MaxFaultRetries from Options.
	Config core.Config
	// MX, MY select the simulated-MPI process grid; both <= 1 runs the
	// serial engine. Results are numerically identical either way, but
	// trace order follows rank order, so the cache key includes the layout.
	MX, MY int
	// Timeout is the per-job deadline measured from the moment a worker
	// starts the run (0 = no deadline).
	Timeout time.Duration
	// Class is the admission priority class: interactive (the default) or
	// batch. The scheduler's weighted dispatch keeps batch work — ensemble
	// campaign members — from starving interactive submissions.
	Class admission.Class
	// Spec, when set, is the replayable form of this request. Spec'd jobs
	// are journaled (and so survive a daemon crash); jobs submitted with a
	// raw Config only are not. The Config must be the one Spec builds.
	Spec *JobSpec
}

// Options configures a Service.
type Options struct {
	// Workers is the worker-pool size; <= 0 uses runtime.GOMAXPROCS(0).
	// Every job derives its walk workers on its share of the cores,
	// GOMAXPROCS/Workers: one with the default pool, every core with a pool
	// of one. The submission queue holds 4*Workers jobs.
	Workers int

	// DataDir, when non-empty, makes the service durable: spec'd jobs are
	// journaled to DataDir/journal.jsonl, running jobs (serial and
	// parallel alike) are auto-checkpointed under
	// DataDir/checkpoints/<job>/, Open replays the journal on boot,
	// requeueing unfinished jobs so they resume from their latest valid
	// checkpoint, and a transiently failing job is run up to 3 times,
	// backing off exponentially from 100ms (without DataDir, once).
	DataDir string
	// CheckpointEvery is the auto-checkpoint interval in solver steps for
	// durable jobs (0 = 25; negative disables auto-checkpointing).
	CheckpointEvery int

	// StepDeadline arms the parallel engine's stalled-rank watchdog for
	// every job, whatever its Config says: a halo exchange waiting longer
	// than this fails the step as a diagnosed stall instead of hanging the
	// worker (0 = no watchdog).
	StepDeadline time.Duration
	// EngineRetries is every parallel job's in-run fault-recovery budget,
	// whatever its Config says: how many times the engine may rewind to its
	// newest valid checkpoint and resume in-process after a
	// halo-corruption, stall or rank-panic fault before the fault surfaces
	// as a job failure (0 = no in-run recovery; the job-level retry policy
	// still applies).
	EngineRetries int

	// MemBudget bounds the summed estimated working set
	// (admission.EstimateCost) of concurrently dispatched jobs, in bytes.
	// Jobs that would exceed it wait in the queue; jobs that could never
	// fit are rejected at submit with admission.ErrNeverFits. 0 = unlimited.
	MemBudget int64
	// SubmitRate bounds accepted submissions per second through a token
	// bucket holding two seconds' worth (at least one). Cache hits are
	// exempt — serving a cached result allocates nothing. 0 = unlimited.
	SubmitRate float64
	// BreakerThreshold trips the circuit breaker after this many
	// consecutive infrastructure failures — worker panics, engine faults,
	// progress stalls; simulation-level failures (divergence, deadlines)
	// don't count. While open, Submit sheds with admission.ErrShedding for
	// BreakerCooldown (0 = 15s), then admits one probe submission; any job
	// success closes the breaker. 0 disables the breaker.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// ProgressDeadline arms the per-job progress watchdog: a running job
	// whose step counter does not advance for this long is canceled with
	// cause errProgressStalled and retried through the normal retry policy
	// (0 = no watchdog). This catches livelocks the engine-level
	// StepDeadline cannot see — e.g. a worker wedged outside a halo wait.
	ProgressDeadline time.Duration

	// Logger receives structured job-lifecycle events (submitted, started,
	// done, failed, retrying, canceled, recovered), each carrying job_id
	// and, where known, scenario and attempt. Nil discards them.
	Logger *slog.Logger
	// Tracer, when set, records the job lifecycle as Chrome trace events:
	// a "queued" span from submission to worker pickup, a "running" span
	// per attempt, and instants for checkpoints and retries. Each job gets
	// its own track (tid = job sequence number), and each engine step
	// (drawn from the step observer) and engine fault lands on the same
	// track.
	Tracer *telemetry.Tracer
}

// Status is a point-in-time snapshot of a job.
type Status struct {
	ID    string `json:"id"`
	State State  `json:"state"`

	StepsDone  int     `json:"steps_done"`
	StepsTotal int     `json:"steps_total"`
	SimTime    float64 `json:"sim_time_s"`
	// MaxVelocity is the largest |velocity component| in the domain after
	// the last step observed with a finite one, in m/s (0 before then).
	// JSON holds no ±Inf or NaN; a run whose max is not finite has
	// diverged, and its error names the value.
	MaxVelocity float64 `json:"max_velocity_m_s,omitempty"`
	// ElapsedS is wall time spent running (0 while queued).
	ElapsedS float64 `json:"elapsed_s"`
	// EtaS estimates the remaining run time from the observed step rate
	// (0 unless running with at least one step done).
	EtaS float64 `json:"eta_s,omitempty"`

	CacheHit bool   `json:"cache_hit,omitempty"`
	Error    string `json:"error,omitempty"`

	// Attempt counts how many times a worker has started this job (retries
	// and crash recovery increment it).
	Attempt int `json:"attempt,omitempty"`
	// ResumedStep is the checkpoint step the latest attempt resumed from
	// (0 when the job started from scratch).
	ResumedStep int `json:"resumed_step,omitempty"`
	// Recovered marks a job requeued from the journal after a daemon
	// restart.
	Recovered bool `json:"recovered,omitempty"`

	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`
}

// Trace is one station's recorded seismogram in the result payload.
type Trace struct {
	Name string    `json:"name"`
	I    int       `json:"i"`
	J    int       `json:"j"`
	Dt   float64   `json:"dt_s"`
	U    []float32 `json:"u"`
	V    []float32 `json:"v"`
	W    []float32 `json:"w"`
}

// SurfaceField is a row-major scalar field over the free surface — the
// job's peak-ground-velocity map, the per-member input hazard aggregation
// consumes.
type SurfaceField struct {
	Nx     int       `json:"nx"`
	Ny     int       `json:"ny"`
	Values []float64 `json:"values"`
}

// Result is a completed job's payload: the same RunManifest shape a batch
// run archives on disk, the station traces, and (when the config records
// PGV) the surface peak-ground-velocity field. Results may be served from
// the cache and shared between jobs — treat them as immutable.
type Result struct {
	Manifest manifest.RunManifest `json:"manifest"`
	Traces   []Trace              `json:"traces"`
	PGV      *SurfaceField        `json:"pgv,omitempty"`
}

// job is the service-internal record of one submission.
type job struct {
	id  string
	req Request
	key string
	// item is the admission-queue entry carrying the job's priority class
	// and budget reservation size; reused verbatim on retry requeues (the
	// ledger's idempotent TryReserve makes that safe).
	item *admission.Item

	// guarded by Service.mu; state changes in lifecycle.go's move alone
	state       State
	err         error
	result      *Result
	cacheHit    bool
	attempt     int
	resumedStep int
	recovered   bool

	submitted time.Time
	started   time.Time
	finished  time.Time
	entered   time.Time // when the job entered its current state

	// written by the worker's observer, read by Status
	stepsTotal int
	stepsDone  atomic.Int64
	simTime    atomic.Uint64 // float64 bits
	maxVel     atomic.Uint64 // float64 bits, the last finite max |v|
	wall       atomic.Int64  // time.Duration

	cancel context.CancelCauseFunc // nil: the user's cancel; errShutdown: Drain's deadline
	ctx    context.Context
	done   chan struct{} // closed when the job is terminal
}

// Service runs simulation jobs on a bounded queue and worker pool.
type Service struct {
	opts   Options
	sched  *admission.Queue
	ledger *admission.Ledger
	limit  *admission.TokenBucket
	brk    *admission.Breaker
	cache  *resultCache
	wg     sync.WaitGroup
	wal    *wal.Log[journalEvent] // nil without DataDir
	clk    clock.Clock
	log    *slog.Logger
	tracer *telemetry.Tracer

	reg *telemetry.Registry
	m   metrics

	// stageAgg accumulates per-stage engine seconds over every completed
	// job — the service-wide Fig. 7 breakdown. Each run times into its own
	// lock-free clock; only the merge here takes the mutex.
	stageMu  sync.Mutex
	stageAgg *telemetry.StageClock

	mu     sync.Mutex
	jobs   map[string]*job
	nextID int
	closed bool
}

// metrics are the service's typed metrics. Each is declared exactly once, in
// declareMetrics — JSON key, Prometheus family, kind and help on one line —
// and updated through its field with one atomic operation; adding a metric
// is a field here and a line there.
type metrics struct {
	submitted, done, failed, canceled, retried, recovered *telemetry.Counter
	workerPanics, engineRecoveries                        *telemetry.Counter
	journalEvents, journalErrors                          *telemetry.Counter
	checkpointsSaved, checkpointWriteNS                   *telemetry.Counter
	cacheHits, cacheMisses, steps, haloBytes              *telemetry.Counter
	progressStalls, breakerTrips                          *telemetry.Counter
	// queued and running count the jobs in StateQueued and StateRunning,
	// queueHW the most ever queued at once since boot; all three change in
	// move, under s.mu, with the states they count.
	running, queued, queueHW *telemetry.Gauge
	// engineFaults is keyed by core.FaultKind, rejected by admission reason;
	// every series shows from boot, at zero.
	engineFaults, rejected *telemetry.CounterVec
	// jobLatency observes submit-to-terminal seconds of every job that
	// reached a worker and ended there; cache hits, jobs canceled while
	// queued or in retry backoff and jobs failed at boot are not in it.
	jobLatency *telemetry.Histogram
	// stateSeconds observes, per non-terminal state, how long a job stayed
	// in it each time it left.
	stateSeconds map[string]*telemetry.Histogram
}

// declareMetrics declares every metric of the service on s.reg: the typed
// ones land in s.m, the rest are sampled from the state that owns them when
// a view is rendered. Families appear in the exposition in this order.
func (s *Service) declareMetrics() {
	r, m := s.reg, &s.m
	m.submitted = r.Counter("jobs_submitted", "swquake_jobs_submitted_total", "Jobs accepted by Submit.")
	m.done = r.Counter("jobs_done", "swquake_jobs_done_total", "Jobs finished successfully.")
	m.failed = r.Counter("jobs_failed", "swquake_jobs_failed_total", "Jobs failed permanently.")
	m.canceled = r.Counter("jobs_canceled", "swquake_jobs_canceled_total", "Jobs canceled by users or shutdown.")
	m.retried = r.Counter("jobs_retried", "swquake_jobs_retried_total", "Transient failures sent to retry backoff.")
	m.recovered = r.Counter("jobs_recovered", "swquake_jobs_recovered_total", "Jobs requeued from the journal on boot.")
	m.workerPanics = r.Counter("worker_panics", "swquake_worker_panics_total", "Engine panics isolated by the worker pool.")
	m.engineRecoveries = r.Counter("engine_recoveries", "swquake_engine_recoveries_total",
		"Engine faults healed in-run by rewinding to the newest valid checkpoint.")
	m.engineFaults = r.CounterVec("engine_faults", "swquake_engine_faults_total",
		"Faults detected inside the parallel engine, by kind (halo-corrupt, stall, panic).", "kind",
		string(core.FaultHaloCorrupt), string(core.FaultStall), string(core.FaultPanic))
	m.journalEvents = r.Counter("journal_events", "swquake_journal_events_total", "Events appended to the durability journal.")
	m.journalErrors = r.Counter("journal_errors", "swquake_journal_errors_total",
		"Journal appends that failed: events the daemon acted on without a durable record.")
	m.checkpointsSaved = r.Counter("checkpoints_saved", "swquake_checkpoints_saved_total", "Auto-checkpoints written by running jobs.")
	// a duration: summed in nanoseconds, exposed in seconds, and kept out of
	// the JSON view, whose consumers decode integers
	m.checkpointWriteNS = new(telemetry.Counter)
	r.CounterFunc("swquake_checkpoint_write_seconds_total",
		"Seconds the checkpoint lane spent writing those dumps beside the solver (the checkpoint stage holds only snapshots and waits).",
		func() float64 { return float64(m.checkpointWriteNS.Value()) / 1e9 })
	m.cacheHits = r.Counter("cache_hits", "swquake_cache_hits_total", "Submissions served from the result cache.")
	m.cacheMisses = r.Counter("cache_misses", "swquake_cache_misses_total", "Submissions that had to be solved.")
	m.steps = r.Counter("steps_done", "swquake_steps_total", "Solver steps completed across all jobs (rate() gives steps/sec).")
	m.haloBytes = r.Counter("halo_bytes", "swquake_halo_bytes_total",
		"Halo bytes exchanged by parallel jobs (sent+received, all ranks; decomp.HaloBytesPerStep accounting).")
	r.CounterFunc("swquake_exchange_wait_seconds_total",
		"Engine wall seconds spent in halo exchange (halo_velocity + halo_stress + halo_wait stages).",
		func() float64 {
			secs := s.stageSamples(func(st telemetry.StageStats) float64 { return st.Seconds })()
			return secs[telemetry.StageHaloVelocity.String()] +
				secs[telemetry.StageHaloStress.String()] + secs[telemetry.StageHaloWait.String()]
		})

	m.running = r.Gauge("jobs_running", "swquake_jobs_running", "Jobs currently executing on a worker.")
	m.queued = r.Gauge("jobs_queued", "swquake_queue_depth", "Jobs currently waiting in the submission queue.")
	m.queueHW = r.Gauge("", "swquake_queue_high_water", "Deepest the submission queue has been since boot.")
	r.GaugeFunc("swquake_queue_capacity", "Submission queue capacity (backpressure threshold).",
		func() float64 { return float64(s.QueueSize()) })
	r.GaugeFunc("swquake_workers", "Worker-pool size.",
		func() float64 { return float64(s.opts.Workers) })
	r.GaugeFunc("swquake_cache_entries", "Entries in the LRU result cache.",
		func() float64 { return float64(s.cache.len()) })

	m.jobLatency = r.Histogram("swquake_job_duration_seconds",
		"Submit-to-terminal latency of finished jobs.", telemetry.DefLatencyBuckets)
	m.stateSeconds = r.HistogramVec("swquake_job_state_seconds", "Time jobs spent in a state, observed as they left it.",
		"state", telemetry.DefLatencyBuckets, string(StateQueued), string(StateRunning), string(StateRetrying))

	r.LabeledCounterFunc("swquake_stage_seconds_total",
		"Engine wall seconds per pipeline stage, summed over completed jobs.", "stage",
		s.stageSamples(func(st telemetry.StageStats) float64 { return st.Seconds }))
	r.LabeledCounterFunc("swquake_stage_observations_total",
		"Stage timing observations per pipeline stage.", "stage",
		s.stageSamples(func(st telemetry.StageStats) float64 { return float64(st.Count) }))

	s.declareAdmissionMetrics()
}

// declareAdmissionMetrics declares the admission and overload-protection
// families (DESIGN.md §3.8), which come last in the exposition.
func (s *Service) declareAdmissionMetrics() {
	r, m := s.reg, &s.m
	m.rejected = r.CounterVec("jobs_rejected", "swquake_jobs_rejected_total",
		"Submissions refused by the admission layer, by reason (queue-full, budget, rate-limit, breaker, draining).",
		"reason", "queue-full", "budget", "rate-limit", "breaker", "draining")
	m.progressStalls = r.Counter("progress_stalls", "swquake_progress_stalls_total",
		"Running jobs canceled by the progress watchdog for making no step progress.")
	m.breakerTrips = r.Counter("breaker_trips", "swquake_breaker_trips_total",
		"Times repeated infrastructure failures opened the circuit breaker.")
	r.GaugeFunc("swquake_breaker_open",
		"1 while the circuit breaker is open or half-open (daemon degraded), else 0.",
		func() float64 {
			if s.brk.State() != admission.BreakerClosed {
				return 1
			}
			return 0
		})
	r.GaugeFunc("swquake_mem_budget_bytes",
		"Configured admission memory budget in bytes (0 = unlimited).",
		func() float64 { return float64(s.ledger.Snapshot().TotalBytes) })
	r.GaugeFunc("swquake_mem_reserved_bytes",
		"Estimated working set of currently dispatched jobs (ledger reservations).",
		func() float64 { return float64(s.ledger.Snapshot().ReservedBytes) })
	r.GaugeFunc("swquake_mem_high_water_bytes",
		"Largest the reservation sum has ever been — never above the budget by construction.",
		func() float64 { return float64(s.ledger.Snapshot().HighWaterBytes) })
}

// stageSamples returns a sampler of one number per pipeline stage from the
// service-wide stage report.
func (s *Service) stageSamples(of func(telemetry.StageStats) float64) func() map[string]float64 {
	return func() map[string]float64 {
		rep := s.StageReport()
		out := make(map[string]float64, len(rep.Stages))
		for _, st := range rep.Stages {
			out[st.Name] = of(st)
		}
		return out
	}
}

// Registry exposes the service's metrics: Ints is the integer JSON object
// quaked serves at /metrics, WriteProm the swquake_* exposition.
func (s *Service) Registry() *telemetry.Registry { return s.reg }

// New builds a Service and starts its worker pool. It panics when Open
// fails, which cannot happen without Options.DataDir — durable callers
// should use Open directly and handle the error.
func New(opts Options) *Service {
	s, err := Open(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Open builds a Service and starts its worker pool. With Options.DataDir
// set it first recovers (recover.go): the journal is replayed, jobs that
// never reached a terminal state are requeued (resuming from their latest
// valid checkpoint once a worker picks them up), and the journal is
// compacted so it stays bounded across restarts.
func Open(opts Options) (*Service, error) { return open(opts, clock.Wall{}) }

// open is Open on a given clock.
func open(opts Options, clk clock.Clock) (*Service, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = 25
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = 15 * time.Second
	}
	if opts.Logger == nil {
		opts.Logger = telemetry.Discard()
	}
	ledger := admission.NewLedger(opts.MemBudget)
	s := &Service{
		opts:     opts,
		ledger:   ledger,
		limit:    admission.NewTokenBucket(opts.SubmitRate, clk.Now),
		brk:      admission.NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown, clk.Now),
		cache:    newResultCache(),
		clk:      clk,
		log:      opts.Logger,
		tracer:   opts.Tracer,
		reg:      telemetry.NewRegistry(),
		stageAgg: telemetry.NewStageClock(),
		jobs:     make(map[string]*job),
	}
	s.declareMetrics()

	var live []*jobRecord
	if opts.DataDir != "" {
		var err error
		if s.wal, live, s.nextID, err = recoverJournal(opts.DataDir, clk); err != nil {
			return nil, err
		}
	}
	// every recovered job must fit even when there are more than QueueSize
	s.sched = admission.NewQueue(max(s.QueueSize(), len(live)), ledger)
	for _, rec := range live {
		if err := s.requeueRecovered(rec); err != nil {
			return nil, err
		}
	}
	if s.m.recovered.Value() > 0 {
		// slow-start: a rebooted daemon trickles its recovered backlog in
		// (in-flight window 1, doubling on success) instead of slamming
		// the pool the moment the workers spin up
		s.sched.SetSlowStart(1)
	}

	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// jobLog returns a job-scoped logger carrying the identifying fields every
// lifecycle line should have.
func (s *Service) jobLog(j *job) *slog.Logger {
	l := s.log.With("job_id", j.id)
	if j.req.Spec != nil {
		l = l.With("scenario", j.req.Spec.Scenario)
	}
	return l
}

// logEvent appends one event of a job to the journal. Only durable jobs have
// one — the service has a data directory and the job was submitted with a
// replayable Spec — so for every other job this is a no-op.
func (s *Service) logEvent(j *job, ev journalEvent) {
	if s.wal == nil || j.req.Spec == nil {
		return
	}
	ev.JobID, ev.Time = j.id, s.clk.Now()
	if err := s.wal.Append(ev); err != nil {
		// the caller has already acted on the event; what is lost is its
		// durable record, so a crash from here on may not recover this job
		s.m.journalErrors.Add(1)
		s.jobLog(j).Error("journal append failed", "event", ev.Event, "error", err.Error())
		return
	}
	s.m.journalEvents.Add(1)
}

// Workers reports the worker-pool size.
func (s *Service) Workers() int { return s.opts.Workers }

// DataDir reports the data directory of a durable service ("" when volatile).
func (s *Service) DataDir() string { return s.opts.DataDir }

// QueueSize reports the submission-queue capacity: four jobs per worker.
func (s *Service) QueueSize() int { return 4 * s.opts.Workers }

// Submit validates and enqueues a job, returning its ID. An identical
// prior submission (same canonical config hash and process-grid layout)
// is served from the result cache without re-solving: the job is born
// done with Status.CacheHit set, and — because serving a cached result
// allocates nothing — bypasses every admission gate, so cached answers
// keep flowing even while the daemon sheds load.
//
// Uncached submissions pass the admission gates in order: the token-bucket
// rate limiter (admission.ErrRateLimited), the never-fits budget check
// (admission.ErrNeverFits, permanent), the bounded queue's room
// (ErrQueueFull — backpressure) and the circuit breaker
// (admission.ErrShedding). Every refusal worth retrying is an
// *admission.RetryAfterError carrying when to retry — the next token, the
// queue's estimated drain (retryHint), the breaker's cooldown — so a
// caller reads admission.RetryAfter and decides nothing else. Jobs that fit
// the budget but can't reserve it yet are accepted and wait in the queue.
func (s *Service) Submit(req Request) (string, error) {
	req, key, err := normalize(req)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.m.rejected.Add("draining", 1)
		return "", ErrClosed
	}
	s.nextID++
	j := newJob(fmt.Sprintf("job-%06d", s.nextID), req, key)
	if j.result, j.cacheHit = s.cache.get(key); j.cacheHit {
		s.transitionLocked(j, change{from: stateNew, to: StateDone})
		return j.id, nil
	}
	cost := s.estimateCost(req)
	j.item = &admission.Item{ID: j.id, Class: req.Class, Bytes: cost, Payload: j}
	if reason, err := s.admit(cost); err != nil {
		j.cancel(nil)
		s.m.rejected.Add(reason, 1)
		return "", err
	}
	// admit saw room, and every push holds s.mu, as Submit does: this one
	// lands. Write-ahead: the transition journals the submission before
	// Submit returns, so a crash between accept and completion cannot lose it
	_ = s.enqueue(j, stateNew)
	return j.id, nil
}

// normalize validates a request and fills it in — the default-filled
// config, the class, the layout, which must divide the mesh — and derives
// its cache key: the canonical config hash plus the process-grid layout.
func normalize(req Request) (Request, string, error) {
	if err := req.Config.Validate(); err != nil {
		return req, "", err
	}
	class, err := req.Class.Normalize()
	if err != nil {
		return req, "", err
	}
	req.Class = class
	if req.Spec != nil && req.Spec.Class != class {
		// journal the class the scheduler actually used, so recovery
		// re-enters the same lane (copy: the caller's spec stays untouched)
		sp := *req.Spec
		sp.Class = class
		req.Spec = &sp
	}
	ckey, err := ConfigKey(req.Config)
	if err != nil {
		return req, "", err
	}
	req.MX, req.MY = max(req.MX, 1), max(req.MY, 1)
	d := req.Config.Dims
	if _, err := decomp.NewProcessGrid(d.Nx, d.Ny, d.Nz, req.MX, req.MY); err != nil {
		return req, "", err
	}
	return req, fmt.Sprintf("%s/%dx%d", ckey, req.MX, req.MY), nil
}

// newJob is a job before its first transition.
func newJob(id string, req Request, key string) *job {
	j := &job{id: id, req: req, key: key, stepsTotal: req.Config.Steps, done: make(chan struct{})}
	j.ctx, j.cancel = context.WithCancelCause(context.Background())
	return j
}

// admit runs the gates in front of the queue, in order — the token-bucket
// rate limiter, the never-fits budget check, the queue's room, the circuit
// breaker — and names the one that refused. The breaker goes last, so the
// one probe a half-open breaker admits always becomes a job. The caller
// holds s.mu.
func (s *Service) admit(bytes int64) (reason string, err error) {
	if err := s.limit.Allow(); err != nil {
		return "rate-limit", err
	}
	if !s.ledger.Fits(bytes) {
		return "budget", fmt.Errorf("service: %w (job needs %s of a %s budget)", admission.ErrNeverFits,
			admission.FormatBytes(bytes), admission.FormatBytes(s.ledger.Total()))
	}
	if s.sched.Full() {
		return "queue-full", &admission.RetryAfterError{Err: ErrQueueFull, RetryAfter: s.retryHint()}
	}
	if err := s.brk.Allow(); err != nil {
		return "breaker", err
	}
	return "", nil
}

// Status reports a job's current state and progress.
func (s *Service) Status(id string) (Status, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Status{}, ErrUnknownJob
	}
	st := Status{
		ID:          j.id,
		State:       j.state,
		StepsTotal:  j.stepsTotal,
		CacheHit:    j.cacheHit,
		Attempt:     j.attempt,
		ResumedStep: j.resumedStep,
		Recovered:   j.recovered,
		Submitted:   j.submitted,
		Started:     j.started,
		Finished:    j.finished,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	s.mu.Unlock()

	st.StepsDone = int(j.stepsDone.Load())
	st.SimTime = math.Float64frombits(j.simTime.Load())
	st.MaxVelocity = math.Float64frombits(j.maxVel.Load())
	switch st.State {
	case StateRunning:
		st.ElapsedS = s.clk.Now().Sub(st.Started).Seconds()
		if wall, done := time.Duration(j.wall.Load()), st.StepsDone; done > 0 {
			st.EtaS = (wall.Seconds() / float64(done)) * float64(st.StepsTotal-done)
		}
	case StateDone, StateFailed, StateCanceled:
		if !st.Started.IsZero() { // never started: canceled while queued, failed at boot
			st.ElapsedS = st.Finished.Sub(st.Started).Seconds()
		}
	}
	return st, nil
}

// Result returns a finished job's payload. It fails with ErrNotFinished
// while the job is queued or running, and with the job's own error for
// failed or canceled jobs.
func (s *Service) Result(id string) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	switch j.state {
	case StateDone:
		return j.result, nil
	case StateFailed, StateCanceled:
		return nil, j.err
	default:
		return nil, ErrNotFinished
	}
}

// Cancel requests cancellation of a job. A queued job — or one waiting out
// a retry backoff — is canceled immediately and gives its queue slot back;
// a running job's context is canceled and the engine stops at the next step
// boundary, freeing its worker. Canceling a finished job is a no-op. Cancel
// reports whether the job exists.
func (s *Service) Cancel(id string) bool {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if ok && !s.transition(j, change{from: StateQueued, to: StateCanceled, err: context.Canceled}) &&
		!s.transition(j, change{from: StateRetrying, to: StateCanceled, err: context.Canceled}) {
		j.cancel(nil) // running: the engine stops and its worker settles the job; terminal: a no-op
	}
	return ok
}

// Wait blocks until the job reaches a terminal state or the context ends.
func (s *Service) Wait(ctx context.Context, id string) (Status, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Status{}, ErrUnknownJob
	}
	select {
	case <-j.done:
		return s.Status(id)
	case <-ctx.Done():
		return Status{}, ctx.Err()
	}
}

// Jobs lists the statuses of all known jobs, newest first.
func (s *Service) Jobs() []Status {
	s.mu.Lock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	// IDs are zero-padded sequence numbers, so lexical order is submit order
	sort.Strings(ids)
	out := make([]Status, 0, len(ids))
	for i := len(ids) - 1; i >= 0; i-- {
		if st, err := s.Status(ids[i]); err == nil {
			out = append(out, st)
		}
	}
	return out
}

// Drain stops accepting submissions, lets the workers finish every queued
// and running job, and returns when the pool is idle. If the context ends
// first, all remaining jobs are canceled (stopping within one step) and
// Drain still waits for the workers to unwind before returning ctx's error.
// Durable jobs stopped this way are parked, not terminated: their journal
// entries stay non-terminal and their checkpoints stay on disk, so the
// next boot on the same data directory resumes them.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.sched.Close()
		s.log.Info("service draining", "queued", s.m.queued.Value())
	}
	// jobs in retry backoff will never run again in this process: they fail
	// here, parked — their last durable event stays non-terminal, so a
	// durable service's next boot recovers them
	for _, j := range s.jobs {
		s.transitionLocked(j, change{from: StateRetrying, to: StateFailed, parked: true,
			err: fmt.Errorf("%w (after %v)", errDraining, j.err)})
	}
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		// park whatever is still waiting in the scheduler — including jobs
		// blocked on a budget reservation that a canceled-but-unwinding run
		// hasn't released yet — exactly like the jobs in retry backoff, and
		// stop the running ones with the cause that parks them
		s.mu.Lock()
		jobs := make([]*job, 0, len(s.jobs))
		for _, j := range s.jobs {
			jobs = append(jobs, j)
		}
		s.mu.Unlock()
		for _, j := range jobs {
			if !s.transition(j, change{from: StateQueued, to: StateCanceled, parked: true, err: errShutdown}) {
				j.cancel(errShutdown)
			}
		}
		<-idle
		return ctx.Err()
	}
}

// Health is the service's coarse health snapshot — what /healthz reports
// and what /readyz gates on. The state machine: Draining once shutdown
// begins (terminal), Degraded while the circuit breaker is open or
// half-open (alive, serving status and cached results, shedding new work),
// Healthy otherwise.
type Health struct {
	State   admission.HealthState    `json:"state"`
	Breaker admission.BreakerState   `json:"breaker"`
	Budget  admission.LedgerSnapshot `json:"budget"`
	// QueueDepth and Running describe the load right now.
	QueueDepth int64 `json:"queue_depth"`
	Running    int64 `json:"running"`
	// SlowStartCap/SlowStartInflight expose the boot-recovery window while
	// it is active (cap 0 = inactive).
	SlowStartCap      int `json:"slow_start_cap,omitempty"`
	SlowStartInflight int `json:"slow_start_inflight,omitempty"`
}

// Health reports the daemon's health state machine.
func (s *Service) Health() Health {
	s.mu.Lock()
	// the gauges move with the states they count, under s.mu
	h := Health{QueueDepth: s.m.queued.Value(), Running: s.m.running.Value()}
	closed := s.closed
	s.mu.Unlock()
	h.Breaker, h.Budget = s.brk.State(), s.ledger.Snapshot()
	h.SlowStartCap, h.SlowStartInflight = s.sched.SlowStart()
	switch {
	case closed:
		h.State = admission.Draining
	case h.Breaker != admission.BreakerClosed:
		h.State = admission.Degraded
	default:
		h.State = admission.Healthy
	}
	return h
}

// retryHint estimates when a submission the full queue refused is worth
// retrying: the mean observed job latency (1s before any) scaled by how many
// jobs are ahead per worker, capped at 60s. quaked's Retry-After rounds it
// up to whole seconds.
func (s *Service) retryHint() time.Duration {
	mean := time.Second
	if n := s.m.jobLatency.Count(); n > 0 {
		mean = time.Duration(s.m.jobLatency.Sum() / float64(n) * float64(time.Second))
	}
	ahead := float64(s.m.queued.Value())/float64(s.opts.Workers) + 1
	return min(time.Duration(float64(mean)*ahead), time.Minute)
}

// Metrics is a consistent snapshot of the service counters its callers
// read; the registry's views (Registry) carry every counter and gauge.
type Metrics struct {
	// Recovered counts jobs requeued from the journal on boot.
	Recovered int64
	// JournalEvents counts journal appends that reached the disk.
	JournalEvents    int64
	CheckpointsSaved int64
	CacheHits        int64
}

// Metrics snapshots the counters (the same values /metrics serves).
func (s *Service) Metrics() Metrics {
	m := &s.m
	return Metrics{
		Recovered:        m.recovered.Value(),
		JournalEvents:    m.journalEvents.Value(),
		CheckpointsSaved: m.checkpointsSaved.Value(),
		CacheHits:        m.cacheHits.Value(),
	}
}
