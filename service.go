package swquake

import (
	"swquake/internal/service"
)

// JobService is the simulation job service: a bounded submission queue in
// front of a worker pool that drives the step-pipeline engine, with per-job
// cancellation and deadlines, live progress, a scenario-keyed result cache
// and metrics. The implementation lives in internal/service; the
// quaked daemon (cmd/quaked) is its HTTP face.
type JobService = service.Service

// JobRequest describes one simulation job: the configuration to solve, an
// optional simulated-MPI process grid, and an optional deadline.
type JobRequest = service.Request

// JobOptions configures a JobService: its worker pool (the queue holds four
// jobs per worker), durability, engine resilience and admission policy.
type JobOptions = service.Options

// JobStatus is a job's externally visible state and progress.
type JobStatus = service.Status

// JobState enumerates the job lifecycle (queued, running, done, failed,
// canceled).
type JobState = service.State

// JobResult is a finished job's payload: the RunManifest summary plus the
// recorded station traces.
type JobResult = service.Result

// Sentinel errors a JobService returns from Submit and Result.
var (
	ErrJobQueueFull   = service.ErrQueueFull
	ErrServiceClosed  = service.ErrClosed
	ErrUnknownJob     = service.ErrUnknownJob
	ErrJobNotFinished = service.ErrNotFinished
)

// NewJobService starts a job service with the given options.
func NewJobService(opts JobOptions) *JobService {
	return service.New(opts)
}

// ConfigKey returns the canonical SHA-256 hash identifying the simulation a
// Config describes. Two configs that validate to the same simulation hash
// identically; the job service uses it as the result-cache key.
func ConfigKey(cfg Config) (string, error) {
	return service.ConfigKey(cfg)
}
