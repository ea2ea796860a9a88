// Command quaked is the simulation job daemon: an HTTP front end over the
// internal/service queue/worker-pool subsystem, serving many concurrent
// scenario requests with per-job cancellation, live progress, result
// caching and metrics.
//
// API:
//
//	POST   /v1/jobs             submit {"scenario": "quickstart"|"tangshan",
//	                            "overrides": {...}, "mx": 2, "my": 2,
//	                            "timeout_s": 60, "class": "batch"} -> 202 +
//	                            job status (429 + Retry-After when the queue
//	                            of 4 jobs per worker is full, the submission
//	                            rate limit is hit or the circuit breaker is
//	                            shedding; 413 when the job can never fit the
//	                            -mem-budget). A job has no deadline but its
//	                            own timeout_s. How it runs is the daemon's:
//	                            its walk workers, the overlapped halo
//	                            exchange of its ranks and its engine
//	                            resilience; overrides naming tiles or overlap
//	                            are a 400
//	GET    /v1/jobs             list all jobs, newest first
//	GET    /v1/jobs/{id}        status: state, steps done/total, ETA
//	GET    /v1/jobs/{id}/result RunManifest-shaped summary + station traces
//	DELETE /v1/jobs/{id}        cancel (stops a running job within a step)
//	POST   /v1/campaigns        submit an ensemble campaign: a base scenario
//	                            plus sweep axes ({"scenario": "...", "seeds":
//	                            {"base": 1, "count": 8, "het_amplitude": 0.05},
//	                            "variations": [{...}, ...]}) expanded into
//	                            member jobs and aggregated as they finish
//	GET    /v1/campaigns        list campaigns, newest first
//	GET    /v1/campaigns/{id}   campaign status: member states, fold progress
//	DELETE /v1/campaigns/{id}   cancel the campaign and its member jobs
//	GET    /v1/campaigns/{id}/aggregate
//	                            online hazard statistics over the members
//	                            folded so far: mean/std surface-PGV maps,
//	                            exceedance probabilities per threshold,
//	                            percentile PGV maps, mean intensity
//	GET    /healthz             liveness (always 200 while the process
//	                            serves): health state machine
//	                            healthy/degraded/draining, breaker state,
//	                            memory-budget ledger, build info (go
//	                            version, VCS revision, kernel_path: which
//	                            velocity/stress rows this binary runs on
//	                            this host, "avx2" or "go"), uptime, pool
//	                            shape
//	GET    /readyz              readiness: 200 only while healthy; degraded
//	                            or draining answers 503 + Retry-After so
//	                            load balancers steer submissions away
//	GET    /metrics             integer counters as JSON: queued/running/done/
//	                            failed, cache hits, aggregate step throughput
//	GET    /metrics?format=prometheus
//	                            the same data in Prometheus text exposition
//	                            (swquake_* families: counters, queue gauges,
//	                            job-latency histogram, per-stage seconds)
//
// Observability flags: -log-level/-log-format select structured stderr
// logging (slog text or JSON); -trace DIR records a Chrome trace-event
// file viewable in Perfetto (ui.perfetto.dev) with one track per job;
// -debug-addr serves net/http/pprof on a separate listener.
//
// Example:
//
//	quaked -addr :8047 &
//	curl -s localhost:8047/v1/jobs -d '{"scenario":"quickstart"}'
//	curl -s localhost:8047/v1/jobs/job-000001
//	curl -s localhost:8047/v1/jobs/job-000001/result | jq .manifest
//
// On SIGINT/SIGTERM the daemon stops accepting work, drains queued and
// running jobs (bounded by -drain-timeout, after which they are canceled
// at the next step boundary) and exits.
//
// With -data DIR the daemon is durable: accepted jobs AND campaigns are
// journaled — a rebooted daemon re-folds finished members' persisted PGV
// fields (bit-identical to the first life) and resumes the rest. Plain
// durable job behavior: accepted jobs are journaled to
// DIR/journal.jsonl (fsynced before the submit response), running jobs —
// serial and parallel alike — auto-checkpoint under DIR/checkpoints/<job>/,
// and a reboot with the same -data replays the journal — unfinished jobs
// are requeued and resume from the newest checkpoint that passes integrity
// checks (a corrupted latest falls back to the one before it). Transient
// failures — worker panics, engine faults, progress stalls, failed
// checkpoint writes — are retried with capped exponential backoff, up to
// three attempts in all (without -data a job runs once); a diverged run or
// one past its own deadline fails at once.
//
// Engine resilience: every parallel halo exchange is sealed with a CRC32
// frame, so in-flight corruption is always detected; -step-deadline arms
// the stalled-rank watchdog, and -engine-retries lets the parallel engine
// heal halo-corruption, stall and rank-panic faults in-run by rewinding to
// the newest valid checkpoint — without burning a job-level attempt. Both
// are the daemon's policy for every job, whatever a request's config says.
// Faults surface as swquake_engine_faults_total{kind} and
// swquake_engine_recoveries_total, and under -trace as engine_fault
// instants on the job's track.
//
// Overload protection (README "Surviving overload", DESIGN.md §3.8):
// -mem-budget admits jobs against a global working-set budget priced by
// the admission cost model (never-fitting jobs get 413, the rest wait
// their turn), -submit-rate token-buckets submissions, and
// -breaker-threshold/-breaker-cooldown arm a circuit breaker that sheds
// load after repeated worker panics, engine faults or progress stalls
// until a probe job succeeds. Batch-class jobs (ensemble members) yield
// to interactive ones without being starved; jobs recovered on boot
// trickle in under slow-start; -progress-deadline cancels-for-retry any
// run whose step counter stops moving. Every shedding response carries
// Retry-After; rejections surface as swquake_jobs_rejected_total{reason}.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the -debug-addr mux
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"swquake/internal/admission"
	"swquake/internal/ensemble"
	"swquake/internal/faultinject"
	"swquake/internal/service"
	"swquake/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "quaked:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("quaked", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8047", "listen address")
		workers      = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS); a job walks on at most GOMAXPROCS/workers cores, and the submission queue holds 4 jobs per worker")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "max time to drain jobs on shutdown")

		dataDir   = fs.String("data", "", "durable data directory: journal + auto-checkpoints; enables crash recovery on boot and up to 3 attempts per job (1 without)")
		ckptEvery = fs.Int("checkpoint-every", 0, "auto-checkpoint interval in solver steps for durable jobs (0 = 25, negative disables)")
		faults    = fs.String("faults", "", "fault-injection spec, e.g. 'checkpoint/corrupt:times=1;rank/stall:delay=2s' (testing only)")

		stepDeadline  = fs.Duration("step-deadline", 0, "parallel-engine watchdog for every job: fail a halo exchange waiting longer than this as a stalled rank (0 = off)")
		engineRetries = fs.Int("engine-retries", 0, "in-run recovery budget of every parallel job: engine faults healed by rewinding to the newest valid checkpoint (0 = off)")

		memBudget        = fs.String("mem-budget", "", "admission memory budget, e.g. 2GiB or 512MB: jobs whose estimated working set would exceed it wait; jobs that can never fit are rejected with 413 (empty = unlimited)")
		submitRate       = fs.Float64("submit-rate", 0, "max accepted submissions per second, token-bucket smoothed with bursts of two seconds' worth; rejected submissions get 429 + Retry-After (0 = unlimited)")
		breakerThreshold = fs.Int("breaker-threshold", 5, "consecutive worker panics/engine faults/progress stalls that trip the circuit breaker into shedding (0 = never)")
		breakerCooldown  = fs.Duration("breaker-cooldown", 15*time.Second, "how long a tripped breaker sheds before admitting a probe job")
		progressDeadline = fs.Duration("progress-deadline", 0, "per-job progress watchdog: cancel-and-retry a running job whose step counter does not advance for this long; size it well above the slowest expected step (0 = off)")

		traceDir  = fs.String("trace", "", "write a Chrome trace-event file (DIR/quaked-trace.jsonl, open in Perfetto) covering job lifecycles and engine steps")
		debugAddr = fs.String("debug-addr", "", "serve net/http/pprof and /debug/vars on this extra address (off by default)")
		logLevel  = fs.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat = fs.String("log-format", "text", "log format: text or json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	if *faults != "" {
		if err := faultinject.EnableSpec(*faults); err != nil {
			return err
		}
		logger.Warn("fault injection armed", "spec", *faults)
	}

	var tracer *telemetry.Tracer
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*traceDir, "quaked-trace.jsonl")
		tracer, err = telemetry.OpenTrace(path)
		if err != nil {
			return err
		}
		tracer.NameProcess(0, "quaked")
		logger.Info("tracing to file", "path", path)
		defer func() {
			if n := tracer.Clamped(); n > 0 {
				logger.Warn("trace spans ended before they began, drawn empty", "spans", n)
			}
			if err := tracer.Close(); err != nil {
				logger.Error("trace close", "error", err)
			}
		}()
	}

	var budgetBytes int64
	if *memBudget != "" {
		budgetBytes, err = admission.ParseBytes(*memBudget)
		if err != nil {
			return err
		}
	}
	opts := service.Options{
		Workers:          *workers,
		DataDir:          *dataDir,
		CheckpointEvery:  *ckptEvery,
		StepDeadline:     *stepDeadline,
		EngineRetries:    *engineRetries,
		MemBudget:        budgetBytes,
		SubmitRate:       *submitRate,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		ProgressDeadline: *progressDeadline,
		Logger:           logger,
		Tracer:           tracer,
	}

	if *debugAddr != "" {
		// pprof and expvar register themselves on http.DefaultServeMux at
		// import time; serving nil here exposes exactly those, on a separate
		// listener so profiling never rides the public API address
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		logger.Info("debug server listening", "addr", dln.Addr().String())
		go http.Serve(dln, nil)
	}

	svc, err := service.Open(opts)
	if err != nil {
		return err
	}
	if *dataDir != "" {
		m := svc.Metrics()
		logger.Info("durable mode", "data_dir", *dataDir, "jobs_recovered", m.Recovered)
	}
	mgr, err := ensemble.Open(ensemble.Options{Service: svc, Logger: logger, Tracer: tracer})
	if err != nil {
		return err
	}
	if *dataDir != "" {
		logger.Info("campaigns durable", "campaigns_recovered", mgr.Registry().Ints()["campaigns_recovered"])
	}
	expvar.Publish("quaked", expvar.Func(func() any { return svc.Registry().Ints() }))
	expvar.Publish("quaked.campaigns", expvar.Func(func() any { return mgr.Registry().Ints() }))
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("quaked listening", "addr", ln.Addr().String(),
		"workers", svc.Workers(), "queue", svc.QueueSize())

	srv := &http.Server{Handler: newServer(svc, mgr)}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop()
		logger.Info("shutting down, draining jobs", "drain_timeout", drainTimeout.String())
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(dctx); err != nil {
			logger.Error("http shutdown", "error", err)
		}
		// campaigns drain before the service so members finishing during the
		// window still get folded (or parked for the next boot)
		if err := mgr.Drain(dctx); err != nil {
			logger.Warn("campaign drain incomplete, campaigns parked", "error", err)
		}
		if err := svc.Drain(dctx); err != nil {
			logger.Warn("drain incomplete, jobs canceled", "error", err)
		}
		logger.Info("bye")
		return nil
	}
}
