package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"time"
)

// The job lifecycle, spelled once (DESIGN.md §3.2 has it as a table): the
// legal edges, the one function that takes a job along one, and what each
// edge carries with it.

// stateNew is a job before its first state: Submit and boot recovery bring
// a job to life through the same function every later change goes through.
const stateNew State = ""

// lifecycle lists every edge a job may take; anything else is refused.
var lifecycle = map[State][]State{
	stateNew:      {StateQueued, StateDone, StateFailed}, // accepted or recovered; served from cache; unrecoverable at boot
	StateQueued:   {StateRunning, StateCanceled},
	StateRunning:  {StateDone, StateRetrying, StateFailed, StateCanceled},
	StateRetrying: {StateQueued, StateFailed, StateCanceled},
}

const (
	// retryBackoff is the base delay before a retry; the actual delay is
	// retryBackoff * 2^(attempt-1), capped at 32x, with ±25% jitter.
	retryBackoff = 100 * time.Millisecond
	// checkpointKeep bounds the dumps a durable job retains.
	checkpointKeep = 3
)

var (
	// errProgressStalled is the cause the progress watchdog cancels a run
	// with; the engine surfaces it via context.Cause, which is how classify
	// tells a stall from a user's cancel.
	errProgressStalled = errors.New("service: job made no step progress within the progress deadline")
	// errShutdown is the cause Drain's deadline cancels with. It reads and
	// matches as context.Canceled, and classify tells it apart: a job the
	// shutdown stopped is parked, not ended.
	errShutdown = fmt.Errorf("%w", context.Canceled)
	errDraining = errors.New("service: draining during retry backoff")
)

// change is one requested transition: the edge, and what it needs to know.
type change struct {
	from, to State
	err      error   // why the job is retrying, failed or canceled
	result   *Result // done: the payload of the run that just ended
	// parked marks an ending that is the shutdown's doing, not the job's or
	// a user's: nothing is journaled and the checkpoints stay, so the job's
	// durable record remains non-terminal and the next boot resumes it
	parked      bool
	resumedStep int // running: the checkpoint step this attempt resumes from
}

// moved is a transition that happened, with what publish needs read under
// the lock — the job can move again the moment the lock drops.
type moved struct {
	change
	j       *job
	at      time.Time     // now
	dwell   time.Duration // how long the job was in the state it left
	attempt int
	delay   time.Duration // retrying: the backoff that was armed
}

// transition takes j along the edge c names and reports whether it did: it
// refuses when j is not in c.from or the table lacks the edge. It is the
// only way a job changes state. The state, the fields Status reads and the
// gauges counting states move under s.mu (move); what announces the edge —
// counters, trace, log, journal, checkpoint removal, closing done — follows
// outside it (publish), so a journal fsync never blocks a Status.
func (s *Service) transition(j *job, c change) bool {
	s.mu.Lock()
	m, ok := s.move(j, c)
	s.mu.Unlock()
	if ok {
		s.publish(m)
	}
	return ok
}

// transitionLocked is transition for callers that hold s.mu across more
// than the edge (Submit, boot recovery, requeueRetry, Drain's sweep of the
// backoff timers): the edge is published before anyone can see the job.
func (s *Service) transitionLocked(j *job, c change) bool {
	m, ok := s.move(j, c)
	if ok {
		s.publish(m)
	}
	return ok
}

// move is the state half of a transition, gauges included; the caller holds
// s.mu. A retry that the job's attempt budget or a draining service cannot
// honour is a failure instead.
func (s *Service) move(j *job, c change) (moved, bool) {
	if c.to == StateRetrying && (j.attempt >= s.attempts() || s.closed) {
		c.to = StateFailed
	}
	if j.state != c.from || !slices.Contains(lifecycle[c.from], c.to) {
		return moved{}, false
	}
	now := s.clk.Now()
	m := moved{change: c, j: j, at: now, dwell: now.Sub(j.entered)}
	j.state, j.entered = c.to, now
	// the gauges count states, so they move with the state: Status, Health
	// and the metrics views agree at every instant
	switch c.from {
	case StateQueued:
		s.m.queued.Add(-1)
	case StateRunning:
		s.m.running.Add(-1)
	}
	switch c.to {
	case StateQueued:
		s.m.queueHW.RaiseTo(s.m.queued.Add(1))
	case StateRunning:
		s.m.running.Add(1)
	}
	switch {
	case c.from == stateNew:
		s.jobs[j.id], j.submitted = j, now
	case c.to == StateRunning:
		j.attempt++
		j.started, j.resumedStep = now, c.resumedStep
		if c.resumedStep > 0 {
			j.stepsDone.Store(int64(c.resumedStep))
		}
	case c.to == StateRetrying:
		// the checkpoints stay, so the retry resumes rather than recomputes;
		// the timer is never stopped: one that outlives the backoff (the job
		// was canceled, or failed by Drain) finds requeueRetry refused
		m.delay = retryDelay(j.attempt)
		s.clk.AfterFunc(m.delay, func() { s.requeueRetry(j) })
	}
	if c.to.Terminal() || c.to == StateRetrying {
		j.err, j.finished = c.err, now
	}
	if c.result != nil {
		j.result = c.result
		s.cache.add(j.key, c.result)
	}
	if j.cacheHit {
		j.started = now
		j.stepsDone.Store(int64(j.stepsTotal))
	}
	m.attempt = j.attempt
	return m, true
}

// publish announces a transition that happened: what leaving the old state
// and entering the new one carry, the journal event — none for a parked
// ending — and, for a terminal state, the checkpoint directory (kept when
// parked or failed) and done, closed last so a Wait returns only after the
// journal has the ending.
func (s *Service) publish(m moved) {
	j := m.j
	s.leave(m)
	if ev := s.enter(m); ev.Event != "" && !m.parked {
		s.logEvent(j, ev)
	}
	if !m.to.Terminal() {
		return
	}
	if m.to != StateFailed && !m.parked && s.autoCheckpoints(j.req) {
		os.RemoveAll(s.ckptDir(j.id)) // the dumps only exist to resume an unfinished job
	}
	j.cancel(nil)
	close(j.done)
}

// leave is the accounting of the state left: its dwell time, its trace span,
// and the submit-to-terminal latency of a job that ends on a worker.
func (s *Service) leave(m moved) {
	tid, since := jobSeq(m.j.id), m.at.Add(-m.dwell)
	switch m.from {
	case stateNew:
		s.m.submitted.Add(1)
		return
	case StateQueued:
		s.tracer.Span(0, tid, "job", "queued", since, m.dwell, nil)
	case StateRunning:
		s.tracer.Span(0, tid, "job", "running", since, m.dwell,
			map[string]any{"state": string(m.to), "attempt": m.attempt})
		if m.to.Terminal() {
			s.m.jobLatency.Observe(m.at.Sub(m.j.submitted).Seconds())
		}
	}
	s.m.stateSeconds[string(m.from)].Observe(m.dwell.Seconds())
}

// enter is the accounting and the log line of the state entered, and
// returns its journal event; Event is "" where the journal needs none: a job
// it already holds (recovered, requeued after backoff) and a cache hit,
// which has nothing to recover.
func (s *Service) enter(m moved) journalEvent {
	j, tid := m.j, jobSeq(m.j.id)
	jl := s.jobLog(j).With("attempt", m.attempt, "from", string(m.from), "to", string(m.to))
	ev := journalEvent{Event: string(m.to), Attempt: m.attempt}
	if m.err != nil && m.to != StateCanceled {
		ev.Error = m.err.Error()
	}
	switch m.to {
	case StateQueued:
		switch {
		case m.from == StateRetrying:
			ev.Event = ""
		case j.recovered:
			ev.Event = ""
			s.m.recovered.Add(1)
			jl.Info("job recovered", "budget_bytes", j.item.Bytes)
		default:
			ev.Event, ev.Spec = "submitted", j.req.Spec
			s.m.cacheMisses.Add(1)
			jl.Info("job submitted", "steps", j.stepsTotal, "mx", j.req.MX, "my", j.req.MY,
				"class", string(j.req.Class), "budget_bytes", j.item.Bytes)
		}
		if m.from == stateNew {
			s.tracer.NameThread(0, tid, j.id)
		}
	case StateRunning:
		ev.Event = "started"
		jl.Info("job started", "resumed_step", m.resumedStep, "serial", j.req.MX <= 1 && j.req.MY <= 1)
	case StateRetrying:
		s.m.retried.Add(1)
		s.tracer.Instant(0, tid, "job", "retry", m.at, map[string]any{"error": ev.Error, "delay_s": m.delay.Seconds()})
		jl.Warn("job retrying", "error", ev.Error, "delay_s", m.delay.Seconds())
	case StateDone:
		s.m.done.Add(1)
		if j.cacheHit {
			s.m.cacheHits.Add(1)
			ev.Event = ""
			jl.Info("job served from cache")
			break
		}
		jl.Info("job done", "steps", m.result.Manifest.Steps, "elapsed_s", m.dwell.Seconds())
	case StateFailed:
		s.m.failed.Add(1)
		jl.Error("job failed", "error", ev.Error)
	case StateCanceled:
		s.m.canceled.Add(1)
		if m.from == StateQueued {
			s.sched.Remove(j.item) // the slot is free at once; false: a worker holds the item and will be refused
		}
		if m.from == StateQueued && m.parked {
			jl.Warn("job parked by drain deadline", "while", "queued")
		} else {
			jl.Warn("job canceled", "parked", m.parked)
		}
	}
	return ev
}

// enqueue is the one way onto the scheduler, for a fresh submission, a job
// recovered at boot and a job coming back from its retry backoff alike. The
// caller holds s.mu, so a worker that pops the item at once still waits for
// the job to be queued before it takes it to running.
func (s *Service) enqueue(j *job, from State) error {
	if j.state != from {
		return fmt.Errorf("service: job %s is %s, not %s", j.id, j.state, from)
	}
	if err := s.sched.Push(j.item); err != nil {
		return err
	}
	s.transitionLocked(j, change{from: from, to: StateQueued})
	return nil
}

// requeueRetry puts a job back on the queue when its backoff timer fires;
// with the queue full it fails for good. Both are refused, and nothing
// happens, if the job was canceled — or failed by Drain — while it waited.
func (s *Service) requeueRetry(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// the job's original item is reused: same class, same budget size, and
	// the ledger's idempotent TryReserve makes the re-dispatch safe
	if s.enqueue(j, StateRetrying) != nil {
		s.transitionLocked(j, change{from: StateRetrying, to: StateFailed,
			err: fmt.Errorf("%w (after %v)", ErrQueueFull, j.err)})
	}
}

// attempts is how many times a job is run before a transient failure is
// permanent: three on a durable service (a journaled job's retry resumes
// from its newest dump), one on a volatile one.
func (s *Service) attempts() int {
	if s.opts.DataDir != "" {
		return 3
	}
	return 1
}

// retryDelay is the capped exponential backoff with ±25% jitter.
func retryDelay(attempt int) time.Duration {
	d := retryBackoff << min(attempt-1, 5)
	return d/2 + d/4 + time.Duration(rand.Int63n(int64(d/2)+1)) // d * [0.75, 1.25]
}
