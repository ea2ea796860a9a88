package service

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"swquake/internal/admission"
	"swquake/internal/checkpoint"
	"swquake/internal/core"
	"swquake/internal/faultinject"
	"swquake/internal/source"
	"swquake/internal/wal"
)

// validatedCost prices cfg exactly the way Submit does: defaults filled by
// Validate, then the admission cost model.
func validatedCost(t *testing.T, cfg core.Config, mx, my int) admission.Cost {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return admission.EstimateCost(cfg, mx, my)
}

// TestMemBudgetSerializesDispatch: with a budget that fits one job but not
// two, a two-worker pool must run the jobs one at a time — the second worker
// blocks on the ledger, not on the queue — and every job still completes.
func TestMemBudgetSerializesDispatch(t *testing.T) {
	cost := validatedCost(t, tinyConfig(300), 1, 1)
	s := New(Options{Workers: 2, MemBudget: cost.Bytes + cost.Bytes/2})
	defer drain(t, s)

	var ids []string
	for i := 0; i < 3; i++ {
		id, err := s.Submit(Request{Config: tinyConfig(300 + i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		m := s.Metrics()
		if m.Running > 1 {
			t.Fatalf("budget admitted %d concurrent jobs, the ledger fits 1", m.Running)
		}
		if m.MemReservedBytes > m.MemBudgetBytes {
			t.Fatalf("reserved %d exceeds budget %d", m.MemReservedBytes, m.MemBudgetBytes)
		}
		live := 0
		for _, id := range ids {
			if st, err := s.Status(id); err != nil {
				t.Fatal(err)
			} else if !st.State.Terminal() {
				live++
			}
		}
		if live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs still live", live)
		}
		time.Sleep(time.Millisecond)
	}

	for _, id := range ids {
		if st, _ := s.Status(id); st.State != StateDone {
			t.Fatalf("job %s state %s (err %q)", id, st.State, st.Error)
		}
	}
	m := s.Metrics()
	if m.MemHighWaterBytes <= 0 || m.MemHighWaterBytes > m.MemBudgetBytes {
		t.Fatalf("ledger high water %d with budget %d", m.MemHighWaterBytes, m.MemBudgetBytes)
	}
	// a job turns terminal inside runJob; its worker releases the
	// reservation just after
	for deadline := time.Now().Add(5 * time.Second); m.MemReservedBytes != 0; m = s.Metrics() {
		if time.Now().After(deadline) {
			t.Fatalf("reservations leaked: %d bytes still held", m.MemReservedBytes)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDurableJobsArePricedWithTheCheckpointLane: a journaled job on a durable
// service auto-checkpoints, so a budget that holds its fields but not the
// checkpoint lane's wavefield can never run it; with checkpointing off, or
// on a volatile service, the same budget admits it.
func TestDurableJobsArePricedWithTheCheckpointLane(t *testing.T) {
	sp := quickSpec(30)
	req, err := sp.Request()
	if err != nil {
		t.Fatal(err)
	}
	bare := validatedCost(t, req.Config, 1, 1).Bytes
	req.Config.Checkpoint = &checkpoint.Controller{Interval: 25}
	if laned := validatedCost(t, req.Config, 1, 1).Bytes; laned <= bare {
		t.Fatalf("checkpointing priced %d, bare %d", laned, bare)
	}

	for _, tc := range []struct {
		name string
		opts Options
		fits bool
	}{
		{"durable", Options{DataDir: t.TempDir(), CheckpointEvery: 25}, false},
		{"durable, checkpoints off", Options{DataDir: t.TempDir(), CheckpointEvery: -1}, true},
		{"volatile", Options{}, true},
	} {
		tc.opts.Workers, tc.opts.MemBudget = 1, bare
		s, err := Open(tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		r, _ := sp.Request()
		_, err = s.Submit(r)
		if tc.fits && err != nil || !tc.fits && !errors.Is(err, admission.ErrNeverFits) {
			t.Fatalf("%s: submit returned %v", tc.name, err)
		}
		drain(t, s)
	}
}

// TestNeverFitsRejectedAtSubmit: a job whose estimated working set exceeds
// the WHOLE budget is a permanent rejection at submit time, not a queued
// job that would wait forever.
func TestNeverFitsRejectedAtSubmit(t *testing.T) {
	cost := validatedCost(t, tinyConfig(30), 1, 1)
	s := New(Options{Workers: 1, MemBudget: cost.Bytes - 1})
	defer drain(t, s)

	_, err := s.Submit(Request{Config: tinyConfig(30)})
	if !errors.Is(err, admission.ErrNeverFits) {
		t.Fatalf("oversized submit: %v, want ErrNeverFits", err)
	}
	if !strings.Contains(err.Error(), "budget") {
		t.Fatalf("rejection does not name the budget: %v", err)
	}
	m := s.Metrics()
	if m.Rejected != 1 || m.Submitted != 0 {
		t.Fatalf("rejected=%d submitted=%d, want 1/0", m.Rejected, m.Submitted)
	}
}

// TestSubmitRateLimited: the token bucket sheds the submission that exceeds
// the rate with a concrete Retry-After hint — and cache hits bypass it,
// since serving a cached result allocates nothing.
func TestSubmitRateLimited(t *testing.T) {
	s := New(Options{Workers: 1, SubmitRate: 0.1}) // a bucket of one token
	defer drain(t, s)

	id, err := s.Submit(Request{Config: tinyConfig(10)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit(Request{Config: tinyConfig(11)})
	if !errors.Is(err, admission.ErrRateLimited) {
		t.Fatalf("over-rate submit: %v, want ErrRateLimited", err)
	}
	if hint, ok := admission.RetryAfter(err); !ok || hint <= 0 {
		t.Fatalf("rate-limit rejection carries no retry hint: %v", err)
	}
	if m := s.Metrics(); m.Rejected != 1 {
		t.Fatalf("rejected=%d, want 1", m.Rejected)
	}

	if st, err := s.Wait(context.Background(), id); err != nil || st.State != StateDone {
		t.Fatalf("first job: %v %v", st.State, err)
	}
	// identical resubmission is a cache hit: admitted despite the dry bucket
	hit, err := s.Submit(Request{Config: tinyConfig(10)})
	if err != nil {
		t.Fatalf("cached resubmit rate-limited: %v", err)
	}
	if st, _ := s.Status(hit); !st.CacheHit {
		t.Fatalf("resubmission not served from cache: %+v", st)
	}
}

// TestBreakerTripShedsAndRecovers walks the whole circuit: two worker
// panics trip the breaker (Degraded, submissions shed with a Retry-After),
// the cooldown elapses, a probe submission is admitted, and its success
// closes the breaker (Healthy again).
func TestBreakerTripShedsAndRecovers(t *testing.T) {
	defer faultinject.Reset()
	s, clk := openOnFake(t, Options{Workers: 1, BreakerThreshold: 2, BreakerCooldown: time.Second})
	defer drain(t, s)

	faultinject.Enable(faultinject.WorkerPanic, faultinject.Fault{Times: 2})
	for i := 0; i < 2; i++ {
		id, err := s.Submit(Request{Config: tinyConfig(20 + i)})
		if err != nil {
			t.Fatalf("submit %d (breaker should still be closed): %v", i, err)
		}
		st, err := s.Wait(context.Background(), id)
		if err != nil || st.State != StateFailed {
			t.Fatalf("panicked job %d: state %v err %v", i, st.State, err)
		}
	}

	if h := s.Health(); h.State != admission.Degraded || h.Breaker != admission.BreakerOpen {
		t.Fatalf("health after trip: %+v, want degraded/open", h)
	}
	_, err := s.Submit(Request{Config: tinyConfig(25)})
	if !errors.Is(err, admission.ErrShedding) {
		t.Fatalf("submit while open: %v, want ErrShedding", err)
	}
	if hint, ok := admission.RetryAfter(err); !ok || hint <= 0 || hint > time.Second {
		t.Fatalf("shedding hint %v ok=%v, want (0, cooldown]", hint, ok)
	}
	m := s.Metrics()
	if m.BreakerTrips != 1 || m.WorkerPanics != 2 || m.Rejected != 1 {
		t.Fatalf("trips=%d panics=%d rejected=%d, want 1/2/1", m.BreakerTrips, m.WorkerPanics, m.Rejected)
	}

	clk.Advance(time.Second) // the cooldown elapses
	probe, err := s.Submit(Request{Config: tinyConfig(26)})
	if err != nil {
		t.Fatalf("probe submission shed after cooldown: %v", err)
	}
	if st, err := s.Wait(context.Background(), probe); err != nil || st.State != StateDone {
		t.Fatalf("probe job: state %v err %v", st.State, err)
	}
	if h := s.Health(); h.State != admission.Healthy || h.Breaker != admission.BreakerClosed {
		t.Fatalf("health after probe success: %+v, want healthy/closed", h)
	}
}

// wedge is a source time function that blocks the run inside its fifth and
// its tenth step: each time it signals entered, then waits for release.
type wedge struct {
	source.Ricker
	calls            *atomic.Int32
	entered, release chan struct{}
}

func (w wedge) MomentRate(t float64) float64 {
	if n := w.calls.Add(1); n == 5 || n == 10 {
		w.entered <- struct{}{}
		<-w.release
	}
	return w.Ricker.MomentRate(t)
}

// TestProgressWatchdogCancelsForRetry: a run whose step counter stops
// advancing (a rank wedged inside a step, invisible to the engine without a
// StepDeadline) is canceled by the service watchdog with a retryable cause,
// and the retry — the wedge gone — completes the job. All of it on the
// clock: the deadline runs from the last completed step, and passes because
// the test says so.
func TestProgressWatchdogCancelsForRetry(t *testing.T) {
	s, clk := openOnFake(t, Options{Workers: 1, MaxAttempts: 2, ProgressDeadline: time.Hour})
	defer drain(t, s)

	cfg := tinyConfig(40)
	w := wedge{Ricker: cfg.Sources[0].S.(source.Ricker), calls: new(atomic.Int32),
		entered: make(chan struct{}), release: make(chan struct{})}
	cfg.Sources[0].S = w
	defer close(w.release) // whatever fails, the worker is not left wedged for drain to wait on
	id, err := s.Submit(Request{Config: cfg, MX: 2, MY: 1})
	if err != nil {
		t.Fatal(err)
	}
	stalls := func() int64 { return s.Metrics().ProgressStalls }
	<-w.entered // inside step 5
	clk.Advance(59 * time.Minute)
	w.release <- struct{}{}
	<-w.entered // inside step 10; steps 5 to 9 completed 59 minutes in
	clk.Advance(59 * time.Minute)
	if stalls() != 0 {
		t.Fatal("a stall 118 minutes into the run but 59 after a step: the deadline must run from the last completed step")
	}
	clk.Advance(time.Minute) // the hour without a step is up
	if stalls() != 1 {
		t.Fatalf("%d stalls detected, want 1", stalls())
	}
	w.release <- struct{}{}
	endBackoff(t, s, clk, id)
	st, err := s.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("stalled job state %s (err %q), want done after retry", st.State, st.Error)
	}
	if st.Attempt != 2 {
		t.Fatalf("attempt %d, want 2 (stall must burn one)", st.Attempt)
	}
	if m := s.Metrics(); m.ProgressStalls != 1 || m.Retried != 1 {
		t.Fatalf("stalls=%d retried=%d, want 1 / 1", m.ProgressStalls, m.Retried)
	}
}

// TestHealthDrainingState: shutdown is the terminal health state, and
// submissions during it count as draining rejections.
func TestHealthDrainingState(t *testing.T) {
	s := New(Options{Workers: 1})
	if h := s.Health(); h.State != admission.Healthy {
		t.Fatalf("fresh service health %+v", h)
	}
	drain(t, s)
	if h := s.Health(); h.State != admission.Draining {
		t.Fatalf("drained service health %+v", h)
	}
	if _, err := s.Submit(Request{Config: tinyConfig(10)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit while draining: %v", err)
	}
	if m := s.Metrics(); m.Rejected != 1 {
		t.Fatalf("draining rejection not counted: %d", m.Rejected)
	}
}

// TestDrainDeadlineParksBudgetBlockedJob is the overload-shutdown drill: a
// durable daemon draining on a deadline while one job runs and another
// waits for the memory budget must park BOTH — journal entries stay
// non-terminal — so the next boot on the same data directory recovers and
// finishes them. Losing the budget-blocked job would mean SIGTERM under
// overload silently dropped accepted work.
func TestDrainDeadlineParksBudgetBlockedJob(t *testing.T) {
	dir := t.TempDir()
	spA, spB := quickSpec(800), quickSpec(30)
	reqA, err := spA.Request()
	if err != nil {
		t.Fatal(err)
	}
	reqB, err := spB.Request()
	if err != nil {
		t.Fatal(err)
	}
	// a durable service prices its jobs with the checkpoint lane's wavefield
	lane := &checkpoint.Controller{Interval: 25}
	reqA.Config.Checkpoint, reqB.Config.Checkpoint = lane, lane
	costA := validatedCost(t, reqA.Config, 1, 1)
	costB := validatedCost(t, reqB.Config, 1, 1)
	opts := Options{
		Workers: 1, DataDir: dir, CheckpointEvery: 25,
		// fits either job alone, never both at once
		MemBudget: costA.Bytes + costB.Bytes/2,
	}

	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	idA := submitSpec(t, s, spA)
	waitState(t, s, idA, StateRunning)
	idB := submitSpec(t, s, spB)
	if st, _ := s.Status(idB); st.State != StateQueued {
		t.Fatalf("job B state %s, want queued (budget-blocked)", st.State)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline drain: %v", err)
	}
	for _, id := range []string{idA, idB} {
		if st, _ := s.Status(id); st.State != StateCanceled {
			t.Fatalf("job %s state %s after forced drain", id, st.State)
		}
	}
	// the park must leave both journals non-terminal — that is the contract
	// the next boot's recovery relies on
	events, err := wal.Read[journalEvent](journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range replayJournal(events) {
		if rec.terminal() {
			t.Fatalf("job %s journaled terminal state %q by deadline drain", rec.id, rec.last)
		}
	}

	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s2)
	if m := s2.Metrics(); m.Recovered != 2 {
		t.Fatalf("recovered %d jobs, want 2 (budget-blocked job was lost)", m.Recovered)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel2()
	for _, id := range []string{idA, idB} {
		st, err := s2.Wait(ctx2, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone || !st.Recovered {
			t.Fatalf("recovered job %s: state %s recovered=%v (err %q)",
				id, st.State, st.Recovered, st.Error)
		}
	}
}

// TestBatchYieldsToInteractive: with both lanes contested, the weighted
// scheduler dispatches interactive submissions ahead of batch ones.
func TestBatchYieldsToInteractive(t *testing.T) {
	// one worker held busy so both lanes build up behind it
	s := New(Options{Workers: 1, QueueSize: 8})
	defer drain(t, s)

	blocker, err := s.Submit(Request{Config: slowConfig()})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, blocker, StateRunning)

	batch, err := s.Submit(Request{Config: tinyConfig(41), Class: admission.ClassBatch})
	if err != nil {
		t.Fatal(err)
	}
	inter, err := s.Submit(Request{Config: tinyConfig(42)})
	if err != nil {
		t.Fatal(err)
	}
	s.Cancel(blocker)

	stI, err := s.Wait(context.Background(), inter)
	if err != nil || stI.State != StateDone {
		t.Fatalf("interactive job: %v %v", stI.State, err)
	}
	stB, err := s.Wait(context.Background(), batch)
	if err != nil || stB.State != StateDone {
		t.Fatalf("batch job: %v %v", stB.State, err)
	}
	// the batch job was submitted FIRST but must have started after the
	// interactive one — the contested pick goes to the interactive lane
	if !stB.Started.After(stI.Started) {
		t.Fatalf("batch started %v, interactive %v: batch did not yield",
			stB.Started, stI.Started)
	}
}
