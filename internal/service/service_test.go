package service

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"swquake/internal/core"
	"swquake/internal/grid"
	"swquake/internal/model"
	"swquake/internal/scenario"
	"swquake/internal/seismo"
	"swquake/internal/source"
)

// tinyConfig is a fast linear run (tens of milliseconds).
func tinyConfig(steps int) core.Config {
	return core.Config{
		Dims:  grid.Dims{Nx: 18, Ny: 16, Nz: 12},
		Dx:    200,
		Steps: steps,
		Model: model.Homogeneous{M: model.Material{Vp: 4000, Vs: 2310, Rho: 2500}},
		Sources: []source.PointSource{{
			I: 9, J: 8, K: 6,
			M: source.Explosion(),
			S: source.Ricker{F0: 3, T0: 0.3, M0: 1e13},
		}},
		Stations:  []seismo.Station{{Name: "s0", I: 14, J: 8, K: 0}},
		RecordPGV: true,
	}
}

// slowConfig runs long enough to be observed mid-flight and canceled.
func slowConfig() core.Config {
	cfg := tinyConfig(200000)
	cfg.Dims = grid.Dims{Nx: 32, Ny: 32, Nz: 24}
	cfg.Sources[0].I, cfg.Sources[0].J, cfg.Sources[0].K = 16, 16, 12
	cfg.Stations[0].I, cfg.Stations[0].J = 26, 16
	return cfg
}

func drain(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// waitState polls until the job reaches the wanted state.
func waitState(t *testing.T, s *Service, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		st, err := s.Status(id)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached terminal state %s while waiting for %s (err %q)",
				id, st.State, want, st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, want)
	return Status{}
}

func TestSubmitRunResult(t *testing.T) {
	s := New(Options{Workers: 2})
	defer drain(t, s)

	id, err := s.Submit(Request{Config: tinyConfig(30)})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("state %s (err %q), want done", st.State, st.Error)
	}
	if st.StepsDone != 30 || st.StepsTotal != 30 {
		t.Fatalf("progress %d/%d, want 30/30", st.StepsDone, st.StepsTotal)
	}
	res, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Manifest.Steps != 30 || res.Manifest.Dims.Nx != 18 {
		t.Fatalf("manifest wrong: %+v", res.Manifest)
	}
	if len(res.Traces) != 1 || res.Traces[0].Name != "s0" || len(res.Traces[0].U) != 30 {
		t.Fatalf("traces wrong: %+v", res.Traces)
	}
	if res.Manifest.SurfacePGV <= 0 {
		t.Fatal("surface PGV missing from manifest")
	}
}

func TestParallelJob(t *testing.T) {
	s := New(Options{Workers: 1})
	defer drain(t, s)

	id, err := s.Submit(Request{Config: tinyConfig(20), MX: 2, MY: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("parallel job state %s (err %q)", st.State, st.Error)
	}
	res, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 1 {
		t.Fatalf("parallel job traces: %+v", res.Traces)
	}
}

func TestCacheHitOnResubmit(t *testing.T) {
	s := New(Options{Workers: 1})
	defer drain(t, s)

	a, err := s.Submit(Request{Config: tinyConfig(25)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(Request{Config: tinyConfig(25)})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Wait(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || !st.CacheHit {
		t.Fatalf("resubmit state %s cacheHit %v, want done from cache", st.State, st.CacheHit)
	}
	ra, _ := s.Result(a)
	rb, _ := s.Result(b)
	if ra != rb {
		t.Fatal("cache hit did not share the result")
	}
	// a different layout must not hit the config-only cache entry
	c, err := s.Submit(Request{Config: tinyConfig(25), MX: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Wait(context.Background(), c); st.CacheHit {
		t.Fatal("different process-grid layout served from cache")
	}
	m := metricsOf(s)
	if m.CacheHits != 1 || m.CacheMisses != 2 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/2", m.CacheHits, m.CacheMisses)
	}
	if m.CacheEntries != 2 {
		t.Fatalf("cache entries %d, want 2", m.CacheEntries)
	}
}

func TestCancelMidRunFreesWorker(t *testing.T) {
	s := New(Options{Workers: 1})
	defer drain(t, s)

	id, err := s.Submit(Request{Config: slowConfig()})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id, StateRunning)
	// let it take at least one step so cancellation happens mid-run
	deadline := time.Now().Add(20 * time.Second)
	for {
		if st, _ := s.Status(id); st.StepsDone > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never advanced a step")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !s.Cancel(id) {
		t.Fatal("cancel reported unknown job")
	}
	st, err := s.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("state %s, want canceled", st.State)
	}
	if !strings.Contains(st.Error, "context canceled") {
		t.Fatalf("canceled job error %q", st.Error)
	}
	if st.StepsDone >= st.StepsTotal {
		t.Fatalf("canceled job ran to completion (%d/%d)", st.StepsDone, st.StepsTotal)
	}
	if _, err := s.Result(id); !errors.Is(err, context.Canceled) {
		t.Fatalf("result of canceled job: %v", err)
	}
	// the worker must be free again: a short job completes promptly
	next, err := s.Submit(Request{Config: tinyConfig(10)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if st, err := s.Wait(ctx, next); err != nil || st.State != StateDone {
		t.Fatalf("worker not freed after cancel: %v %v", st.State, err)
	}
	if m := metricsOf(s); m.Canceled != 1 {
		t.Fatalf("canceled counter %d, want 1", m.Canceled)
	}
}

func TestQueueBackpressure(t *testing.T) {
	s := New(Options{Workers: 1, QueueSize: 1})
	defer drain(t, s)

	blocker, err := s.Submit(Request{Config: slowConfig()})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, blocker, StateRunning)

	queued, err := s.Submit(Request{Config: tinyConfig(10)})
	if err != nil {
		t.Fatalf("queued submit rejected: %v", err)
	}
	if _, err := s.Submit(Request{Config: tinyConfig(11)}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if m := metricsOf(s); m.Queued != 1 || m.Running != 1 {
		t.Fatalf("gauges queued=%d running=%d, want 1/1", m.Queued, m.Running)
	}

	// canceling the queued job must not occupy the worker
	if !s.Cancel(queued) {
		t.Fatal("cancel queued job failed")
	}
	if st, _ := s.Status(queued); st.State != StateCanceled {
		t.Fatalf("queued job state %s after cancel", st.State)
	}
	s.Cancel(blocker)
	if st, _ := s.Wait(context.Background(), blocker); st.State != StateCanceled {
		t.Fatalf("blocker state %s", st.State)
	}
}

// TestCanceledQueuedJobFreesItsSlot: a job canceled while it waits gives
// its queue slot back at once, not when a worker gets round to popping it —
// with the only worker busy, the next submission must fit.
func TestCanceledQueuedJobFreesItsSlot(t *testing.T) {
	s := New(Options{Workers: 1, QueueSize: 1})
	defer drain(t, s)
	blocker, err := s.Submit(Request{Config: slowConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Cancel(blocker)
	waitState(t, s, blocker, StateRunning)

	for i := 0; i < 3; i++ { // any number of them, behind one long run
		queued, err := s.Submit(Request{Config: tinyConfig(10 + i)})
		if err != nil {
			t.Fatalf("submission %d refused on an empty queue: %v", i, err)
		}
		if m := metricsOf(s); m.Queued != 1 || s.Registry().Ints()["jobs_queued"] != 1 {
			t.Fatalf("submission %d: jobs_queued = %d, want 1", i, m.Queued)
		}
		if !s.Cancel(queued) || metricsOf(s).Queued != 0 {
			t.Fatalf("cancel %d: %d still queued", i, metricsOf(s).Queued)
		}
	}
}

// TestJobThatNeverRanReportsNoElapsedTime: a job canceled while queued
// never started, so its status reads no running time.
func TestJobThatNeverRanReportsNoElapsedTime(t *testing.T) {
	s := New(Options{Workers: 1, QueueSize: 1})
	defer drain(t, s)
	blocker, err := s.Submit(Request{Config: slowConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Cancel(blocker)
	waitState(t, s, blocker, StateRunning)
	queued, err := s.Submit(Request{Config: tinyConfig(10)})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Cancel(queued) {
		t.Fatal("queued job not canceled")
	}
	st, err := s.Status(queued)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled || !st.Started.IsZero() || st.ElapsedS != 0 {
		t.Fatalf("canceled while queued: state %s, started %v, elapsed_s %g; want canceled, never started, 0",
			st.State, st.Started, st.ElapsedS)
	}
}

func TestJobDeadline(t *testing.T) {
	s := New(Options{Workers: 1})
	defer drain(t, s)

	id, err := s.Submit(Request{Config: slowConfig(), Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed {
		t.Fatalf("deadline job state %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "deadline") {
		t.Fatalf("deadline job error %q", st.Error)
	}
}

func TestDrainFinishesQueuedJobs(t *testing.T) {
	s := New(Options{Workers: 2})
	var ids []string
	for i := 0; i < 5; i++ {
		id, err := s.Submit(Request{Config: tinyConfig(12 + i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	drain(t, s)
	for _, id := range ids {
		if st, _ := s.Status(id); st.State != StateDone {
			t.Fatalf("job %s state %s after drain", id, st.State)
		}
	}
	if _, err := s.Submit(Request{Config: tinyConfig(10)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after drain: %v", err)
	}
	m := metricsOf(s)
	if m.Done != 5 || m.Queued != 0 || m.Running != 0 {
		t.Fatalf("metrics after drain: %+v", m)
	}
}

func TestDrainDeadlineCancelsRunningJobs(t *testing.T) {
	s := New(Options{Workers: 1})
	id, err := s.Submit(Request{Config: slowConfig()})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id, StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with live job: %v", err)
	}
	if st, _ := s.Status(id); st.State != StateCanceled {
		t.Fatalf("job state %s after forced drain", st.State)
	}
}

// TestConcurrentSubmissions is the acceptance scenario: N concurrent
// submissions on a bounded queue all complete or reject cleanly, and the
// metrics are consistent with the observed outcomes.
func TestConcurrentSubmissions(t *testing.T) {
	s := New(Options{Workers: 2, QueueSize: 3})

	const n = 12
	var wg sync.WaitGroup
	var mu sync.Mutex
	var accepted []string
	var rejected int
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, err := s.Submit(Request{Config: tinyConfig(10 + i)})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				accepted = append(accepted, id)
			case errors.Is(err, ErrQueueFull):
				rejected++
			default:
				t.Errorf("submit %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	drain(t, s)

	for _, id := range accepted {
		st, err := s.Status(id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if st.State != StateDone {
			t.Fatalf("job %s state %s (err %q)", id, st.State, st.Error)
		}
	}
	m := metricsOf(s)
	if int(m.Submitted) != len(accepted) {
		t.Fatalf("submitted %d, accepted %d", m.Submitted, len(accepted))
	}
	if int(m.Done) != len(accepted) || m.Failed != 0 || m.Canceled != 0 {
		t.Fatalf("outcome counters inconsistent: %+v with %d accepted", m, len(accepted))
	}
	if m.Queued != 0 || m.Running != 0 {
		t.Fatalf("gauges nonzero after drain: %+v", m)
	}
	if len(accepted)+rejected != n {
		t.Fatalf("accepted %d + rejected %d != %d", len(accepted), rejected, n)
	}
}

func TestStatusUnknownJob(t *testing.T) {
	s := New(Options{Workers: 1})
	defer drain(t, s)
	if _, err := s.Status("job-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job: %v", err)
	}
	if _, err := s.Result("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown result: %v", err)
	}
	if s.Cancel("nope") {
		t.Fatal("cancel of unknown job reported success")
	}
}

func TestResultNotFinished(t *testing.T) {
	s := New(Options{Workers: 1})
	defer drain(t, s)
	id, err := s.Submit(Request{Config: slowConfig()})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id, StateRunning)
	if _, err := s.Result(id); !errors.Is(err, ErrNotFinished) {
		t.Fatalf("running result: %v", err)
	}
	s.Cancel(id)
}

func TestJobsListing(t *testing.T) {
	s := New(Options{Workers: 2})
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(Request{Config: tinyConfig(10 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, s)
	jobs := s.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(jobs))
	}
	// newest first
	if jobs[0].ID != "job-000003" || jobs[2].ID != "job-000001" {
		t.Fatalf("listing order wrong: %s ... %s", jobs[0].ID, jobs[2].ID)
	}
}

// TestJobsShareTheCores: every job derives its walk workers on its share of
// the cores, GOMAXPROCS over the pool's size. With the default pool a
// 95 232-cell tangshan job walks on one worker, as every job of a full pool
// must, even one whose request asks for eight; alone in a one-worker pool
// it walks on every core.
func TestJobsShareTheCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	sp := &JobSpec{Scenario: "tangshan", Overrides: scenario.Overrides{Nx: 62, Ny: 64, Nz: 24, Steps: 3}}
	for _, tc := range []struct {
		pool, tiles, want int
	}{{0, 0, 1}, {0, 8, 1}, {1, 0, 2}} {
		req, err := sp.Request()
		if err != nil {
			t.Fatal(err)
		}
		req.Config.Tiles = tc.tiles
		s := New(Options{Workers: tc.pool})
		id, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if st, err := s.Wait(context.Background(), id); err != nil || st.State != StateDone {
			t.Fatalf("pool %d: %v, %+v", tc.pool, err, st)
		}
		res, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if d := res.Manifest.Dims; d.Points() != 95232 {
			t.Fatalf("the job's grid is %v", d)
		}
		if res.Manifest.Workers != tc.want {
			t.Errorf("pool of %d, %d tiles asked: the job walked on %d workers, want %d",
				tc.pool, tc.tiles, res.Manifest.Workers, tc.want)
		}
		drain(t, s)
	}
}
