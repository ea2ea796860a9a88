package service

import (
	"context"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"swquake/internal/admission"
	"swquake/internal/faultinject"
	"swquake/internal/grid"
)

// TestViewsAgree drives one job through every counted outcome — done (with
// an engine fault healed in-run), served from cache, canceled while queued,
// canceled while running, failed by a worker panic that trips the breaker,
// and rejected once for each admission reason — and checks that the three
// readers of the one registration report the same numbers: the JSON view,
// the Prometheus view and the counters themselves (metricsOf; Metrics()
// carries four of them).
func TestViewsAgree(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	budget := 2 * validatedCost(t, slowConfig(), 1, 1).Bytes
	s, _ := openOnFake(t, Options{
		Workers: 1, QueueSize: 1, MemBudget: budget,
		SubmitRate:       3.5, // a bucket of seven tokens on a clock that never refills it: seven submissions reach the gates behind the limiter
		BreakerThreshold: 1, BreakerCooldown: time.Hour,
		HaloCRC: true, EngineRetries: 3,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	submit := func(req Request, wantErr error) string {
		t.Helper()
		id, err := s.Submit(req)
		if !errors.Is(err, wantErr) {
			t.Fatalf("submit: %v, want %v", err, wantErr)
		}
		return id
	}

	// done, after one halo corruption the engine heals in-run
	faultinject.Enable(faultinject.HaloCorrupt, faultinject.Fault{Times: 1})
	healed := Request{Config: tinyConfig(30), MX: 2, MY: 1}
	if st, err := s.Wait(ctx, submit(healed, nil)); err != nil || st.State != StateDone {
		t.Fatalf("healed job: %+v, %v", st, err)
	}
	submit(healed, nil) // the same again: served from the cache, no token spent

	running := submit(Request{Config: slowConfig()}, nil)
	waitState(t, s, running, StateRunning)
	queued := submit(Request{Config: tinyConfig(11)}, nil)
	submit(Request{Config: tinyConfig(12)}, ErrQueueFull)
	huge := slowConfig()
	huge.Dims = grid.Dims{Nx: 512, Ny: 512, Nz: 256}
	submit(Request{Config: huge}, admission.ErrNeverFits)
	if !s.Cancel(queued) || !s.Cancel(running) {
		t.Fatal("cancel: unknown job")
	}
	if st, err := s.Wait(ctx, running); err != nil || st.State != StateCanceled {
		t.Fatalf("canceled job: %+v, %v", st, err)
	}

	faultinject.Enable(faultinject.WorkerPanic, faultinject.Fault{Times: 1})
	if st, err := s.Wait(ctx, submit(Request{Config: tinyConfig(13)}, nil)); err != nil || st.State != StateFailed {
		t.Fatalf("panicking job: %+v, %v", st, err)
	}
	submit(Request{Config: tinyConfig(14)}, admission.ErrShedding)    // the breaker is open: token seven
	submit(Request{Config: tinyConfig(15)}, admission.ErrRateLimited) // the bucket is empty
	drain(t, s)
	submit(Request{Config: tinyConfig(16)}, ErrClosed)

	want := map[string]int64{
		"jobs_submitted": 5, "jobs_done": 2, "jobs_canceled": 2, "jobs_failed": 1,
		"jobs_retried": 0, "jobs_recovered": 0, "jobs_queued": 0, "jobs_running": 0,
		"cache_hits": 1, "cache_misses": 4, "jobs_rejected": 5,
		"worker_panics": 1, "breaker_trips": 1, "progress_stalls": 0,
		"engine_faults": 1, "engine_recoveries": 1,
		"journal_events": 0, "journal_errors": 0, "checkpoints_saved": 0,
	}
	ints := s.Registry().Ints()
	for key, n := range want {
		if ints[key] != n {
			t.Errorf("JSON view: %s = %d, want %d", key, ints[key], n)
		}
	}
	if ints["steps_done"] < 30 || ints["halo_bytes"] <= 0 {
		t.Errorf("JSON view: steps_done %d, halo_bytes %d", ints["steps_done"], ints["halo_bytes"])
	}

	// the counter behind each JSON key
	m := metricsOf(s)
	fields := map[string]int64{
		"jobs_submitted": m.Submitted, "jobs_queued": m.Queued, "jobs_running": m.Running,
		"jobs_done": m.Done, "jobs_failed": m.Failed, "jobs_canceled": m.Canceled,
		"jobs_retried": m.Retried, "jobs_recovered": m.Recovered, "worker_panics": m.WorkerPanics,
		"jobs_rejected": m.Rejected, "progress_stalls": m.ProgressStalls, "breaker_trips": m.BreakerTrips,
		"journal_events": m.JournalEvents, "journal_errors": m.JournalErrors,
		"checkpoints_saved": m.CheckpointsSaved, "cache_hits": m.CacheHits, "cache_misses": m.CacheMisses,
		"steps_done": m.StepsDone, "engine_faults": m.EngineFaults, "engine_recoveries": m.EngineRecoveries,
	}
	if m.QueueDepth != ints["jobs_queued"] || m.QueueHighWater != 1 {
		t.Errorf("counters: queue depth %d, high water %d", m.QueueDepth, m.QueueHighWater)
	}
	if pm := s.Metrics(); pm != (Metrics{Recovered: m.Recovered, JournalEvents: m.JournalEvents,
		CheckpointsSaved: m.CheckpointsSaved, CacheHits: m.CacheHits}) {
		t.Errorf("Metrics() %+v disagrees with the counters %+v", pm, m)
	}
	delete(ints, "halo_bytes") // the one key the struct does not carry
	if !reflect.DeepEqual(fields, ints) {
		t.Errorf("the counters and the JSON view differ:\n%v\n%v", fields, ints)
	}

	// the family of each JSON key, sample by sample
	var expo strings.Builder
	if err := s.Registry().WriteProm(&expo); err != nil {
		t.Fatal(err)
	}
	samples := map[string]int64{}
	for _, line := range strings.Split(expo.String(), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && line[0] != '#' {
			v, err := strconv.ParseFloat(line[i+1:], 64) // sampled gauges print as floats: 8.6e+06
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			samples[line[:i]] = int64(v)
		}
	}
	families := map[string]string{
		"jobs_submitted": "swquake_jobs_submitted_total", "jobs_done": "swquake_jobs_done_total",
		"jobs_failed": "swquake_jobs_failed_total", "jobs_canceled": "swquake_jobs_canceled_total",
		"jobs_retried": "swquake_jobs_retried_total", "jobs_recovered": "swquake_jobs_recovered_total",
		"jobs_queued": "swquake_queue_depth", "jobs_running": "swquake_jobs_running",
		"worker_panics": "swquake_worker_panics_total", "engine_recoveries": "swquake_engine_recoveries_total",
		"journal_events": "swquake_journal_events_total", "journal_errors": "swquake_journal_errors_total",
		"checkpoints_saved": "swquake_checkpoints_saved_total", "cache_hits": "swquake_cache_hits_total",
		"cache_misses": "swquake_cache_misses_total", "steps_done": "swquake_steps_total",
		"progress_stalls": "swquake_progress_stalls_total", "breaker_trips": "swquake_breaker_trips_total",
	}
	for key, family := range families {
		if v, ok := samples[family]; !ok || v != ints[key] {
			t.Errorf("exposition: %s = %d (present %v), JSON %s = %d", family, v, ok, key, ints[key])
		}
	}
	for sample, n := range map[string]int64{
		`swquake_jobs_rejected_total{reason="queue-full"}`: 1, `swquake_jobs_rejected_total{reason="budget"}`: 1,
		`swquake_jobs_rejected_total{reason="breaker"}`: 1, `swquake_jobs_rejected_total{reason="rate-limit"}`: 1,
		`swquake_jobs_rejected_total{reason="draining"}`:   1,
		`swquake_engine_faults_total{kind="halo-corrupt"}`: 1, `swquake_engine_faults_total{kind="stall"}`: 0,
		`swquake_engine_faults_total{kind="panic"}`: 0,
		"swquake_queue_high_water":                  1, "swquake_breaker_open": 1, "swquake_mem_budget_bytes": budget,
		"swquake_job_duration_seconds_count": 3, // healed, canceled while running, failed: the three that reached a worker
		// the same three left running; they and the job canceled in the queue left queued
		`swquake_job_state_seconds_count{state="queued"}`: 4, `swquake_job_state_seconds_count{state="running"}`: 3,
		`swquake_job_state_seconds_count{state="retrying"}`: 0, `swquake_job_state_seconds_bucket{state="queued",le="+Inf"}`: 4,
	} {
		if v, ok := samples[sample]; !ok || v != n {
			t.Errorf("exposition: %s = %d (present %v), want %d", sample, v, ok, n)
		}
	}
}
