package service

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"swquake/internal/telemetry"
)

// syncBuffer makes a bytes.Buffer safe for concurrent log/trace writers.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestJobLifecycleLogging captures the structured log stream of one job
// from submission to completion: every lifecycle line must be valid JSON
// and carry the job_id, and the submitted/started/done events must appear.
func TestJobLifecycleLogging(t *testing.T) {
	var out syncBuffer
	logger, err := telemetry.NewLogger(&out, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 1, Logger: logger})
	id, err := s.Submit(Request{Config: tinyConfig(10)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id, StateDone)
	drain(t, s)

	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", line, err)
		}
		msg, _ := rec["msg"].(string)
		if strings.HasPrefix(msg, "job ") && rec["job_id"] != id {
			t.Errorf("job event %q missing job_id: %v", msg, rec)
		}
		seen[msg] = true
	}
	for _, want := range []string{"job submitted", "job started", "job done", "service draining"} {
		if !seen[want] {
			t.Errorf("lifecycle event %q not logged (saw %v)", want, seen)
		}
	}
	// the started line carries the attempt; the done line the step count
	if !strings.Contains(out.String(), `"attempt":1`) {
		t.Error("job started line must carry the attempt number")
	}
}

// TestServicePrometheus runs a job to completion and checks the rendered
// exposition: lifecycle counters, queue gauges with the high-water mark,
// the job-latency histogram, and per-stage seconds as a labeled family.
func TestServicePrometheus(t *testing.T) {
	s := New(Options{Workers: 1})
	id, err := s.Submit(Request{Config: tinyConfig(10)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id, StateDone)
	drain(t, s)

	if m := metricsOf(s); m.QueueHighWater < 1 || m.QueueDepth != 0 {
		t.Fatalf("queue accounting: depth=%d high-water=%d, want 0 and >=1",
			m.QueueDepth, m.QueueHighWater)
	}

	var buf bytes.Buffer
	if err := s.Registry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE swquake_jobs_done_total counter",
		"swquake_jobs_done_total 1",
		"swquake_queue_depth 0",
		"swquake_queue_high_water 1",
		"# TYPE swquake_job_duration_seconds histogram",
		"swquake_job_duration_seconds_count 1",
		`swquake_job_duration_seconds_bucket{le="+Inf"} 1`,
		`swquake_stage_seconds_total{stage="velocity"}`,
		`swquake_stage_observations_total{stage="stress"} 10`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
}

// TestTraceConcurrentJobs drives several jobs through the pool at once with
// a shared tracer and checks the trace stays a valid JSON array whose spans
// land on per-job tracks: a queued and a running span per job, plus the
// engine's per-step spans.
func TestTraceConcurrentJobs(t *testing.T) {
	var out syncBuffer
	tr := telemetry.NewTracer(&out)
	s := New(Options{Workers: 3, Tracer: tr})
	const njobs = 5
	steps := 10
	ids := make([]string, njobs)
	for i := range ids {
		cfg := tinyConfig(steps)
		cfg.Dx = 200 + float64(i) // distinct configs: no cache hits
		id, err := s.Submit(Request{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for _, id := range ids {
		waitState(t, s, id, StateDone)
	}
	drain(t, s)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	var events []map[string]any
	if err := json.Unmarshal([]byte(out.String()), &events); err != nil {
		t.Fatalf("trace is not a valid JSON array: %v", err)
	}
	type track struct{ queued, running, steps int }
	tracks := map[float64]*track{}
	for _, ev := range events {
		tid, _ := ev["tid"].(float64)
		tk := tracks[tid]
		if tk == nil {
			tk = &track{}
			tracks[tid] = tk
		}
		switch ev["name"] {
		case "queued":
			tk.queued++
		case "running":
			tk.running++
		case "step":
			tk.steps++
		}
	}
	for _, id := range ids {
		tk := tracks[float64(jobSeq(id))]
		if tk == nil {
			t.Fatalf("no trace track for %s", id)
		}
		if tk.queued != 1 || tk.running != 1 || tk.steps != steps {
			t.Errorf("track %s: queued=%d running=%d steps=%d, want 1/1/%d",
				id, tk.queued, tk.running, tk.steps, steps)
		}
	}
}
