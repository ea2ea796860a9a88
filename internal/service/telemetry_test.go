package service

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"swquake/internal/core"
	"swquake/internal/faultinject"
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

// TestTraceStepSpansSurviveARewind: a traced 2x1 job whose engine heals one
// halo corruption in-run draws the fault as one engine_fault instant on the
// job's track, and its step spans as a sequence that never runs backwards:
// each span takes time, starts where the span before it ended, and the
// spans after the fault start after it — the rewound attempt's clock begins
// again at zero, and its spans with it.
func TestTraceStepSpansSurviveARewind(t *testing.T) {
	defer faultinject.Reset()
	var out syncBuffer
	tr := telemetry.NewTracer(&out)
	s := New(Options{Workers: 1, EngineRetries: 3, Tracer: tr})
	// 2x1 grid: 4 halo/corrupt evaluations per step; fire once mid-run
	faultinject.Enable(faultinject.HaloCorrupt, faultinject.Fault{Times: 1, Skip: 4 * 10})
	const steps = 30
	id, err := s.Submit(Request{Config: tinyConfig(steps), MX: 2, MY: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id, StateDone)
	drain(t, s)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	var events []map[string]any
	if err := json.Unmarshal([]byte(out.String()), &events); err != nil {
		t.Fatalf("trace is not a valid JSON array: %v", err)
	}
	const slack = 1e-3 // µs: the trace clock is a float
	floor, faults, spans, last := 0.0, 0, 0, 0.0
	for _, ev := range events {
		if ev["tid"] != float64(jobSeq(id)) {
			continue
		}
		ts, _ := ev["ts"].(float64)
		args, _ := ev["args"].(map[string]any)
		switch ev["name"] {
		case "engine_fault":
			faults++
			if args["recovered"] != true || args["kind"] != "halo-corrupt" {
				t.Fatalf("engine_fault instant %v", ev)
			}
			floor = ts
		case "step":
			spans++
			dur, _ := ev["dur"].(float64)
			if dur <= 0 || ts < floor-slack {
				t.Fatalf("step span %v (span %d) runs backwards: starts at %g µs, the sequence is at %g µs", args, spans, ts, floor)
			}
			floor, last = ts+dur, args["step"].(float64)
		}
	}
	if faults != 1 || spans <= steps || last != steps {
		t.Fatalf("%d engine_fault instants and %d step spans ending at step %g, want 1 and more than %d ending at %d",
			faults, spans, last, steps, steps)
	}
}

// TestUntracedObserverAllocatesNothing: a daemon without a tracer pays no
// allocation per step for the spans it does not draw.
func TestUntracedObserverAllocatesNothing(t *testing.T) {
	s := New(Options{Workers: 1})
	defer drain(t, s)
	j := &job{id: "job-000001", req: Request{Config: tinyConfig(10)}, ctx: context.Background()}
	_, cfg, release := s.prepare(j, "")
	defer release()
	ev := core.StepEvent{Step: 1, Total: 10, Wall: time.Millisecond}
	if n := testing.AllocsPerRun(100, func() { cfg.Observer(ev) }); n != 0 {
		t.Fatalf("the untraced observer allocates %g times a step", n)
	}
}
