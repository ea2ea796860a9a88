package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestTypedMetricsFeedBothViews: one declaration, one update path, and the
// JSON object and the exposition report the same numbers; a metric declared
// without a key or without a family name is missing from just that view.
func TestTypedMetricsFeedBothViews(t *testing.T) {
	r := NewRegistry()
	done := r.Counter("jobs_done", "swq_jobs_done_total", "Jobs done.")
	folded := r.Counter("members_folded", "", "")
	depth := r.Gauge("jobs_queued", "swq_queue_depth", "Queue depth.")
	hw := r.Gauge("", "swq_queue_high_water", "Deepest queue.")
	rej := r.CounterVec("jobs_rejected", "swq_jobs_rejected_total", "Rejections.", "reason", "queue-full", "budget")
	r.GaugeFunc("swq_workers", "Pool size.", func() float64 { return 4 })
	dwell := r.HistogramVec("swq_state_seconds", "Dwell.", "state", []float64{1, 10}, "queued", "running")

	dwell["running"].Observe(0.5)
	dwell["running"].Observe(20)
	done.Add(2)
	folded.Add(7)
	for _, d := range []int64{1, 1, 1, -1, -1} {
		if v := depth.Add(d); d > 0 {
			hw.RaiseTo(v)
		}
	}
	hw.RaiseTo(2) // lower than the mark: ignored
	rej.Add("budget", 3)
	rej.Add("queue-full", 1)

	wantInts := map[string]int64{"jobs_done": 2, "members_folded": 7, "jobs_queued": 1, "jobs_rejected": 4}
	if got := r.Ints(); !reflect.DeepEqual(got, wantInts) {
		t.Fatalf("JSON view %v, want %v", got, wantInts)
	}
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP swq_jobs_done_total Jobs done.",
		"# TYPE swq_jobs_done_total counter",
		"swq_jobs_done_total 2",
		"# HELP swq_queue_depth Queue depth.",
		"# TYPE swq_queue_depth gauge",
		"swq_queue_depth 1",
		"# HELP swq_queue_high_water Deepest queue.",
		"# TYPE swq_queue_high_water gauge",
		"swq_queue_high_water 3",
		"# HELP swq_jobs_rejected_total Rejections.",
		"# TYPE swq_jobs_rejected_total counter",
		`swq_jobs_rejected_total{reason="budget"} 3`,
		`swq_jobs_rejected_total{reason="queue-full"} 1`,
		"# HELP swq_workers Pool size.",
		"# TYPE swq_workers gauge",
		"swq_workers 4",
		"# HELP swq_state_seconds Dwell.",
		"# TYPE swq_state_seconds histogram",
		`swq_state_seconds_bucket{state="queued",le="1"} 0`,
		`swq_state_seconds_bucket{state="queued",le="10"} 0`,
		`swq_state_seconds_bucket{state="queued",le="+Inf"} 0`,
		`swq_state_seconds_sum{state="queued"} 0`,
		`swq_state_seconds_count{state="queued"} 0`,
		`swq_state_seconds_bucket{state="running",le="1"} 1`,
		`swq_state_seconds_bucket{state="running",le="10"} 1`,
		`swq_state_seconds_bucket{state="running",le="+Inf"} 2`,
		`swq_state_seconds_sum{state="running"} 20.5`,
		`swq_state_seconds_count{state="running"} 2`,
	}, "\n") + "\n"
	if buf.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", buf.String(), want)
	}
	if rej.Total() != 4 || done.Value() != 2 || hw.Value() != 3 {
		t.Fatalf("typed reads: %d %d %d", rej.Total(), done.Value(), hw.Value())
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestDeclaringTwicePanics: a second metric under a JSON key or a family
// name that is already taken is a construction-time bug, whatever its kind;
// so is adding to a label value a family never declared.
func TestDeclaringTwicePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_done", "swq_jobs_done_total", "")
	vec := r.CounterVec("", "swq_faults_total", "", "kind", "stall")
	mustPanic(t, "duplicate JSON key", func() { r.Gauge("jobs_done", "swq_other", "") })
	mustPanic(t, "duplicate family name", func() { r.Counter("other", "swq_jobs_done_total", "") })
	mustPanic(t, "duplicate family name across kinds", func() { r.GaugeFunc("swq_faults_total", "", func() float64 { return 0 }) })
	mustPanic(t, "duplicate histogram", func() { r.Histogram("swq_jobs_done_total", "", nil) })
	mustPanic(t, "undeclared label value", func() { vec.Add("meltdown", 1) })
	hv := r.HistogramVec("swq_state_seconds", "", "state", nil, "queued")
	mustPanic(t, "undeclared histogram label value", func() { hv["limbo"].Observe(1) })
	// metrics that leave a view out do not collide on the empty name
	r.Counter("a", "", "")
	r.Counter("b", "", "")
	r.Gauge("", "swq_c", "")
	r.Gauge("", "swq_d", "")
}

// TestTypedMetricsConcurrent: adds from many goroutines are all counted and
// the high-water mark ends at the true peak (run under -race).
func TestTypedMetricsConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "c_total", "")
	g := r.Gauge("g", "g_depth", "")
	hw := r.Gauge("", "g_high_water", "")
	vec := r.CounterVec("v", "v_total", "", "l", "a", "b")
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(1)
				hw.RaiseTo(g.Add(1))
				vec.Add([]string{"a", "b"}[w%2], 1)
				r.Ints()
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per || g.Value() != workers*per || hw.Value() != workers*per || vec.Total() != workers*per {
		t.Fatalf("c=%d g=%d hw=%d vec=%d, want %d each", c.Value(), g.Value(), hw.Value(), vec.Total(), workers*per)
	}
}
