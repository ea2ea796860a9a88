package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swquake/internal/fd"
	"swquake/internal/service"
)

// TestHealthzBuildInfo checks the enriched liveness payload: status, build
// identity and pool shape, so operators can tell what answered.
func TestHealthzBuildInfo(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{Workers: 2})
	var hz struct {
		Status  string  `json:"status"`
		UptimeS float64 `json:"uptime_s"`
		Build   struct {
			GoVersion  string `json:"go_version"`
			ModulePath string `json:"module_path"`
			KernelPath string `json:"kernel_path"`
		} `json:"build"`
		Workers       int `json:"workers"`
		QueueCapacity int `json:"queue_capacity"`
	}
	if code := doJSON(t, "GET", ts.URL+"/healthz", "", &hz); code != http.StatusOK {
		t.Fatalf("healthz returned %d", code)
	}
	if hz.Status != "healthy" || hz.Workers != 2 || hz.QueueCapacity != 8 {
		t.Fatalf("healthz payload wrong: %+v", hz)
	}
	if hz.Build.GoVersion == "" || hz.Build.KernelPath != fd.KernelPath() {
		t.Fatalf("healthz must carry build info and the kernel path %q: %+v", fd.KernelPath(), hz)
	}
}

// TestMetricsPrometheusFormat runs a job through the API and checks the
// Prometheus exposition: content type, the swquake_* families, and that the
// default JSON shape is untouched.
func TestMetricsPrometheusFormat(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{Workers: 1})
	st, code := submit(t, ts.URL, `{"scenario":"quickstart","overrides":{"steps":20}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	pollUntil(t, ts.URL, st.ID, func(s service.Status) bool { return s.State.Terminal() })

	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("prometheus content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# HELP swquake_uptime_seconds",
		"# TYPE swquake_jobs_done_total counter",
		"swquake_jobs_done_total 1",
		"swquake_queue_capacity 4",
		"swquake_job_duration_seconds_count 1",
		`swquake_stage_seconds_total{stage="velocity"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}

	// the JSON default must be unchanged
	if m := getMetrics(t, ts.URL); m["jobs_done"] != 1 {
		t.Fatalf("default JSON metrics broken: %+v", m)
	}
}

// TestE2ETraceFile is the -trace acceptance test: boot the real daemon with
// a trace directory, run a job, shut down gracefully, and verify the trace
// file is a strict JSON array of Chrome trace events with the job's queued
// and running spans and the engine's per-step spans — the shape Perfetto
// loads directly.
func TestE2ETraceFile(t *testing.T) {
	dir := t.TempDir()
	d := startDaemon(t, "-workers", "1", "-trace", dir)

	var st service.Status
	if code := doJSON(t, "POST", d.base+"/v1/jobs",
		`{"scenario":"quickstart","overrides":{"steps":15}}`, &st); code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	pollUntil(t, d.base, st.ID, func(s service.Status) bool { return s.State.Terminal() })
	d.stop(t) // graceful: the deferred tracer.Close seals the JSON array

	data, err := os.ReadFile(filepath.Join(dir, "quaked-trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace file is not a valid JSON array: %v", err)
	}
	counts := map[string]int{}
	for _, ev := range events {
		name, _ := ev["name"].(string)
		counts[name]++
		if _, ok := ev["ph"].(string); !ok {
			t.Fatalf("event missing ph: %v", ev)
		}
	}
	if counts["queued"] != 1 || counts["running"] != 1 {
		t.Errorf("job spans wrong: %v", counts)
	}
	if counts["step"] != 15 {
		t.Errorf("engine step spans: got %d, want 15", counts["step"])
	}
	if counts["process_name"] == 0 {
		t.Errorf("process metadata missing: %v", counts)
	}
}
