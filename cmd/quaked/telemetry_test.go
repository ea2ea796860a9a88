package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"swquake/internal/cpu"
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
	if hz.Build.GoVersion == "" || hz.Build.KernelPath != cpu.KernelPath() {
		t.Fatalf("healthz must carry build info and the kernel path %q: %+v", cpu.KernelPath(), hz)
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

// metricsInventory lists what a daemon exposes, one line per fact: the keys
// of the "service" and "campaigns" JSON objects, and each Prometheus
// family's HELP and TYPE lines and its series (sample lines, value cut off).
func metricsInventory(t *testing.T, base string) []string {
	t.Helper()
	var doc map[string]json.RawMessage
	if code := doJSON(t, "GET", base+"/metrics", "", &doc); code != http.StatusOK {
		t.Fatalf("/metrics returned %d", code)
	}
	if len(doc) != 3 || doc["uptime_s"] == nil {
		t.Fatalf("/metrics top level: %v", doc)
	}
	var lines []string
	for _, section := range []string{"service", "campaigns"} {
		var counters map[string]int64 // every value must decode as an integer
		if err := json.Unmarshal(doc[section], &counters); err != nil {
			t.Fatalf("%s: %v in %s", section, err, doc[section])
		}
		for key := range counters {
			lines = append(lines, "json "+section+" "+key)
		}
	}
	resp, err := http.Get(base + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = "sample " + line[:strings.LastIndexByte(line, ' ')]
		}
		lines = append(lines, line)
	}
	return lines
}

// TestMetricsInventoryMatchesParent: testdata/metrics-f57a6ee.txt is
// metricsInventory of a freshly booted daemon at commit f57a6ee, where every
// metric was spelled three times (expvar key, atomics, closure registration).
// Nothing in it may be renamed, retyped, reworded or dropped by the single
// registration; what was added since is listed here, line by line.
func TestMetricsInventoryMatchesParent(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "metrics-f57a6ee.txt"))
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := newTestServer(t, service.Options{Workers: 1})
	now := map[string]bool{}
	for _, line := range metricsInventory(t, ts.URL) {
		if now[line] {
			t.Errorf("exposed twice: %s", line)
		}
		now[line] = true
	}
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if !now[line] {
			t.Errorf("the parent had, this daemon lacks: %s", line)
		}
		delete(now, line)
	}
	added := []string{
		"# HELP swquake_job_state_seconds Time jobs spent in a state, observed as they left it.",
		"# TYPE swquake_job_state_seconds histogram",
	}
	for _, state := range []string{"queued", "running", "retrying"} {
		for _, le := range append(strings.Fields("0.005 0.01 0.025 0.05 0.1 0.25 0.5 1 2.5 5 10 30 60 120"), "+Inf") {
			added = append(added, fmt.Sprintf(`sample swquake_job_state_seconds_bucket{state="%s",le="%s"}`, state, le))
		}
		added = append(added, fmt.Sprintf(`sample swquake_job_state_seconds_sum{state="%s"}`, state),
			fmt.Sprintf(`sample swquake_job_state_seconds_count{state="%s"}`, state))
	}
	for _, line := range append(added,
		"json service journal_errors",
		"# HELP swquake_journal_errors_total Journal appends that failed: events the daemon acted on without a durable record.",
		"# TYPE swquake_journal_errors_total counter",
		"sample swquake_journal_errors_total",
		"json campaigns journal_errors",
		"# HELP swquake_campaign_journal_errors_total Campaign journal appends that failed: events the manager acted on without a durable record.",
		"# TYPE swquake_campaign_journal_errors_total counter",
		"sample swquake_campaign_journal_errors_total",
		// the fault kinds are declared up front like the rejection reasons, so
		// their series show at zero from boot (the parent grew them on first use)
		`sample swquake_engine_faults_total{kind="halo-corrupt"}`,
		`sample swquake_engine_faults_total{kind="panic"}`,
		`sample swquake_engine_faults_total{kind="stall"}`,
	) {
		if !now[line] {
			t.Errorf("expected addition missing: %s", line)
		}
		delete(now, line)
	}
	for line := range now {
		t.Errorf("not in the parent and not a listed addition: %s", line)
	}
}

// TestDebugVarsServesTheJSONView: on -debug-addr, /debug/vars still carries
// "quaked" and "quaked.campaigns" — now the registries' JSON views published
// through expvar — with live values.
func TestDebugVarsServesTheJSONView(t *testing.T) {
	d := startDaemon(t, "-workers", "1", "-debug-addr", "127.0.0.1:0")
	var debugBase string
	debugRE := regexp.MustCompile(`msg="debug server listening" addr=(\S+)`)
	for _, line := range d.bootLogs {
		if m := debugRE.FindStringSubmatch(line); m != nil {
			debugBase = "http://" + m[1]
		}
	}
	if debugBase == "" {
		t.Fatalf("no debug listener in the boot log:\n%s", strings.Join(d.bootLogs, "\n"))
	}
	var st service.Status
	if code := doJSON(t, "POST", d.base+"/v1/jobs",
		`{"scenario":"quickstart","overrides":{"steps":5}}`, &st); code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	pollUntil(t, d.base, st.ID, func(s service.Status) bool { return s.State.Terminal() })
	var vars struct {
		Service   map[string]int64 `json:"quaked"`
		Campaigns map[string]int64 `json:"quaked.campaigns"`
	}
	if code := doJSON(t, "GET", debugBase+"/debug/vars", "", &vars); code != http.StatusOK {
		t.Fatalf("/debug/vars returned %d", code)
	}
	if vars.Service["jobs_done"] != 1 || len(vars.Service) != len(getMetrics(t, d.base)) {
		t.Errorf("quaked: %v", vars.Service)
	}
	if n, ok := vars.Campaigns["campaigns_created"]; !ok || n != 0 {
		t.Errorf("quaked.campaigns: %v", vars.Campaigns)
	}
}
