package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"swquake/internal/ensemble"
	"swquake/internal/service"
)

func newTestServer(t testing.TB, opts service.Options) (*httptest.Server, *service.Service) {
	t.Helper()
	svc := service.New(opts)
	mgr, err := ensemble.Open(ensemble.Options{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(svc, mgr))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		mgr.Drain(ctx)
		svc.Drain(ctx)
	})
	return ts, svc
}

// doJSON performs a request and decodes the JSON response into out.
func doJSON(t testing.TB, method, url, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// submit posts a job and returns its initial status.
func submit(t testing.TB, base, body string) (service.Status, int) {
	t.Helper()
	var st service.Status
	code := doJSON(t, "POST", base+"/v1/jobs", body, &st)
	return st, code
}

// pollUntil polls the job's status until pred holds or the deadline passes.
func pollUntil(t testing.TB, base, id string, pred func(service.Status) bool) service.Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st service.Status
		if code := doJSON(t, "GET", base+"/v1/jobs/"+id, "", &st); code != http.StatusOK {
			t.Fatalf("status poll returned %d", code)
		}
		if pred(st) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached the wanted condition", id)
	return service.Status{}
}

// slowJob is a submission that runs long enough to cancel mid-flight.
const slowJob = `{"scenario":"tangshan","overrides":{"steps":100000}}`

func getMetrics(t *testing.T, base string) map[string]int64 {
	t.Helper()
	var m struct {
		Service map[string]int64 `json:"service"`
	}
	if code := doJSON(t, "GET", base+"/metrics", "", &m); code != http.StatusOK {
		t.Fatalf("metrics returned %d", code)
	}
	return m.Service
}

func TestHTTPSubmitPollResult(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{Workers: 2})
	st, code := submit(t, ts.URL, `{"scenario":"quickstart","overrides":{"steps":30}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	if st.ID == "" || st.State.Terminal() && st.State != service.StateDone {
		t.Fatalf("initial status %+v", st)
	}
	final := pollUntil(t, ts.URL, st.ID, func(s service.Status) bool { return s.State.Terminal() })
	if final.State != service.StateDone {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	if final.StepsDone != 30 {
		t.Fatalf("steps done %d, want 30", final.StepsDone)
	}

	var res service.Result
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+st.ID+"/result", "", &res); code != http.StatusOK {
		t.Fatalf("result returned %d", code)
	}
	if res.Manifest.Steps != 30 || res.Manifest.Dims.Nx != 32 {
		t.Fatalf("manifest wrong: %+v", res.Manifest)
	}
	if len(res.Traces) != 1 || res.Traces[0].Name != "station-0" || len(res.Traces[0].U) != 30 {
		t.Fatalf("traces wrong: %d traces", len(res.Traces))
	}

	// healthz
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	m := getMetrics(t, ts.URL)
	if m["jobs_done"] != 1 || m["jobs_submitted"] != 1 || m["steps_done"] != 30 {
		t.Fatalf("metrics inconsistent: %+v", m)
	}
}

func TestHTTPCancelMidRun(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{Workers: 1})
	st, code := submit(t, ts.URL, slowJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	pollUntil(t, ts.URL, st.ID, func(s service.Status) bool {
		return s.State == service.StateRunning && s.StepsDone > 0
	})
	// a running job reports how fast the medium moves: 0 until the source's
	// first stresses reach a velocity
	pollUntil(t, ts.URL, st.ID, func(s service.Status) bool { return s.MaxVelocity > 0 })
	var raw map[string]any
	doJSON(t, "GET", ts.URL+"/v1/jobs/"+st.ID, "", &raw)
	if v, ok := raw["max_velocity_m_s"].(float64); raw["state"] != "running" || !ok || !(v > 0) {
		t.Fatalf("running job's status %v, want a positive max_velocity_m_s", raw)
	}
	var canceled service.Status
	if code := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+st.ID, "", &canceled); code != http.StatusOK {
		t.Fatalf("cancel returned %d", code)
	}
	final := pollUntil(t, ts.URL, st.ID, func(s service.Status) bool { return s.State.Terminal() })
	if final.State != service.StateCanceled {
		t.Fatalf("job finished %s after cancel", final.State)
	}
	if final.StepsDone >= final.StepsTotal {
		t.Fatalf("canceled job ran to completion: %d/%d", final.StepsDone, final.StepsTotal)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+st.ID+"/result", "", &map[string]string{}); code != http.StatusConflict {
		t.Fatalf("result of canceled job returned %d, want 409", code)
	}
	if m := getMetrics(t, ts.URL); m["jobs_canceled"] != 1 {
		t.Fatalf("canceled counter: %+v", m)
	}
}

func TestHTTPQueueBackpressure429(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{Workers: 1})
	blocker, code := submit(t, ts.URL, slowJob)
	if code != http.StatusAccepted {
		t.Fatalf("blocker submit returned %d", code)
	}
	pollUntil(t, ts.URL, blocker.ID, func(s service.Status) bool { return s.State == service.StateRunning })

	for steps := 10; steps < 14; steps++ { // the queue's four slots
		if _, code := submit(t, ts.URL, quickBody(steps)); code != http.StatusAccepted {
			t.Fatalf("queued submit returned %d", code)
		}
	}
	var errBody map[string]string
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs",
		strings.NewReader(quickBody(14)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit returned %d, want 429", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&errBody); err != nil || errBody["error"] == "" {
		t.Fatalf("429 body: %v %v", errBody, err)
	}
	doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+blocker.ID, "", nil)
}

func TestHTTPCacheHitOnResubmit(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{Workers: 2})
	body := `{"scenario":"quickstart","overrides":{"steps":25}}`
	first, _ := submit(t, ts.URL, body)
	pollUntil(t, ts.URL, first.ID, func(s service.Status) bool { return s.State == service.StateDone })

	second, code := submit(t, ts.URL, body)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit returned %d", code)
	}
	if !second.CacheHit || second.State != service.StateDone {
		t.Fatalf("resubmission not served from cache: %+v", second)
	}
	var resA, resB service.Result
	doJSON(t, "GET", ts.URL+"/v1/jobs/"+first.ID+"/result", "", &resA)
	doJSON(t, "GET", ts.URL+"/v1/jobs/"+second.ID+"/result", "", &resB)
	if resA.Manifest.SurfacePGV != resB.Manifest.SurfacePGV || len(resA.Traces) != len(resB.Traces) {
		t.Fatal("cached result differs from the original")
	}
	m := getMetrics(t, ts.URL)
	if m["cache_hits"] != 1 || m["jobs_done"] != 2 {
		t.Fatalf("cache metrics: %+v", m)
	}
	// the cached job must not have re-run any steps
	if m["steps_done"] != 25 {
		t.Fatalf("steps_done %d, want 25 (cache hit must not re-solve)", m["steps_done"])
	}
}

func TestHTTPParallelJobSubmission(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{Workers: 1})
	st, code := submit(t, ts.URL, `{"scenario":"quickstart","overrides":{"steps":20},"mx":2,"my":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("parallel submit returned %d", code)
	}
	final := pollUntil(t, ts.URL, st.ID, func(s service.Status) bool { return s.State.Terminal() })
	if final.State != service.StateDone {
		t.Fatalf("parallel job finished %s: %s", final.State, final.Error)
	}
}

func TestHTTPJobListing(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{Workers: 2})
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"scenario":"quickstart","overrides":{"steps":%d}}`, 10+i)
		if _, code := submit(t, ts.URL, body); code != http.StatusAccepted {
			t.Fatalf("submit %d rejected", i)
		}
	}
	var jobs []service.Status
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs", "", &jobs); code != http.StatusOK {
		t.Fatalf("list returned %d", code)
	}
	if len(jobs) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(jobs))
	}
}

func TestHTTPErrors(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{Workers: 1})
	cases := []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/jobs", `{"scenario":"loma-prieta"}`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `{bad json`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"scenario":"quickstart","overrides":{"nx":10}}`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"scenario":"quickstart","unknown_field":1}`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"scenario":"quickstart","overrides":{"steps":20},"mx":7}`, http.StatusBadRequest},
		{"GET", "/v1/jobs/job-404404", "", http.StatusNotFound},
		{"GET", "/v1/jobs/job-404404/result", "", http.StatusNotFound},
		{"DELETE", "/v1/jobs/job-404404", "", http.StatusNotFound},
	}
	for _, c := range cases {
		var body map[string]any
		if code := doJSON(t, c.method, ts.URL+c.path, c.body, &body); code != c.want {
			t.Errorf("%s %s -> %d, want %d", c.method, c.path, code, c.want)
		} else if body["error"] == "" {
			t.Errorf("%s %s: error body missing", c.method, c.path)
		}
	}
}

// TestHTTPRejectsUnboundedTiles: the daemon chooses a job's walk workers
// from its share of the cores — each a goroutine, which admission does not
// price — so a job asking for any tile count is a 400 with an error body
// naming the field, never a queued job. The small count goes first, so a
// daemon that took the field fails the test on a job it can run, before
// being asked for ten million goroutines.
func TestHTTPRejectsUnboundedTiles(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{Workers: 1})
	for _, tiles := range []int{2, 10_000_000} {
		var body map[string]any
		req := fmt.Sprintf(`{"scenario":"quickstart","overrides":{"steps":1,"tiles":%d}}`, tiles)
		if code := doJSON(t, "POST", ts.URL+"/v1/jobs", req, &body); code != http.StatusBadRequest {
			t.Fatalf("%d tiles -> %d, want 400", tiles, code)
		}
		if msg, _ := body["error"].(string); !strings.Contains(msg, "tiles") {
			t.Fatalf("%d tiles: error body %v does not name the tiles", tiles, body)
		}
	}
}

// TestHTTPRejectsOverlap: the daemon overlaps every ranked job's halo
// exchange with its interior, so a job or a campaign whose overrides name
// overlap — in a campaign's base or in one of its variations — is a 400
// with an error body naming the field, never a queued job.
func TestHTTPRejectsOverlap(t *testing.T) {
	ts, svc := newTestServer(t, service.Options{Workers: 1})
	for _, c := range []struct{ path, body string }{
		{"/v1/jobs", `{"scenario":"quickstart","overrides":{"steps":1,"overlap":true},"mx":2,"my":1}`},
		{"/v1/jobs", `{"scenario":"quickstart","overrides":{"steps":1,"overlap":false}}`},
		{"/v1/campaigns", `{"scenario":"quickstart","base":{"steps":1,"overlap":true},"mx":2,"my":1}`},
		{"/v1/campaigns", `{"scenario":"quickstart","base":{"steps":1},"variations":[{"qs":30},{"overlap":true}]}`},
	} {
		var body map[string]any
		if code := doJSON(t, "POST", ts.URL+c.path, c.body, &body); code != http.StatusBadRequest {
			t.Fatalf("POST %s %s -> %d, want 400", c.path, c.body, code)
		}
		if msg, _ := body["error"].(string); !strings.Contains(msg, "overlap") {
			t.Fatalf("POST %s %s: error body %v does not name the overlap", c.path, c.body, body)
		}
	}
	if n := svc.Registry().Ints()["jobs_submitted"]; n != 0 {
		t.Fatalf("%d jobs submitted, want none", n)
	}
}

// TestHTTPResultWhileRunning covers the 409 not-finished path.
func TestHTTPResultWhileRunning(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{Workers: 1})
	st, _ := submit(t, ts.URL, slowJob)
	pollUntil(t, ts.URL, st.ID, func(s service.Status) bool { return s.State == service.StateRunning })
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+st.ID+"/result", "", &map[string]string{}); code != http.StatusConflict {
		t.Fatalf("result while running returned %d, want 409", code)
	}
	doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+st.ID, "", nil)
}
