package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"swquake/internal/service"
)

// fuzzServer is a daemon under a 64 MiB memory budget whose one worker is
// held by a long job: a fuzzed body that is accepted only ever queues, and
// the target cancels it at once. The decoders, scenario.Build, validation
// and admission see every input; no fuzz-shaped simulation ever runs.
func fuzzServer(f *testing.F) http.Handler {
	ts, svc := newTestServer(f, service.Options{Workers: 1, MemBudget: 64 << 20})
	st, code := submit(f, ts.URL, slowJob)
	if code != http.StatusAccepted {
		f.Fatalf("the job that holds the worker answered %d", code)
	}
	pollUntil(f, ts.URL, st.ID, func(s service.Status) bool { return s.State == service.StateRunning })
	f.Cleanup(func() { svc.Cancel(st.ID) })
	return ts.Config.Handler
}

// fuzzPost sends body to path and holds the answer to the API's contract for
// a body it did not choose: 202, or a 4xx that says why not. Whatever was
// accepted is deleted at once.
func fuzzPost(t *testing.T, h http.Handler, path, body string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
	switch {
	case rec.Code == http.StatusAccepted:
		var st struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.ID == "" {
			t.Fatalf("POST %s %q: 202 without an id: %s", path, body, rec.Body)
		}
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("DELETE", path+"/"+st.ID, nil))
	case rec.Code < 400 || rec.Code > 499:
		t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
	}
}

func FuzzJobSubmit(f *testing.F) {
	for _, seed := range []string{
		`{"scenario":"quickstart"}`,
		slowJob,
		`{"scenario":"tangshan","overrides":{"nx":32,"ny":32,"nz":16,"dx":400,"steps":5,"nonlinear":true,"qs":50,"tiles":2,"overlap":true},"mx":2,"my":1,"timeout_s":1.5,"class":"batch"}`,
		`{"scenario":"tangshan","overrides":{"het_amplitude":0.05,"het_corr_len":2000,"seed":7,"q_vs":true}}`,
		`{"scenario":"tangshan","overrides":{"nx":4096,"ny":4096,"nz":2048,"het_amplitude":0.05}}`,
		`{"scenario":"tangshan","overrides":{"het_amplitude":0.05,"het_corr_len":1e-9}}`,
		`{"scenario":"quickstart","overrides":{"nx":64}}`,
		`{"scenario":"nowhere"}`, `{"scenario":"quickstart","bogus":1}`, `{"scenario":7}`, `{"scenario":"quickstart"`, ``, `null`, `[]`,
	} {
		f.Add(seed)
	}
	h := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body string) { fuzzPost(t, h, "/v1/jobs", body) })
}

func FuzzCampaignSpec(f *testing.F) {
	for _, seed := range []string{
		`{"scenario":"quickstart","base":{"steps":40},"seeds":{"base":1,"count":3,"het_amplitude":0.05},"max_concurrent":3}`,
		`{"name":"sweep","scenario":"tangshan","base":{"nx":32,"ny":32,"nz":16,"steps":5},"variations":[{"qs":30},{"nonlinear":true}],"thresholds":[0.01,0.1],"percentiles":[0.5,0.9]}`,
		`{"scenario":"quickstart","seeds":{"count":2000,"het_amplitude":0.05}}`,
		`{"scenario":"quickstart","seeds":{"count":2}}`,
		`{"scenario":"quickstart","variations":[{"nx":8}]}`,
		`{"scenario":"quickstart","percentiles":[1.5]}`,
		`{"scenario":""}`, `{"scenario":"quickstart","bogus":1}`, `{"seeds":"x"}`, `{"scenario":"quickstart"`, ``, `null`,
	} {
		f.Add(seed)
	}
	h := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body string) { fuzzPost(t, h, "/v1/campaigns", body) })
}
