package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"swquake/internal/admission"
	"swquake/internal/core"
	"swquake/internal/faultinject"
	"swquake/internal/manifest"
	"swquake/internal/scenario"
	"swquake/internal/service"
)

// rawDo performs a request and returns the status code, the Retry-After
// header (empty when absent) and the decoded JSON body.
func rawDo(t *testing.T, method, url, body string, out any) (int, string) {
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
	return resp.StatusCode, resp.Header.Get("Retry-After")
}

// quickBody is a quickstart submission with the given step count — distinct
// step counts make distinct cache keys.
func quickBody(steps int) string {
	return fmt.Sprintf(`{"scenario":"quickstart","overrides":{"steps":%d}}`, steps)
}

// quickCost prices a quickstart submission the way the daemon's admission
// layer does.
func quickCost(t *testing.T, steps int) int64 {
	t.Helper()
	cfg, err := scenario.Build("quickstart", scenario.Overrides{Steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return admission.EstimateCost(cfg, 1, 1).Bytes
}

// assertBitIdentical fetches a finished job's result and compares it, bit
// for bit, against an unloaded in-process reference run of the same config.
func assertBitIdentical(t *testing.T, base, id string, steps int) {
	t.Helper()
	var got service.Result
	if code := doJSON(t, "GET", base+"/v1/jobs/"+id+"/result", "", &got); code != http.StatusOK {
		t.Fatalf("result of %s returned %d", id, code)
	}
	cfg, err := scenario.Build("quickstart", scenario.Overrides{Steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := manifest.New(cfg, res)
	if got.Manifest.Steps != want.Steps || got.Manifest.SurfacePGV != want.SurfacePGV ||
		got.Manifest.SurfaceIntensity != want.SurfaceIntensity {
		t.Fatalf("job %s manifest differs from unloaded run:\ngot  %+v\nwant %+v",
			id, got.Manifest, want)
	}
	if len(got.Traces) != len(res.Recorder.Traces) {
		t.Fatalf("job %s: %d traces vs %d", id, len(got.Traces), len(res.Recorder.Traces))
	}
	for i := range got.Traces {
		g, w := got.Traces[i], res.Recorder.Traces[i]
		if g.Name != w.Station.Name || len(g.U) != len(w.U) {
			t.Fatalf("job %s trace %d shape differs", id, i)
		}
		for n := range g.U {
			if g.U[n] != w.U[n] || g.V[n] != w.V[n] || g.W[n] != w.W[n] {
				t.Fatalf("job %s trace %d sample %d differs from unloaded run", id, i, n)
			}
		}
	}
}

// TestReadyzTransitions walks the health state machine end to end over
// HTTP: healthy serves 200, a breaker trip degrades readiness to 503 (with
// Retry-After) while liveness stays 200, a successful probe restores 200,
// and a drain flips readiness to draining-503 for good.
func TestReadyzTransitions(t *testing.T) {
	defer faultinject.Reset()
	ts, svc := newTestServer(t, service.Options{
		Workers: 1, BreakerThreshold: 1, BreakerCooldown: time.Second,
	})

	var ready struct {
		State string `json:"state"`
	}
	if code, _ := rawDo(t, "GET", ts.URL+"/readyz", "", &ready); code != http.StatusOK || ready.State != "healthy" {
		t.Fatalf("fresh readyz: %d %q", code, ready.State)
	}

	// one worker panic trips the threshold-1 breaker
	faultinject.Enable(faultinject.WorkerPanic, faultinject.Fault{Times: 1})
	st, code := submit(t, ts.URL, quickBody(21))
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	if final := pollUntil(t, ts.URL, st.ID, func(s service.Status) bool { return s.State.Terminal() }); final.State != service.StateFailed {
		t.Fatalf("panicked job finished %s", final.State)
	}

	code, retry := rawDo(t, "GET", ts.URL+"/readyz", "", &ready)
	if code != http.StatusServiceUnavailable || ready.State != "degraded" {
		t.Fatalf("degraded readyz: %d %q", code, ready.State)
	}
	if secs, err := strconv.Atoi(retry); err != nil || secs < 1 {
		t.Fatalf("degraded readyz Retry-After %q", retry)
	}
	// liveness is unaffected: the process is alive, just shedding
	var hz struct {
		Status string `json:"status"`
	}
	if code, _ := rawDo(t, "GET", ts.URL+"/healthz", "", &hz); code != http.StatusOK || hz.Status != "degraded" {
		t.Fatalf("degraded healthz: %d %q", code, hz.Status)
	}

	// cooldown elapses; the probe submission is admitted and its success
	// closes the breaker
	time.Sleep(1100 * time.Millisecond)
	probe, code := submit(t, ts.URL, quickBody(22))
	if code != http.StatusAccepted {
		t.Fatalf("probe submit returned %d", code)
	}
	pollUntil(t, ts.URL, probe.ID, func(s service.Status) bool { return s.State == service.StateDone })
	if code, _ := rawDo(t, "GET", ts.URL+"/readyz", "", &ready); code != http.StatusOK || ready.State != "healthy" {
		t.Fatalf("recovered readyz: %d %q", code, ready.State)
	}

	// draining: readiness flips to 503 the moment shutdown begins, and
	// submissions are refused with a Retry-After
	slow, code := submit(t, ts.URL, slowJob)
	if code != http.StatusAccepted {
		t.Fatalf("slow submit returned %d", code)
	}
	pollUntil(t, ts.URL, slow.ID, func(s service.Status) bool { return s.State == service.StateRunning })
	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		drainDone <- svc.Drain(ctx)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code, _ = rawDo(t, "GET", ts.URL+"/readyz", "", &ready); code == http.StatusServiceUnavailable && ready.State == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz never reported draining: %d %q", code, ready.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	code, retry = rawDo(t, "POST", ts.URL+"/v1/jobs", quickBody(23), &map[string]any{})
	if code != http.StatusServiceUnavailable || retry == "" {
		t.Fatalf("submit while draining: %d Retry-After %q", code, retry)
	}
	doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+slow.ID, "", nil)
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestRetryAfterIsTheRefusalsHint: every retryable refusal is one 429 whose
// Retry-After is the hint the service attached, rounded up to whole seconds,
// and whose body names the hint. The values are the ones the handler's
// earlier per-reason branches sent: for a full queue the mean job latency
// times the jobs ahead per worker plus one, clamped to [1 s, 60 s]; for the
// rate limiter the next token; for the breaker its remaining cooldown.
func TestRetryAfterIsTheRefusalsHint(t *testing.T) {
	defer faultinject.Reset()
	refused := func(t *testing.T, base string, steps int) string {
		t.Helper()
		var body map[string]string
		code, retry := rawDo(t, "POST", base+"/v1/jobs", quickBody(steps), &body)
		if code != http.StatusTooManyRequests || !strings.Contains(body["error"], "retry after") {
			t.Fatalf("refused submit: %d %q, want 429 naming its hint", code, body["error"])
		}
		return retry
	}
	accepted := func(t *testing.T, base, body string) service.Status {
		t.Helper()
		st, code := submit(t, base, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit returned %d", code)
		}
		return st
	}

	t.Run("queue-full", func(t *testing.T) {
		ts, svc := newTestServer(t, service.Options{Workers: 1, QueueSize: 1})
		// one job to the end first: the estimate rests on a measured latency
		done := accepted(t, ts.URL, quickBody(10))
		pollUntil(t, ts.URL, done.ID, func(s service.Status) bool { return s.State == service.StateDone })
		blocker := accepted(t, ts.URL, slowJob)
		pollUntil(t, ts.URL, blocker.ID, func(s service.Status) bool { return s.State == service.StateRunning })
		accepted(t, ts.URL, quickBody(11))
		retry := refused(t, ts.URL, 12)
		var prom strings.Builder
		svc.Registry().WriteProm(&prom)
		sample := func(name string) float64 {
			for _, line := range strings.Split(prom.String(), "\n") {
				if v, ok := strings.CutPrefix(line, name+" "); ok {
					f, err := strconv.ParseFloat(v, 64)
					if err != nil {
						t.Fatal(err)
					}
					return f
				}
			}
			t.Fatalf("no sample %s", name)
			return 0
		}
		mean := sample("swquake_job_duration_seconds_sum") / sample("swquake_job_duration_seconds_count")
		if want := fmt.Sprint(math.Ceil(min(max(2*mean, 1), 60))); retry != want {
			t.Fatalf("Retry-After %q, want %s (mean job latency %.3fs, one job ahead of one worker)", retry, want, mean)
		}
		doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+blocker.ID, "", nil)
	})
	t.Run("rate-limit", func(t *testing.T) {
		ts, _ := newTestServer(t, service.Options{Workers: 1, SubmitRate: 0.5}) // a bucket of one token
		accepted(t, ts.URL, quickBody(10))
		if retry := refused(t, ts.URL, 11); retry != "2" {
			t.Fatalf("Retry-After %q, want 2: the next token at 0.5/s", retry)
		}
	})
	t.Run("breaker", func(t *testing.T) {
		ts, _ := newTestServer(t, service.Options{Workers: 1, BreakerThreshold: 1, BreakerCooldown: 30 * time.Second})
		faultinject.Enable(faultinject.WorkerPanic, faultinject.Fault{Times: 1})
		st := accepted(t, ts.URL, quickBody(10))
		pollUntil(t, ts.URL, st.ID, func(s service.Status) bool { return s.State.Terminal() })
		if retry := refused(t, ts.URL, 11); retry != "30" {
			t.Fatalf("Retry-After %q, want 30: the breaker's remaining cooldown", retry)
		}
	})
}

// TestOverloadDrill is the acceptance drill (`make overload-test`): a
// 2-worker daemon with a memory budget sized for exactly its two running
// blockers faces a storm at 5x its queue+worker capacity. It must shed the
// overflow with 429 + Retry-After, keep /healthz and cached results
// flowing, never let ledger reservations exceed the budget, and complete
// every admitted job bit-identical to an unloaded run.
func TestOverloadDrill(t *testing.T) {
	const (
		warmSteps          = 35
		queuedA, queuedB   = 40, 41
		stormBase          = 42
		freshStorm, cached = 15, 5
	)
	blockerSteps := []int{200000, 200001}
	budget := quickCost(t, blockerSteps[0]) + quickCost(t, blockerSteps[1]) + quickCost(t, queuedA)/2
	ts, svc := newTestServer(t, service.Options{
		Workers: 2, QueueSize: 2, MemBudget: budget,
	})

	// warm the cache with one completed variant
	warm, code := submit(t, ts.URL, quickBody(warmSteps))
	if code != http.StatusAccepted {
		t.Fatalf("warm submit returned %d", code)
	}
	pollUntil(t, ts.URL, warm.ID, func(s service.Status) bool { return s.State == service.StateDone })

	// occupy both workers with long blockers (together they exhaust the
	// budget), then fill the queue with two real variants
	var blockers []string
	for _, steps := range blockerSteps {
		st, code := submit(t, ts.URL, quickBody(steps))
		if code != http.StatusAccepted {
			t.Fatalf("blocker submit returned %d", code)
		}
		blockers = append(blockers, st.ID)
	}
	for _, id := range blockers {
		pollUntil(t, ts.URL, id, func(s service.Status) bool { return s.State == service.StateRunning })
	}
	queuedIDs := map[string]int{}
	for _, steps := range []int{queuedA, queuedB} {
		st, code := submit(t, ts.URL, quickBody(steps))
		if code != http.StatusAccepted {
			t.Fatalf("queue-filler submit returned %d", code)
		}
		queuedIDs[st.ID] = steps
	}

	// the storm: 5x the daemon's whole capacity (2 workers + 2 queue slots),
	// concurrently — fresh variants must shed with 429 + Retry-After, cached
	// resubmissions must keep being served
	type stormResult struct {
		code, retrySecs int
		st              service.Status
	}
	results := make([]stormResult, freshStorm+cached)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := quickBody(warmSteps) // cached
			if i < freshStorm {
				body = quickBody(stormBase + i)
			}
			var r stormResult
			var retry string
			r.code, retry = rawDo(t, "POST", ts.URL+"/v1/jobs", body, &r.st)
			r.retrySecs, _ = strconv.Atoi(retry)
			results[i] = r
		}(i)
	}
	// liveness holds throughout the storm
	for i := 0; i < 3; i++ {
		if code, _ := rawDo(t, "GET", ts.URL+"/healthz", "", nil); code != http.StatusOK {
			t.Fatalf("healthz returned %d mid-storm", code)
		}
	}
	wg.Wait()

	cacheHits := 0
	for i, r := range results {
		if i < freshStorm {
			if r.code != http.StatusTooManyRequests {
				t.Fatalf("storm submit %d returned %d, want 429", i, r.code)
			}
			if r.retrySecs < 1 {
				t.Fatalf("storm 429 %d carries no Retry-After", i)
			}
			continue
		}
		if r.code != http.StatusAccepted || !r.st.CacheHit || r.st.State != service.StateDone {
			t.Fatalf("cached storm submit %d: code %d %+v", i, r.code, r.st)
		}
		cacheHits++
	}
	if cacheHits != cached {
		t.Fatalf("served %d cached results mid-storm, want %d", cacheHits, cached)
	}

	// release the blockers; the queued (admitted) variants must now run to
	// completion
	for _, id := range blockers {
		if code := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+id, "", nil); code != http.StatusOK {
			t.Fatalf("blocker cancel returned %d", code)
		}
	}
	for id := range queuedIDs {
		pollUntil(t, ts.URL, id, func(s service.Status) bool { return s.State == service.StateDone })
	}

	// the ledger never exceeded the budget — reservations are checked at
	// dispatch, so the high-water mark is the proof for the whole drill
	ledger := svc.Health().Budget
	if ledger.TotalBytes != budget {
		t.Fatalf("budget %d, configured %d", ledger.TotalBytes, budget)
	}
	if ledger.HighWaterBytes <= 0 || ledger.HighWaterBytes > budget {
		t.Fatalf("ledger high water %d outside (0, %d]", ledger.HighWaterBytes, budget)
	}
	if rejected := svc.Registry().Ints()["jobs_rejected"]; rejected < freshStorm {
		t.Fatalf("rejections %d, want >= %d", rejected, freshStorm)
	}

	// the labeled rejection counter is exposed per reason
	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	found := false
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, `swquake_jobs_rejected_total{reason="queue-full"}`) {
			v, err := strconv.ParseFloat(strings.TrimSpace(line[strings.LastIndex(line, "}")+1:]), 64)
			if err != nil || v < freshStorm {
				t.Fatalf("queue-full rejection counter %q", line)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("swquake_jobs_rejected_total{reason=\"queue-full\"} missing from exposition")
	}

	// every admitted job that ran must be bit-identical to an unloaded run —
	// the warm job, the queued variants, and a post-storm resubmission of
	// stormed variants (now admitted)
	assertBitIdentical(t, ts.URL, warm.ID, warmSteps)
	for id, steps := range queuedIDs {
		assertBitIdentical(t, ts.URL, id, steps)
	}
	for i := 0; i < 3; i++ {
		steps := stormBase + i
		st, code := submit(t, ts.URL, quickBody(steps))
		if code != http.StatusAccepted {
			t.Fatalf("post-storm resubmit of steps=%d returned %d", steps, code)
		}
		pollUntil(t, ts.URL, st.ID, func(s service.Status) bool { return s.State == service.StateDone })
		assertBitIdentical(t, ts.URL, st.ID, steps)
	}
}
