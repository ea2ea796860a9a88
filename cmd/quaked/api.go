package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"swquake/internal/admission"
	"swquake/internal/cpu"
	"swquake/internal/ensemble"
	"swquake/internal/service"
	"swquake/internal/telemetry"
)

// server is the HTTP face of the job service and the ensemble campaign
// manager. It is an http.Handler so the end-to-end tests can mount it on
// httptest servers.
type server struct {
	svc   *service.Service
	mgr   *ensemble.Manager
	mux   *http.ServeMux
	start time.Time
	reg   *telemetry.Registry // the daemon's own metrics; svc and mgr carry theirs
	build buildBlock
}

// buildBlock is /healthz's "build": what binary this is and which code its
// velocity and stress kernels run on this host ("avx2" or "go"), so a slow
// job on a CPU without AVX2, or from a -race binary, explains itself.
type buildBlock struct {
	telemetry.BuildInfo
	KernelPath string `json:"kernel_path"`
}

func newServer(svc *service.Service, mgr *ensemble.Manager) *server {
	s := &server{svc: svc, mgr: mgr, mux: http.NewServeMux(), start: time.Now(),
		reg: telemetry.NewRegistry(), build: buildBlock{telemetry.ReadBuildInfo(), cpu.KernelPath()}}
	s.reg.GaugeFunc("swquake_uptime_seconds", "Seconds since the daemon booted.",
		func() float64 { return time.Since(s.start).Seconds() })
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.registerCampaignRoutes()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// handleSubmit takes a POST /v1/jobs body, a service.JobSpec: a named
// scenario plus overrides, an optional simulated-MPI layout, an optional
// per-job deadline and an optional class ("interactive", the default, or
// "batch", which yields to interactive jobs under load).
func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec service.JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return
	}
	// every HTTP submission is scenario-shaped, hence replayable: the spec
	// is what the durable journal records and recovery re-runs
	sreq, err := spec.Request()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	id, err := s.svc.Submit(sreq)
	switch {
	case errors.Is(err, service.ErrQueueFull):
		// backpressure: tell the client when a slot is likely to open
		writeRetryError(w, http.StatusTooManyRequests, err, s.svc.RetryHint())
		return
	case errors.Is(err, admission.ErrRateLimited), errors.Is(err, admission.ErrShedding):
		// load shedding: the rejection carries its own exact retry moment
		// (next token, or the breaker's remaining cooldown)
		hint, _ := admission.RetryAfter(err)
		writeRetryError(w, http.StatusTooManyRequests, err, hint)
		return
	case errors.Is(err, admission.ErrNeverFits):
		// permanent for this daemon: the job exceeds the whole memory
		// budget, so retrying would never help — not a 429
		writeError(w, http.StatusRequestEntityTooLarge, err)
		return
	case errors.Is(err, service.ErrClosed):
		writeRetryError(w, http.StatusServiceUnavailable, err, 10*time.Second)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st, err := s.svc.Status(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.svc.Jobs())
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.svc.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, err := s.svc.Result(id)
	switch {
	case errors.Is(err, service.ErrUnknownJob):
		writeError(w, http.StatusNotFound, err)
		return
	case errors.Is(err, service.ErrNotFinished):
		writeError(w, http.StatusConflict, err)
		return
	case err != nil: // the job's own failure or cancellation
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.svc.Cancel(id) {
		writeError(w, http.StatusNotFound, service.ErrUnknownJob)
		return
	}
	st, err := s.svc.Status(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleHealthz is liveness: it always answers 200 as long as the process
// serves HTTP — even degraded (breaker open) or draining — and reports the
// health state machine, the memory-budget ledger, the daemon's build
// identity (Go version, module version, VCS revision, kernel path) and pool
// shape, so
// an operator can tell WHAT is healthy, not just that something answered.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.svc.Health()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         string(h.State),
		"health":         h,
		"uptime_s":       time.Since(s.start).Seconds(),
		"build":          s.build,
		"workers":        s.svc.Workers(),
		"queue_capacity": s.svc.QueueSize(),
	})
}

// handleReadyz is readiness: 200 only while the daemon is healthy and
// accepting new work. Degraded (breaker open/half-open) and draining both
// answer 503 with a Retry-After, so load balancers steer submissions away
// while /healthz keeps reporting the process alive.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := s.svc.Health()
	if h.State == admission.Healthy {
		writeJSON(w, http.StatusOK, h)
		return
	}
	setRetryAfter(w, 10*time.Second)
	writeJSON(w, http.StatusServiceUnavailable, h)
}

// handleMetrics serves the two views of the one metric registration: the
// integer counters as JSON (the default, which the acceptance tests
// cross-check against observed job outcomes), or the Prometheus text
// exposition when ?format=prometheus is given.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, reg := range []*telemetry.Registry{s.reg, s.svc.Registry(), s.mgr.Registry()} {
			reg.WriteProm(w)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(map[string]any{
		"uptime_s":  math.Round(time.Since(s.start).Seconds()*1e3) / 1e3,
		"service":   s.svc.Registry().Ints(),
		"campaigns": s.mgr.Registry().Ints(),
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// setRetryAfter attaches a Retry-After header (whole seconds, minimum 1 —
// the header has no sub-second form).
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprint(secs))
}

// writeRetryError is writeError plus a Retry-After header — every shedding
// response (429 or drain 503) tells the client when to come back.
func writeRetryError(w http.ResponseWriter, code int, err error, retryAfter time.Duration) {
	setRetryAfter(w, retryAfter)
	writeError(w, code, err)
}
