package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"swquake/internal/ensemble"
	"swquake/internal/seismo"
	"swquake/internal/service"
)

// sweep3 is a 3-member quickstart seed sweep, small enough to run under
// the race detector.
const sweep3 = `{"scenario":"quickstart","base":{"steps":20},` +
	`"seeds":{"base":1,"count":3,"het_amplitude":0.05},"max_concurrent":3}`

func pollCampaign(t *testing.T, base, id string, pred func(ensemble.Status) bool) ensemble.Status {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		var st ensemble.Status
		if code := doJSON(t, "GET", base+"/v1/campaigns/"+id, "", &st); code != http.StatusOK {
			t.Fatalf("campaign poll returned %d", code)
		}
		if pred(st) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("campaign %s never reached the wanted condition", id)
	return ensemble.Status{}
}

// referenceFold runs the sweep's members one at a time through the JOBS
// API of the same server and folds them sequentially — the serial answer
// the concurrent campaign must match bit for bit.
func referenceFold(t *testing.T, base string, steps, seedBase, count int) *seismo.FieldStats {
	t.Helper()
	var stats *seismo.FieldStats
	for s := 0; s < count; s++ {
		body := fmt.Sprintf(`{"scenario":"quickstart","overrides":{"steps":%d,"seed":%d,"het_amplitude":0.05}}`,
			steps, seedBase+s)
		st, code := submit(t, base, body)
		if code != http.StatusAccepted {
			t.Fatalf("reference member %d: %d", s, code)
		}
		pollUntil(t, base, st.ID, func(s service.Status) bool { return s.State.Terminal() })
		var res service.Result
		if code := doJSON(t, "GET", base+"/v1/jobs/"+st.ID+"/result", "", &res); code != http.StatusOK {
			t.Fatalf("reference member %d result: %d", s, code)
		}
		if res.PGV == nil {
			t.Fatalf("reference member %d has no PGV field", s)
		}
		if stats == nil {
			stats = seismo.NewFieldStats(res.PGV.Nx, res.PGV.Ny, ensemble.DefaultThresholds)
		}
		if err := stats.Add(res.PGV.Values); err != nil {
			t.Fatal(err)
		}
	}
	return stats
}

func bitsEqual(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: cell %d differs: %g vs %g", what, i, a[i], b[i])
		}
	}
}

func TestHTTPCampaignLifecycleBitIdentical(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{Workers: 2})

	var st ensemble.Status
	if code := doJSON(t, "POST", ts.URL+"/v1/campaigns", sweep3, &st); code != http.StatusAccepted {
		t.Fatalf("create returned %d", code)
	}
	if st.Members != 3 || st.State != ensemble.StateRunning {
		t.Fatalf("created status %+v", st)
	}

	final := pollCampaign(t, ts.URL, st.ID, func(s ensemble.Status) bool { return s.State.Terminal() })
	if final.State != ensemble.StateDone || final.Folded != 3 {
		t.Fatalf("final status %+v", final)
	}

	// campaigns list includes it
	var list []ensemble.Status
	if code := doJSON(t, "GET", ts.URL+"/v1/campaigns", "", &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("list: %d entries, code %d", len(list), code)
	}

	var agg ensemble.Aggregate
	if code := doJSON(t, "GET", ts.URL+"/v1/campaigns/"+st.ID+"/aggregate", "", &agg); code != http.StatusOK {
		t.Fatalf("aggregate returned %d", code)
	}
	if agg.Folded != 3 || len(agg.MeanPGV) != agg.Nx*agg.Ny || agg.MeanPGVMax <= 0 ||
		len(agg.ExceedProb) == 0 || len(agg.PercentilePGV) == 0 {
		t.Fatalf("aggregate %+v", agg)
	}
	var metrics struct {
		Campaigns map[string]int64 `json:"campaigns"`
	}
	if code := doJSON(t, "GET", ts.URL+"/metrics", "", &metrics); code != http.StatusOK ||
		metrics.Campaigns["campaigns_done"] != 1 || metrics.Campaigns["members_folded"] != 3 {
		t.Fatalf("campaign metrics: code %d, %+v", code, metrics.Campaigns)
	}

	// the HTTP aggregate must equal the serial fold of the same members
	// submitted through the jobs API (served from cache, identical bits)
	ref := referenceFold(t, ts.URL, 20, 1, 3)
	bitsEqual(t, "mean PGV", agg.MeanPGV, ref.Mean())
	bitsEqual(t, "std PGV", agg.StdPGV, ref.Std())
	for k := range agg.ExceedProb {
		bitsEqual(t, fmt.Sprintf("exceedance map %d", k), agg.ExceedProb[k], ref.ExceedProb()[k])
	}
}

func TestHTTPCampaignValidationAndUnknown(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{Workers: 1})
	var e map[string]string
	if code := doJSON(t, "POST", ts.URL+"/v1/campaigns",
		`{"scenario":"quickstart","seeds":{"count":4}}`, &e); code != http.StatusBadRequest {
		t.Fatalf("invalid spec returned %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/campaigns", `{"bogus":1}`, &e); code != http.StatusBadRequest {
		t.Fatalf("unknown field returned %d", code)
	}
	for _, url := range []string{"/v1/campaigns/camp-000099", "/v1/campaigns/camp-000099/aggregate"} {
		if code := doJSON(t, "GET", ts.URL+url, "", &e); code != http.StatusNotFound {
			t.Fatalf("GET %s returned %d", url, code)
		}
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/campaigns/camp-000099", "", &e); code != http.StatusNotFound {
		t.Fatalf("DELETE unknown returned %d", code)
	}
}

func TestHTTPCampaignCancel(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{Workers: 1})
	slow := `{"scenario":"quickstart","base":{"steps":200000},` +
		`"seeds":{"base":1,"count":2,"het_amplitude":0.05},"max_concurrent":1}`
	var st ensemble.Status
	if code := doJSON(t, "POST", ts.URL+"/v1/campaigns", slow, &st); code != http.StatusAccepted {
		t.Fatalf("create returned %d", code)
	}
	pollCampaign(t, ts.URL, st.ID, func(s ensemble.Status) bool { return s.Running > 0 })
	if code := doJSON(t, "DELETE", ts.URL+"/v1/campaigns/"+st.ID, "", &st); code != http.StatusOK {
		t.Fatalf("cancel returned %d", code)
	}
	final := pollCampaign(t, ts.URL, st.ID, func(s ensemble.Status) bool { return s.State.Terminal() })
	if final.State != ensemble.StateCanceled {
		t.Fatalf("state after cancel %+v", final)
	}
}

// TestHTTPCampaignDurableRestart is the daemon-level acceptance test: a
// durable campaign is killed mid-flight along with its whole server stack,
// a second "daemon" boots on the same data directory, and the finished
// aggregate must be bit-identical to the serial reference.
func TestHTTPCampaignDurableRestart(t *testing.T) {
	dir := t.TempDir()
	boot := func() (*httptest.Server, *service.Service, *ensemble.Manager) {
		svc, err := service.Open(service.Options{Workers: 1, DataDir: dir, CheckpointEvery: 10})
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := ensemble.Open(ensemble.Options{Service: svc})
		if err != nil {
			t.Fatal(err)
		}
		return httptest.NewServer(newServer(svc, mgr)), svc, mgr
	}

	ts1, svc1, mgr1 := boot()
	sweep := `{"scenario":"quickstart","base":{"steps":40},` +
		`"seeds":{"base":1,"count":4,"het_amplitude":0.05},"max_concurrent":1}`
	var st ensemble.Status
	if code := doJSON(t, "POST", ts1.URL+"/v1/campaigns", sweep, &st); code != http.StatusAccepted {
		t.Fatalf("create returned %d", code)
	}
	id := st.ID
	pollCampaign(t, ts1.URL, id, func(s ensemble.Status) bool {
		return s.Folded >= 1 && !s.State.Terminal()
	})

	// kill the daemon: expired deadlines park the in-flight member and job
	ts1.Close()
	expired, cancel := context.WithDeadline(context.Background(), time.Now())
	cancel()
	mgr1.Drain(expired)
	svc1.Drain(expired)

	ts2, svc2, mgr2 := boot()
	defer func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		mgr2.Drain(ctx)
		svc2.Drain(ctx)
	}()
	if n := mgr2.Registry().Ints()["campaigns_recovered"]; n != 1 {
		t.Fatalf("second boot recovered %d campaigns", n)
	}
	final := pollCampaign(t, ts2.URL, id, func(s ensemble.Status) bool { return s.State.Terminal() })
	if final.State != ensemble.StateDone || final.Folded != 4 || !final.Recovered {
		t.Fatalf("final status %+v", final)
	}

	var agg ensemble.Aggregate
	if code := doJSON(t, "GET", ts2.URL+"/v1/campaigns/"+id+"/aggregate", "", &agg); code != http.StatusOK {
		t.Fatalf("aggregate returned %d", code)
	}
	ref := referenceFold(t, ts2.URL, 40, 1, 4)
	bitsEqual(t, "mean PGV after restart", agg.MeanPGV, ref.Mean())
	bitsEqual(t, "std PGV after restart", agg.StdPGV, ref.Std())
	for k := range agg.ExceedProb {
		bitsEqual(t, fmt.Sprintf("exceedance map %d after restart", k), agg.ExceedProb[k], ref.ExceedProb()[k])
	}
}
