package ensemble

import (
	"context"
	"errors"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"swquake/internal/scenario"
	"swquake/internal/seismo"
	"swquake/internal/service"
)

// sweepSpec is a fast quickstart seed sweep.
func sweepSpec(steps, seeds int) CampaignSpec {
	return CampaignSpec{
		Name:     "test sweep",
		Scenario: "quickstart",
		Base:     scenario.Overrides{Steps: steps},
		Seeds:    SeedAxis{Base: 1, Count: seeds, HetAmplitude: 0.05},
	}
}

// logSignal is a log sink that closes seen the first time a record with its
// message is logged: the event a test waits on instead of polling.
type logSignal struct {
	msg  string
	once sync.Once
	seen chan struct{}
}

// signalOn returns a logger and the channel it closes when msg is logged.
func signalOn(msg string) (*slog.Logger, <-chan struct{}) {
	h := &logSignal{msg: msg, seen: make(chan struct{})}
	return slog.New(h), h.seen
}

func (h *logSignal) Enabled(context.Context, slog.Level) bool { return true }

func (h *logSignal) Handle(_ context.Context, r slog.Record) error {
	if r.Message == h.msg {
		h.once.Do(func() { close(h.seen) })
	}
	return nil
}

func (h *logSignal) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *logSignal) WithGroup(string) slog.Handler      { return h }

// await blocks until the event happens, failing the test after a minute.
func await(t *testing.T, event <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-event:
	case <-time.After(time.Minute):
		t.Fatalf("%s never happened", what)
	}
}

func drainAll(t *testing.T, m *Manager, s *service.Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("manager drain: %v", err)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("service drain: %v", err)
	}
}

func waitCampaign(t *testing.T, m *Manager, id string) Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return st
}

// referenceAggregate runs the campaign's members one at a time on a fresh
// service and folds them sequentially in member-index order — the serial
// computation the concurrent campaign must reproduce bit for bit.
func referenceAggregate(t *testing.T, spec CampaignSpec) *seismo.FieldStats {
	t.Helper()
	norm, err := spec.normalized()
	if err != nil {
		t.Fatal(err)
	}
	members := norm.Expand()
	svc := service.New(service.Options{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		svc.Drain(ctx)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var stats *seismo.FieldStats
	for i, sp := range members {
		cfg, err := scenario.Build(sp.Scenario, sp.Overrides)
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		id, err := svc.Submit(service.Request{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if st, err := svc.Wait(ctx, id); err != nil || st.State != service.StateDone {
			t.Fatalf("reference member %d: %+v %v", i, st, err)
		}
		res, err := svc.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if res.PGV == nil {
			t.Fatalf("reference member %d has no PGV field", i)
		}
		if stats == nil {
			stats = seismo.NewFieldStats(res.PGV.Nx, res.PGV.Ny, norm.Thresholds)
		}
		if err := stats.Add(res.PGV.Values); err != nil {
			t.Fatal(err)
		}
	}
	return stats
}

// bitEqual compares float slices for exact bit equality.
func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestCampaignEndToEndBitIdentical(t *testing.T) {
	svc := service.New(service.Options{Workers: 2})
	m, err := Open(Options{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	spec := sweepSpec(20, 3)
	spec.MaxConcurrent = 3 // members finish out of order; the fold must not care
	st, err := m.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "camp-000001" || st.Members != 3 || st.State != StateRunning {
		t.Fatalf("created status %+v", st)
	}

	final := waitCampaign(t, m, st.ID)
	if final.State != StateDone || final.Done != 3 || final.Folded != 3 || final.Failed != 0 {
		t.Fatalf("final status %+v", final)
	}
	for i, ms := range final.MemberJobs {
		if ms.Job == "" || ms.State != string(service.StateDone) {
			t.Fatalf("member %d: %+v", i, ms)
		}
	}

	agg, err := m.Aggregate(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Members != 3 || agg.Folded != 3 || agg.Nx == 0 || agg.Ny == 0 {
		t.Fatalf("aggregate %+v", agg)
	}
	if len(agg.ExceedProb) != len(DefaultThresholds) || len(agg.PercentilePGV) != len(DefaultPercentiles) {
		t.Fatalf("aggregate maps: %d exceed, %d percentile", len(agg.ExceedProb), len(agg.PercentilePGV))
	}
	if agg.MeanPGVMax <= 0 || agg.MeanIntensityMax <= 0 {
		t.Fatalf("headline numbers %g / %g", agg.MeanPGVMax, agg.MeanIntensityMax)
	}

	// the concurrent campaign must reproduce the serial fold bit for bit
	ref := referenceAggregate(t, spec)
	if !bitEqual(agg.MeanPGV, ref.Mean()) {
		t.Fatal("mean PGV differs from serial reference")
	}
	if !bitEqual(agg.StdPGV, ref.Std()) {
		t.Fatal("std PGV differs from serial reference")
	}
	for k := range agg.ExceedProb {
		if !bitEqual(agg.ExceedProb[k], ref.ExceedProb()[k]) {
			t.Fatalf("exceedance map %d differs from serial reference", k)
		}
	}

	if mt := m.Registry().Ints(); mt["campaigns_created"] != 1 || mt["campaigns_done"] != 1 ||
		mt["members_submitted"] != 3 || mt["members_folded"] != 3 {
		t.Fatalf("metrics %v", mt)
	}

	// the prom families render, the gauges at zero after completion
	var sb strings.Builder
	if err := m.Registry().WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"swquake_campaigns_created_total 1",
		"swquake_campaigns_done_total 1",
		"swquake_campaign_members_done_total 3",
		"swquake_campaigns_running 0",
		"swquake_campaign_members_inflight 0",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("prom output missing %q:\n%s", want, sb.String())
		}
	}

	drainAll(t, m, svc)
}

func TestCreateValidatesSpec(t *testing.T) {
	svc := service.New(service.Options{Workers: 1})
	m, err := Open(Options{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(CampaignSpec{Scenario: "quickstart", Seeds: SeedAxis{Count: 4}}); err == nil {
		t.Fatal("seed sweep without amplitude accepted")
	}
	if got := m.List(); len(got) != 0 {
		t.Fatalf("rejected campaign registered: %+v", got)
	}
	if _, err := m.Status("camp-000099"); !errors.Is(err, ErrUnknownCampaign) {
		t.Fatalf("unknown campaign error %v", err)
	}
	drainAll(t, m, svc)
}

func TestCampaignCancelStopsMembers(t *testing.T) {
	logger, started := signalOn("job started")
	svc := service.New(service.Options{Workers: 1, Logger: logger})
	m, err := Open(Options{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	spec := sweepSpec(200000, 3) // far too slow to finish
	spec.MaxConcurrent = 1
	st, err := m.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	await(t, started, "member 0's job start")
	if !m.Cancel(st.ID) {
		t.Fatal("cancel returned false")
	}
	final := waitCampaign(t, m, st.ID)
	if final.State != StateCanceled {
		t.Fatalf("state after cancel: %+v", final)
	}
	if m.Cancel("camp-000099") {
		t.Fatal("cancel of unknown campaign succeeded")
	}
	drainAll(t, m, svc)
}

// TestCanceledCampaignLeavesNoMemberJobRunning: once Wait reports a
// campaign canceled, every member job the service knows has ended — the
// running one and the queued ones alike — whenever the cancel caught each
// member: in its submission, queued, or running.
func TestCanceledCampaignLeavesNoMemberJobRunning(t *testing.T) {
	logger, started := signalOn("job started")
	svc := service.New(service.Options{Workers: 1, Logger: logger})
	m, err := Open(Options{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	spec := sweepSpec(200000, 3)
	spec.MaxConcurrent = 3 // one member job runs, the others queue behind it
	st, err := m.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	await(t, started, "a member job's start")
	m.Cancel(st.ID)
	if final := waitCampaign(t, m, st.ID); final.State != StateCanceled {
		t.Fatalf("state after cancel: %+v", final)
	}
	jobs := svc.Jobs()
	if len(jobs) == 0 {
		t.Fatal("the service knows no member job")
	}
	for _, js := range jobs {
		if !js.State.Terminal() {
			t.Errorf("member job %s is %s after its campaign was canceled", js.ID, js.State)
		}
	}
	drainAll(t, m, svc)
}

func TestCampaignFailedMembersSkip(t *testing.T) {
	svc := service.New(service.Options{Workers: 1})
	m, err := Open(Options{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	spec := sweepSpec(200000, 2)
	spec.TimeoutS = 0.05 // every member times out
	st, err := m.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitCampaign(t, m, st.ID)
	if final.State != StateFailed || final.Failed != 2 || final.Folded != 0 {
		t.Fatalf("final status %+v", final)
	}
	if final.Error == "" {
		t.Fatal("failed campaign reports no error")
	}
	// the aggregate is metadata-only but well-formed
	agg, err := m.Aggregate(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if agg.State != StateFailed || agg.Skipped != 2 || agg.Folded != 0 || agg.MeanPGV != nil {
		t.Fatalf("aggregate %+v", agg)
	}
	if mt := m.Registry().Ints(); mt["members_failed"] != 2 || mt["campaigns_failed"] != 1 {
		t.Fatalf("metrics %v", mt)
	}
	drainAll(t, m, svc)
}

func TestDrainRejectsNewCampaigns(t *testing.T) {
	svc := service.New(service.Options{Workers: 1})
	m, err := Open(Options{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	drainAll(t, m, svc)
	if _, err := m.Create(sweepSpec(5, 2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after drain: %v", err)
	}
}
