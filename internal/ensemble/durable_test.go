package ensemble

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"swquake/internal/manifest"
	"swquake/internal/service"
)

// TestDurableCampaignSurvivesRestartBitIdentical is the subsystem's
// acceptance test: a durable campaign is cut down mid-flight (manager and
// service both stopped with an expired deadline, the moral equivalent of
// a SIGKILL), rebooted, and must finish with an aggregate bit-identical
// to the serial reference — folded members re-fold from their persisted
// fields, the in-flight member resumes inside the job service, and the
// rest run fresh.
func TestDurableCampaignSurvivesRestartBitIdentical(t *testing.T) {
	dir := t.TempDir()
	svc, err := service.Open(service.Options{Workers: 1, DataDir: dir, CheckpointEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	logger, folded := signalOn("campaign member done")
	m, err := Open(Options{Service: svc, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}

	spec := sweepSpec(40, 4)
	spec.MaxConcurrent = 1 // members run strictly one after another
	st, err := m.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	id := st.ID

	// kill once the first member has folded, with the campaign unfinished
	await(t, folded, "the first member's fold")
	if cur, err := m.Status(id); err != nil || cur.Folded < 1 || cur.State.Terminal() {
		t.Fatalf("before the kill: %+v, %v", cur, err)
	}

	// hard shutdown: expired deadlines park the in-flight member (manager)
	// and the running job (service) without journaling anything terminal
	expired, cancel := context.WithDeadline(context.Background(), time.Now())
	cancel()
	m.Drain(expired)
	svc.Drain(expired)

	// reboot: the service requeues the parked member job, the manager
	// re-folds the persisted fields and re-attaches to the recovered job
	svc2, err := service.Open(service.Options{Workers: 1, DataDir: dir, CheckpointEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Open(Options{Service: svc2})
	if err != nil {
		t.Fatal(err)
	}
	if n := m2.Registry().Ints()["campaigns_recovered"]; n != 1 {
		t.Fatalf("recovered %d campaigns, want 1", n)
	}
	st2, err := m2.Status(id)
	if err != nil {
		t.Fatalf("recovered campaign lost: %v", err)
	}
	if !st2.Recovered {
		t.Fatalf("campaign not flagged recovered: %+v", st2)
	}

	final := waitCampaign(t, m2, id)
	if final.State != StateDone || final.Folded != 4 || final.Failed != 0 {
		t.Fatalf("final status %+v", final)
	}

	agg, err := m2.Aggregate(id)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceAggregate(t, spec)
	if !bitEqual(agg.MeanPGV, ref.Mean()) {
		t.Fatal("mean PGV after restart differs from serial reference")
	}
	if !bitEqual(agg.StdPGV, ref.Std()) {
		t.Fatal("std PGV after restart differs from serial reference")
	}
	for k := range agg.ExceedProb {
		if !bitEqual(agg.ExceedProb[k], ref.ExceedProb()[k]) {
			t.Fatalf("exceedance map %d after restart differs from serial reference", k)
		}
	}

	// the finished campaign left a manifest next to its state
	var cm manifest.CampaignManifest
	data, err := os.ReadFile(m2.stateDir(id) + "/manifest.json")
	if err == nil {
		err = json.Unmarshal(data, &cm)
	}
	if err != nil {
		t.Fatalf("campaign manifest: %v", err)
	}
	if cm.ID != id || cm.State != string(StateDone) || cm.Folded != 4 || len(cm.MemberJobs) != 4 {
		t.Fatalf("manifest %+v", cm)
	}
	if cm.MeanPGVMax != agg.MeanPGVMax {
		t.Fatalf("manifest headline %g vs aggregate %g", cm.MeanPGVMax, agg.MeanPGVMax)
	}

	drainAll(t, m2, svc2)

	// a third boot sees a terminal campaign: nothing to recover, and the
	// compacted journal stays quiet about it
	svc3, err := service.Open(service.Options{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m3, err := Open(Options{Service: svc3})
	if err != nil {
		t.Fatal(err)
	}
	if n := m3.Registry().Ints()["campaigns_recovered"]; n != 0 {
		t.Fatalf("terminal campaign recovered again: %d", n)
	}
	drainAll(t, m3, svc3)
}

// TestDurableCreateSurvivesImmediateKill: a campaign killed before any
// member finished must resume from just the journaled spec.
func TestDurableCreateSurvivesImmediateKill(t *testing.T) {
	dir := t.TempDir()
	svc, err := service.Open(service.Options{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Open(Options{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Create(sweepSpec(15, 2))
	if err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now())
	cancel()
	m.Drain(expired)
	svc.Drain(expired)

	svc2, err := service.Open(service.Options{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Open(Options{Service: svc2})
	if err != nil {
		t.Fatal(err)
	}
	final := waitCampaign(t, m2, st.ID)
	if final.State != StateDone || final.Folded != 2 {
		t.Fatalf("final status %+v", final)
	}
	// ID sequence continues past the recovered campaign
	st2, err := m2.Create(sweepSpec(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != "camp-000002" {
		t.Fatalf("next campaign ID %s", st2.ID)
	}
	waitCampaign(t, m2, st2.ID)
	drainAll(t, m2, svc2)
}

// TestCampaignIDsNeverRepeatAcrossBoots: a boot with nothing to resume still
// compacts both journals, and the third boot must number its campaign after
// the first boot's — or the new campaign writes into the old one's state
// directory — and its member jobs after the first boot's member jobs, which
// a recovered campaign could otherwise re-attach to.
func TestCampaignIDsNeverRepeatAcrossBoots(t *testing.T) {
	dir := t.TempDir()
	boot := func() (*Manager, *service.Service) {
		svc, err := service.Open(service.Options{Workers: 1, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		m, err := Open(Options{Service: svc})
		if err != nil {
			t.Fatal(err)
		}
		return m, svc
	}
	m, svc := boot()
	st, err := m.Create(sweepSpec(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	first := waitCampaign(t, m, st.ID)
	drainAll(t, m, svc)
	m, svc = boot() // nothing live: each journal keeps only its high-water mark
	drainAll(t, m, svc)

	m, svc = boot()
	defer drainAll(t, m, svc)
	st, err = m.Create(sweepSpec(6, 2))
	if err != nil {
		t.Fatal(err)
	}
	third := waitCampaign(t, m, st.ID)
	if third.ID != "camp-000002" {
		t.Fatalf("third boot's campaign is %s, want camp-000002", third.ID)
	}
	for i, ms := range third.MemberJobs {
		for _, old := range first.MemberJobs {
			if ms.Job == old.Job {
				t.Errorf("third boot's member %d reuses job ID %s", i, ms.Job)
			}
		}
	}
}
