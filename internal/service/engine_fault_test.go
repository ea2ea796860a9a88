package service

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"swquake/internal/faultinject"
	"swquake/internal/scenario"
	"swquake/internal/wal"
)

// TestEngineFaultRecoveredInRun: an injected halo corruption inside a
// parallel job heals in-run (the engine rewinds and resumes) — the job
// finishes on its FIRST service-level attempt, and the fault and the
// recovery both land in the metrics, including the per-kind breakdown.
func TestEngineFaultRecoveredInRun(t *testing.T) {
	defer faultinject.Reset()
	s := New(Options{Workers: 1, HaloCRC: true, EngineRetries: 3})
	defer drain(t, s)

	// 2x1 grid: 4 halo/corrupt evaluations per step; fire once mid-run
	faultinject.Enable(faultinject.HaloCorrupt, faultinject.Fault{Times: 1, Skip: 4 * 10})

	id, err := s.Submit(Request{Config: tinyConfig(30), MX: 2, MY: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("job state %s (err %q), want done", st.State, st.Error)
	}
	if st.Attempt != 1 {
		t.Fatalf("in-run recovery burned a job attempt: attempt %d", st.Attempt)
	}
	m := metricsOf(s)
	if m.EngineFaults < 1 || m.EngineRecoveries < 1 {
		t.Fatalf("engine fault counters: faults %d, recoveries %d", m.EngineFaults, m.EngineRecoveries)
	}
	if m.Retried != 0 || m.Failed != 0 {
		t.Fatalf("recovery leaked into job-level retry policy: %+v", m)
	}
	var expo strings.Builder
	if err := s.Registry().WriteProm(&expo); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("swquake_engine_faults_total{kind=\"halo-corrupt\"} %d\n", m.EngineFaults)
	if !strings.Contains(expo.String(), want) {
		t.Fatalf("per-kind fault series %q missing:\n%s", want, expo.String())
	}
}

// TestParallelDurableJobCheckpointsAndJournalsFaults: with the serial-only
// gate gone, a durable PARALLEL job auto-checkpoints (the engine gathers
// blocks and writes one global dump), its progress is journaled, and an
// injected engine fault lands in the journal as a non-terminal event —
// with the recovery resuming from the job's own checkpoint directory.
func TestParallelDurableJobCheckpointsAndJournalsFaults(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s, err := Open(Options{
		Workers: 1, DataDir: dir, CheckpointEvery: 10,
		HaloCRC: true, EngineRetries: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)

	// quickstart is 32x32x24; on a 2x1 grid that's 4 evaluations per step —
	// fire once after the first checkpoint (step 10) so recovery resumes
	// from the dump rather than from scratch
	faultinject.Enable(faultinject.HaloCorrupt, faultinject.Fault{Times: 1, Skip: 4 * 15})

	sp := &JobSpec{Scenario: "quickstart", Overrides: scenario.Overrides{Steps: 35}, MX: 2, MY: 1}
	id := submitSpec(t, s, sp)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("durable parallel job state %s (err %q)", st.State, st.Error)
	}

	m := metricsOf(s)
	if m.CheckpointsSaved == 0 {
		t.Fatal("durable parallel job wrote no checkpoints")
	}
	if m.EngineFaults < 1 || m.EngineRecoveries < 1 {
		t.Fatalf("fault counters: faults %d, recoveries %d", m.EngineFaults, m.EngineRecoveries)
	}

	events, err := wal.Read[journalEvent](journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	var sawProgress, sawFault, sawDone bool
	for _, ev := range events {
		if ev.JobID != id {
			continue
		}
		switch ev.Event {
		case "progress":
			sawProgress = true
		case "engine_fault":
			sawFault = true
			// the journal keeps the cause, not just the kind
			if !strings.Contains(ev.Error, "frame checksum mismatch") {
				t.Errorf("engine_fault event error %q does not carry its cause", ev.Error)
			}
		case "done":
			sawDone = true
		}
	}
	if !sawProgress || !sawFault || !sawDone {
		t.Fatalf("journal missing events: progress=%v engine_fault=%v done=%v",
			sawProgress, sawFault, sawDone)
	}
}
