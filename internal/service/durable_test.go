package service

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"swquake/internal/checkpoint"
	"swquake/internal/core"
	"swquake/internal/faultinject"
	"swquake/internal/scenario"
	"swquake/internal/wal"
)

// quickSpec is a replayable quickstart submission.
func quickSpec(steps int) *JobSpec {
	return &JobSpec{Scenario: "quickstart", Overrides: scenario.Overrides{Steps: steps}}
}

func submitSpec(t *testing.T, s *Service, sp *JobSpec) string {
	t.Helper()
	req, err := sp.Request()
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestDurableLifecycleIsJournaled(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Workers: 1, DataDir: dir, CheckpointEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	id := submitSpec(t, s, quickSpec(35))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if st, err := s.Wait(ctx, id); err != nil || st.State != StateDone {
		t.Fatalf("wait: %+v %v", st, err)
	}
	drain(t, s)

	events, err := wal.Read[journalEvent](journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, ev := range events {
		if ev.JobID == id {
			kinds = append(kinds, ev.Event)
		}
	}
	seq := strings.Join(kinds, ",")
	if !strings.HasPrefix(seq, "submitted,started,progress") || !strings.HasSuffix(seq, "done") {
		t.Fatalf("journal sequence %q", seq)
	}
	if m := metricsOf(s); m.JournalEvents != int64(len(events)) || m.CheckpointsSaved == 0 {
		t.Fatalf("metrics %+v vs %d events", m, len(events))
	}
	// the dumps were written beside the solver: their time shows in the
	// job's manifest and in the service total, not in the stage table
	res, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Manifest.Checkpoints); n != 3 || res.Manifest.CheckpointWriteSeconds <= 0 {
		t.Fatalf("manifest: %d checkpoints, %g write seconds", n, res.Manifest.CheckpointWriteSeconds)
	}
	var buf bytes.Buffer
	if err := s.Registry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("swquake_checkpoint_write_seconds_total %v\n",
		float64(int64(res.Manifest.CheckpointWriteSeconds*1e9))/1e9)
	if text := buf.String(); !strings.Contains(text, "swquake_checkpoints_saved_total 3\n") || !strings.Contains(text, want) {
		t.Fatalf("exposition lacks the checkpoint counters (want %q):\n%s", want, text)
	}
	// finished job leaves no checkpoints behind
	if entries, _ := os.ReadDir(filepath.Join(dir, "checkpoints")); len(entries) != 0 {
		t.Fatalf("checkpoint debris: %v", entries)
	}
}

func TestRecoveryRequeuesUnfinishedSkipsTerminal(t *testing.T) {
	dir := t.TempDir()
	// hand-build the journal a crashed daemon would leave: one job done,
	// one mid-run, one only submitted
	jl, err := wal.Open[journalEvent](journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []journalEvent{
		{Event: "submitted", JobID: "job-000001", Spec: quickSpec(25)},
		{Event: "started", JobID: "job-000001", Attempt: 1},
		{Event: "done", JobID: "job-000001", Attempt: 1},
		{Event: "submitted", JobID: "job-000002", Spec: quickSpec(30)},
		{Event: "started", JobID: "job-000002", Attempt: 1},
		{Event: "progress", JobID: "job-000002", Attempt: 1, Step: 25},
		{Event: "submitted", JobID: "job-000003", Spec: quickSpec(35)},
	} {
		if err := jl.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()

	s, err := Open(Options{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)

	if m := metricsOf(s); m.Recovered != 2 {
		t.Fatalf("recovered %d jobs, want 2", m.Recovered)
	}
	if _, err := s.Status("job-000001"); err == nil {
		t.Fatal("terminal job resurfaced after recovery")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, id := range []string{"job-000002", "job-000003"} {
		st, err := s.Wait(ctx, id)
		if err != nil || st.State != StateDone {
			t.Fatalf("%s: %+v %v", id, st, err)
		}
		if !st.Recovered || st.Attempt != 2 && id == "job-000002" {
			t.Fatalf("%s: recovered=%v attempt=%d", id, st.Recovered, st.Attempt)
		}
		if _, err := s.Result(id); err != nil {
			t.Fatalf("%s result: %v", id, err)
		}
	}

	// new submissions continue the ID sequence past the recovered jobs
	id := submitSpec(t, s, quickSpec(20))
	if id != "job-000004" {
		t.Fatalf("next ID %s", id)
	}
}

func TestRetryAfterInjectedPanic(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()

	s, clk := openOnFake(t, Options{Workers: 1, MaxAttempts: 3})
	defer drain(t, s)

	faultinject.Enable(faultinject.WorkerPanic, faultinject.Fault{Times: 1})
	id, err := s.Submit(Request{Config: tinyConfig(25)})
	if err != nil {
		t.Fatal(err)
	}
	endBackoff(t, s, clk, id)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := s.Wait(ctx, id)
	if err != nil || st.State != StateDone {
		t.Fatalf("wait: %+v %v", st, err)
	}
	if st.Attempt != 2 {
		t.Fatalf("attempt %d, want 2", st.Attempt)
	}
	m := metricsOf(s)
	if m.WorkerPanics != 1 || m.Retried != 1 || m.Done != 1 {
		t.Fatalf("metrics %+v", m)
	}
}

func TestPanicsExhaustAttemptsThenFailJobNotDaemon(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()

	s, clk := openOnFake(t, Options{Workers: 1, MaxAttempts: 2})
	defer drain(t, s)

	faultinject.Enable(faultinject.WorkerPanic, faultinject.Fault{}) // every attempt
	id, err := s.Submit(Request{Config: tinyConfig(25)})
	if err != nil {
		t.Fatal(err)
	}
	endBackoff(t, s, clk, id)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := s.Wait(ctx, id)
	if err != nil || st.State != StateFailed {
		t.Fatalf("wait: %+v %v", st, err)
	}
	if !strings.Contains(st.Error, "panicked") || st.Attempt != 2 {
		t.Fatalf("status %+v", st)
	}

	// the daemon survived: the next job runs normally
	faultinject.Disable(faultinject.WorkerPanic)
	id2, err := s.Submit(Request{Config: tinyConfig(20)})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := s.Wait(ctx, id2); err != nil || st.State != StateDone {
		t.Fatalf("follow-up job: %+v %v", st, err)
	}
}

func TestRetryResumesFromCheckpoint(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()

	dir := t.TempDir()
	s, clk := openOnFake(t, Options{Workers: 1, DataDir: dir, CheckpointEvery: 10, MaxAttempts: 3})
	defer drain(t, s)

	// checkpoints at steps 10 and 20 succeed, the one at step 30 fails the
	// run; the retry must resume from step 20 instead of recomputing
	faultinject.Enable(faultinject.CheckpointWrite, faultinject.Fault{Skip: 2, Times: 1})
	id := submitSpec(t, s, quickSpec(45))
	endBackoff(t, s, clk, id)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := s.Wait(ctx, id)
	if err != nil || st.State != StateDone {
		t.Fatalf("wait: %+v %v", st, err)
	}
	if st.Attempt != 2 || st.ResumedStep != 20 {
		t.Fatalf("attempt=%d resumedStep=%d, want 2/20", st.Attempt, st.ResumedStep)
	}
	res, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}

	// the resumed result must match an undisturbed run bit for bit
	ref := New(Options{Workers: 1})
	defer drain(t, ref)
	refID := submitSpec(t, ref, quickSpec(45))
	if st, err := ref.Wait(ctx, refID); err != nil || st.State != StateDone {
		t.Fatalf("reference: %+v %v", st, err)
	}
	refRes, err := ref.Result(refID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != len(refRes.Traces) {
		t.Fatalf("trace count %d vs %d", len(res.Traces), len(refRes.Traces))
	}
	for i := range res.Traces {
		got, want := res.Traces[i], refRes.Traces[i]
		if len(got.U) != len(want.U) {
			t.Fatalf("trace %d samples %d vs %d", i, len(got.U), len(want.U))
		}
		for n := range got.U {
			if got.U[n] != want.U[n] || got.V[n] != want.V[n] || got.W[n] != want.W[n] {
				t.Fatalf("trace %d sample %d differs", i, n)
			}
		}
	}
	if res.Manifest.SurfacePGV != refRes.Manifest.SurfacePGV ||
		res.Manifest.YieldedPointSteps != refRes.Manifest.YieldedPointSteps {
		t.Fatalf("manifest differs: PGV %g vs %g", res.Manifest.SurfacePGV, refRes.Manifest.SurfacePGV)
	}
}

func TestRetryFallsBackPastCorruptCheckpoint(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()

	dir := t.TempDir()
	s, clk := openOnFake(t, Options{Workers: 1, DataDir: dir, CheckpointEvery: 10, MaxAttempts: 3})
	defer drain(t, s)

	// checkpoint at 10 is fine, the one at 20 is corrupted on disk, the
	// save at 30 errors the run: the retry must skip the damaged step-20
	// dump and resume from step 10
	faultinject.Enable(faultinject.CheckpointCorrupt, faultinject.Fault{Skip: 1, Times: 1})
	faultinject.Enable(faultinject.CheckpointWrite, faultinject.Fault{Skip: 2, Times: 1})
	id := submitSpec(t, s, quickSpec(45))
	endBackoff(t, s, clk, id)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := s.Wait(ctx, id)
	if err != nil || st.State != StateDone {
		t.Fatalf("wait: %+v %v", st, err)
	}
	if st.Attempt != 2 || st.ResumedStep != 10 {
		t.Fatalf("attempt=%d resumedStep=%d, want 2/10", st.Attempt, st.ResumedStep)
	}
}

func TestDrainParksRetryingJobForNextBoot(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()

	dir := t.TempDir()
	s, _ := openOnFake(t, Options{Workers: 1, DataDir: dir, MaxAttempts: 3}) // a clock that stands still: the backoff never ends
	faultinject.Enable(faultinject.WorkerPanic, faultinject.Fault{Times: 1})
	id := submitSpec(t, s, quickSpec(30))
	waitState(t, s, id, StateRetrying)
	drain(t, s)
	if st, _ := s.Status(id); st.State != StateFailed {
		t.Fatalf("after drain: %s", st.State)
	}

	// the failure was the shutdown, not the job: the next boot retries it
	faultinject.Disable(faultinject.WorkerPanic)
	s2, err := Open(Options{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s2)
	if m := s2.Metrics(); m.Recovered != 1 {
		t.Fatalf("recovered %d, want 1", m.Recovered)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if st, err := s2.Wait(ctx, id); err != nil || st.State != StateDone {
		t.Fatalf("recovered job: %+v %v", st, err)
	}
}

func TestCancelDuringRetryBackoff(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()

	s, clk := openOnFake(t, Options{Workers: 1, MaxAttempts: 3})
	defer drain(t, s)
	faultinject.Enable(faultinject.WorkerPanic, faultinject.Fault{Times: 1})
	id, err := s.Submit(Request{Config: tinyConfig(25)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id, StateRetrying)
	if !s.Cancel(id) {
		t.Fatal("cancel failed")
	}
	clk.Advance(time.Hour) // the backoff timer was stopped: nothing comes back
	st, err := s.Status(id)
	if err != nil || st.State != StateCanceled || metricsOf(s).Queued != 0 {
		t.Fatalf("status %+v %v, %d queued", st, err, metricsOf(s).Queued)
	}
}

func TestRecoveredJobResumesFromDiskCheckpoint(t *testing.T) {
	dir := t.TempDir()
	// fabricate the on-disk remains of a crashed daemon: a journaled
	// mid-run job plus its checkpoint directory holding a valid dump
	spec := quickSpec(40)
	req, err := spec.Request()
	if err != nil {
		t.Fatal(err)
	}
	buildHalfRun(t, req, dir, "job-000007", 20)

	jl, err := wal.Open[journalEvent](journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []journalEvent{
		{Event: "submitted", JobID: "job-000007", Spec: spec},
		{Event: "started", JobID: "job-000007", Attempt: 1},
		{Event: "progress", JobID: "job-000007", Attempt: 1, Step: 20},
	} {
		if err := jl.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()

	s, err := Open(Options{Workers: 1, DataDir: dir, CheckpointEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := s.Wait(ctx, "job-000007")
	if err != nil || st.State != StateDone {
		t.Fatalf("wait: %+v %v", st, err)
	}
	if !st.Recovered || st.ResumedStep != 20 {
		t.Fatalf("recovered=%v resumedStep=%d, want true/20", st.Recovered, st.ResumedStep)
	}
}

// buildHalfRun runs the request's config for `steps` steps with durable
// checkpointing into dataDir's layout for jobID, simulating the progress a
// daemon made before it was killed.
func buildHalfRun(t *testing.T, req Request, dataDir, jobID string, steps int) string {
	t.Helper()
	ckDir := filepath.Join(dataDir, "checkpoints", jobID)
	if err := os.MkdirAll(ckDir, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := req.Config
	cfg.Steps = steps
	cfg.Checkpoint = &checkpoint.Controller{Dir: ckDir, Interval: steps, Keep: 3}
	sim, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	path, err := checkpoint.LatestValid(ckDir)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDrainDeadlineParksRunningJob: a running durable job stopped by
// Drain's deadline (a too-slow graceful shutdown) must stay recoverable —
// journal non-terminal, checkpoints on disk — and the next boot must
// resume it from checkpoint. A graceful shutdown must never lose work a
// SIGKILL would have preserved.
func TestDrainDeadlineParksRunningJob(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Workers: 1, DataDir: dir, CheckpointEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	id := submitSpec(t, s, quickSpec(100000))
	deadline := time.Now().Add(20 * time.Second)
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning && st.StepsDone >= 25 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never got going (state %s, %d steps)", st.State, st.StepsDone)
		}
		time.Sleep(2 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	s.Drain(ctx) // deadline fires immediately: the running job is parked
	st, _ := s.Status(id)
	if st.State != StateCanceled {
		t.Fatalf("after deadline drain: %s", st.State)
	}

	// durable state survived the shutdown
	events, err := wal.Read[journalEvent](journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	last := events[len(events)-1]
	if (&jobRecord{last: last.Event}).terminal() {
		t.Fatalf("deadline drain journaled terminal %q", last.Event)
	}
	if dumps, err := checkpoint.LatestValid(filepath.Join(dir, "checkpoints", id)); err != nil {
		t.Fatalf("checkpoints gone after deadline drain: %v", err)
	} else if step, ok := checkpoint.PathStep(dumps); !ok || step < 10 {
		t.Fatalf("no useful checkpoint: %s", dumps)
	}

	// next boot resumes the job mid-run instead of restarting it
	s2, err := Open(Options{Workers: 1, DataDir: dir, CheckpointEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s2)
	if m := s2.Metrics(); m.Recovered != 1 {
		t.Fatalf("recovered %d, want 1", m.Recovered)
	}
	rdl := time.Now().Add(20 * time.Second)
	for {
		st, err := s2.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		// resumedStep is published before the engine starts stepping, so
		// once the observer has ticked past the parked step it must be set
		if st.State == StateRunning && st.StepsDone >= 25 {
			if st.ResumedStep < 10 {
				t.Fatalf("recovered job restarted from step %d", st.ResumedStep)
			}
			if !st.Recovered {
				t.Fatal("recovered job not flagged")
			}
			break
		}
		if st.State.Terminal() {
			t.Fatalf("recovered job ended early: %s (%v)", st.State, st.Error)
		}
		if time.Now().After(rdl) {
			t.Fatalf("recovered job never ran (state %s)", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	s2.Cancel(id) // 100k steps: don't run them out
}

// TestLayoutThatDoesNotDivideTheMeshIsRefused: a process grid that does
// not divide the mesh could never run, so Submit refuses it instead of
// queueing a job that fails on every attempt; one journaled by a daemon
// that took it is born failed on recovery, and the boot goes on.
func TestLayoutThatDoesNotDivideTheMeshIsRefused(t *testing.T) {
	dir := t.TempDir()
	bad := quickSpec(20)
	bad.MX = 7 // the quickstart mesh is 32x32
	req, err := bad.Request()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if id, err := s.Submit(req); err == nil || !strings.Contains(err.Error(), "not divisible") {
		t.Fatalf("submit: job %q, %v; want the layout refused", id, err)
	}
	drain(t, s)

	jl, err := wal.Open[journalEvent](journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Append(journalEvent{Event: "submitted", JobID: "job-000004", Spec: bad}); err != nil {
		t.Fatal(err)
	}
	jl.Close()
	s, err = Open(Options{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	st, err := s.Status("job-000004")
	if err != nil || st.State != StateFailed || st.Attempt != 0 || !strings.Contains(st.Error, "not divisible") {
		t.Fatalf("recovered job: %+v, %v; want it born failed", st, err)
	}
}

// TestDeterministicFailuresAreNotRetried: a run that diverged and a run that
// hit the job's own deadline would end the same way on every attempt, so on
// a durable service — where a transient failure gets three attempts — both
// fail for good at the first.
func TestDeterministicFailuresAreNotRetried(t *testing.T) {
	diverging, err := quickSpec(40).Request()
	if err != nil {
		t.Fatal(err)
	}
	diverging.Config.DivergenceLimit = 1e-30
	overdue, err := quickSpec(200000).Request()
	if err != nil {
		t.Fatal(err)
	}
	overdue.Timeout = 50 * time.Millisecond
	for _, tc := range []struct {
		wantErr string
		req     Request
	}{{"diverged", diverging}, {"deadline exceeded", overdue}} {
		s, err := Open(Options{Workers: 1, DataDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		id, err := s.Submit(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		st, err := s.Wait(ctx, id)
		cancel()
		if err != nil || st.State != StateFailed || !strings.Contains(st.Error, tc.wantErr) {
			t.Fatalf("%s: %+v, %v", tc.wantErr, st, err)
		}
		if m := metricsOf(s); st.Attempt != 1 || m.Retried != 0 {
			t.Errorf("%s: attempt %d, %d retried: a deterministic failure was retried", tc.wantErr, st.Attempt, m.Retried)
		}
		drain(t, s)
	}
}
