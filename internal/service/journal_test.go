package service

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"os"
	"strings"
	"testing"
	"time"

	"swquake/internal/admission"
	"swquake/internal/wal"
)

const parentJournal = "testdata/journal-f57a6ee.jsonl"

// TestParentWrittenJournal is the format proof: testdata/journal-f57a6ee.jsonl
// was appended by commit f57a6ee's private journal type (its openJournal and
// append), one line per event kind the service writes, over five jobs. This
// code must replay it to the same records, write the same bytes for the same
// events, and boot a service on it that recovers the same jobs.
func TestParentWrittenJournal(t *testing.T) {
	want, err := os.ReadFile(parentJournal)
	if err != nil {
		t.Fatal(err)
	}
	events, err := wal.Read[journalEvent](parentJournal)
	if err != nil || len(events) != 16 {
		t.Fatalf("read %d events, %v", len(events), err)
	}

	type rec struct {
		id, state, scenario string
		attempt             int
		terminal            bool
	}
	var got []rec
	for _, r := range replayJournal(events) {
		got = append(got, rec{r.id, r.last, r.spec.Scenario, r.attempt, r.terminal()})
	}
	wantRecs := []rec{
		{"job-000001", "done", "quickstart", 1, true},
		{"job-000002", "progress", "quickstart", 2, false},
		{"job-000003", "canceled", "quickstart", 0, true},
		{"job-000004", "failed", "tangshan", 1, true},
		{"job-000005", "submitted", "quickstart", 2, false},
	}
	if len(got) != len(wantRecs) {
		t.Fatalf("replayed %d records: %+v", len(got), got)
	}
	for i := range got {
		if got[i] != wantRecs[i] {
			t.Errorf("record %d: %+v, want %+v", i, got[i], wantRecs[i])
		}
	}
	if sp := replayJournal(events)[1].spec; sp.MX != 2 || sp.MY != 1 || sp.TimeoutS != 90.5 ||
		sp.Class != "batch" || sp.Overrides.Steps != 60 || sp.Overrides.Qs != 40 {
		t.Errorf("job-000002 spec: %+v", sp)
	}

	// the same events through this code's Append: the same bytes (the
	// timestamps round-trip, so not even t differs)
	dir := t.TempDir()
	path := journalPath(dir)
	jl, err := wal.Open[journalEvent](path)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := jl.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()
	if data, _ := os.ReadFile(path); !bytes.Equal(data, want) {
		t.Fatalf("re-appended journal differs from the parent's:\n%s", data)
	}

	// a boot on the parent's data directory recovers the two live jobs with
	// their attempts, and numbers new jobs after the highest old ID; the
	// compacted events carry no step, which the checkpoint directory holds
	before := time.Now()
	s, err := Open(Options{Workers: 1, DataDir: dir, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	if m := metricsOf(s); m.Recovered != 2 || m.Submitted != 2 {
		t.Fatalf("recovered %d of %d submitted, want 2 of 2", m.Recovered, m.Submitted)
	}
	compacted, err := wal.Read[journalEvent](path)
	if err != nil || len(compacted) < 2 {
		t.Fatalf("compacted journal: %d events, %v", len(compacted), err)
	}
	for i, w := range []rec{wantRecs[1], wantRecs[4]} {
		ev := compacted[i]
		if ev.Event != "submitted" || ev.JobID != w.id || ev.Attempt != w.attempt || ev.Step != 0 ||
			ev.Spec == nil || ev.Spec.Scenario != w.scenario || ev.Time.Before(before) {
			t.Errorf("compacted event %d: %+v, want submitted %+v", i, ev, w)
		}
	}
	id := submitSpec(t, s, quickSpec(5))
	if id != "job-000006" {
		t.Fatalf("first new job is %s, want job-000006", id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, id := range []string{"job-000002", "job-000005", id} {
		st, err := s.Wait(ctx, id)
		if err != nil || st.State != StateDone {
			t.Fatalf("%s: %+v, %v", id, st, err)
		}
		if rec := id != "job-000006"; st.Recovered != rec || (rec && st.Attempt != 3) {
			t.Errorf("%s: recovered=%v attempt=%d", id, st.Recovered, st.Attempt)
		}
	}
}

// parentCrashJournal is what commit 86ad5bd's service left behind a crash,
// byte for byte: job 1 done, job 2 (batch) killed while running past its
// step-25 checkpoint, job 3 waiting out a retry backoff.
const parentCrashJournal = `{"t":"2026-10-03T09:00:00Z","event":"submitted","job":"job-000001","spec":{"scenario":"quickstart","overrides":{"steps":20}}}
{"t":"2026-10-03T09:00:00.0015Z","event":"started","job":"job-000001","attempt":1}
{"t":"2026-10-03T09:00:00.003Z","event":"submitted","job":"job-000002","spec":{"scenario":"quickstart","overrides":{"steps":30},"class":"batch"}}
{"t":"2026-10-03T09:00:00.0045Z","event":"done","job":"job-000001","attempt":1}
{"t":"2026-10-03T09:00:00.006Z","event":"started","job":"job-000002","attempt":1}
{"t":"2026-10-03T09:00:00.0075Z","event":"submitted","job":"job-000003","spec":{"scenario":"quickstart","overrides":{"steps":25}}}
{"t":"2026-10-03T09:00:00.009Z","event":"progress","job":"job-000002","attempt":1,"step":25}
{"t":"2026-10-03T09:00:00.0105Z","event":"started","job":"job-000003","attempt":1}
{"t":"2026-10-03T09:00:00.012Z","event":"retrying","job":"job-000003","attempt":1,"error":"service: job job-000003 panicked: injected worker panic"}
`

// TestBootRecoversTheParentsCrashJournal: the boot sequence now lives in
// wal.Recover; a journal the parent's code wrote must requeue exactly the
// set the parent's own reboot would — the running and the retrying job, each
// with its attempt, in its class — forget the finished one, and leave the
// file compacted to those two.
func TestBootRecoversTheParentsCrashJournal(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(journalPath(dir), []byte(parentCrashJournal), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Workers: 1, DataDir: dir, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	if m := metricsOf(s); m.Recovered != 2 || m.Submitted != 2 {
		t.Fatalf("recovered %d of %d submitted, want 2 of 2", m.Recovered, m.Submitted)
	}
	if _, err := s.Status("job-000001"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("the finished job came back: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for id, class := range map[string]admission.Class{"job-000002": admission.ClassBatch, "job-000003": admission.ClassInteractive} {
		st, err := s.Wait(ctx, id)
		if err != nil || st.State != StateDone || !st.Recovered || st.Attempt != 2 {
			t.Errorf("%s: %+v, %v", id, st, err)
		}
		if got := s.jobs[id].item.Class; got != class {
			t.Errorf("%s requeued in class %q, want %q", id, got, class)
		}
	}
	events, err := wal.Read[journalEvent](journalPath(dir))
	if err != nil || len(events) < 2 {
		t.Fatalf("compacted journal: %d events, %v", len(events), err)
	}
	for i, want := range []journalEvent{
		{Event: "submitted", JobID: "job-000002", Attempt: 1},
		{Event: "submitted", JobID: "job-000003", Attempt: 1},
	} {
		if got := events[i]; got.Event != want.Event || got.JobID != want.JobID || got.Attempt != want.Attempt || got.Step != want.Step || got.Spec == nil {
			t.Errorf("compacted event %d: %+v, want %+v", i, got, want)
		}
	}
}

// TestJobIDsNeverRepeatAcrossBoots: a boot that finds nothing live still
// compacts the journal, and the third boot must number its first job after
// every job the first one issued — otherwise an old job ID names a new job.
// The compacted file keeps just the highest job's ending, in the event form
// an older binary replays to the same high-water mark.
func TestJobIDsNeverRepeatAcrossBoots(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	boot := func() *Service {
		s, err := Open(Options{Workers: 1, DataDir: dir, CheckpointEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := boot()
	for _, steps := range []int{5, 6} {
		if st, err := s.Wait(ctx, submitSpec(t, s, quickSpec(steps))); err != nil || st.State != StateDone {
			t.Fatalf("%+v, %v", st, err)
		}
	}
	drain(t, s)
	drain(t, boot()) // nothing live: the compaction keeps only the high-water mark

	events, err := wal.Read[journalEvent](journalPath(dir))
	if err != nil || len(events) != 1 || events[0].Event != "done" || events[0].JobID != "job-000002" || events[0].Spec != nil {
		t.Fatalf("compacted journal %+v, %v; want job-000002's done alone", events, err)
	}
	s = boot()
	defer drain(t, s)
	if id := submitSpec(t, s, quickSpec(7)); id != "job-000003" {
		t.Fatalf("third boot's first job is %s, want job-000003", id)
	}
}

// TestJournalAppendFailureIsCountedAndLogged: a journal that cannot be
// written (closed underneath the service, as a full or failing disk would
// look) no longer fails silently — Submit keeps its contract and accepts the
// job, but the lost durable record is counted and logged with the job and
// the event, in both views.
func TestJournalAppendFailureIsCountedAndLogged(t *testing.T) {
	var logs syncBuffer
	s, err := Open(Options{Workers: 1, DataDir: t.TempDir(), CheckpointEvery: -1,
		Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ok := submitSpec(t, s, quickSpec(5))
	if st, err := s.Wait(ctx, ok); err != nil || st.State != StateDone { // Wait returns after the done event
		t.Fatalf("%+v, %v", st, err)
	}
	healthy := metricsOf(s)
	if healthy.JournalEvents != 3 || healthy.JournalErrors != 0 {
		t.Fatalf("healthy journal: %+v", healthy)
	}

	s.wal.Close()
	id := submitSpec(t, s, quickSpec(6))
	if st, err := s.Wait(ctx, id); err != nil || st.State != StateDone {
		t.Fatalf("%+v, %v", st, err)
	}
	m := metricsOf(s)
	if m.JournalEvents != 3 || m.JournalErrors != 3 { // submitted, started, done
		t.Fatalf("events %d errors %d, want 3 and 3", m.JournalEvents, m.JournalErrors)
	}
	if ints := s.Registry().Ints(); ints["journal_errors"] != 3 || ints["journal_events"] != 3 {
		t.Fatalf("JSON view: %v", ints)
	}
	var expo strings.Builder
	s.Registry().WriteProm(&expo)
	if !strings.Contains(expo.String(), "swquake_journal_errors_total 3\n") {
		t.Fatalf("exposition lacks the error count:\n%s", expo.String())
	}
	for _, event := range []string{"submitted", "started", "done"} {
		want := "level=ERROR msg=\"journal append failed\" job_id=" + id + " scenario=quickstart event=" + event + " "
		if !strings.Contains(logs.String(), want) {
			t.Errorf("log lacks %q:\n%s", want, logs.String())
		}
	}
	if n := strings.Count(logs.String(), "journal append failed"); n != 3 {
		t.Errorf("%d journal failures logged, want the broken job's 3:\n%s", n, logs.String())
	}
}
