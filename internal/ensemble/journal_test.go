package ensemble

import (
	"bytes"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"swquake/internal/service"
	"swquake/internal/wal"
)

const parentJournal = "testdata/campaigns-f57a6ee.jsonl"

// TestParentWrittenJournal is the format proof for campaigns.jsonl:
// testdata/campaigns-f57a6ee.jsonl was appended by commit f57a6ee's private
// journal type, one line per event kind, over four campaigns. This code must
// replay it to the same records, write the same bytes for the same events,
// and compact the one live campaign to the events the parent kept.
func TestParentWrittenJournal(t *testing.T) {
	want, err := os.ReadFile(parentJournal)
	if err != nil {
		t.Fatal(err)
	}
	events, err := wal.Read[campaignEvent](parentJournal)
	if err != nil || len(events) != 22 {
		t.Fatalf("read %d events, %v", len(events), err)
	}

	recs := replayJournal(events)
	var got []string
	for _, r := range recs {
		got = append(got, fmt.Sprintf("%s %s jobs=%v done=%v skipped=%v scenario=%s members=%d",
			r.id, r.state, r.jobs, r.done, r.skipped, r.spec.Scenario, r.spec.Members()))
	}
	wantRecs := []string{
		"camp-000001 failed jobs=map[0:job-000001 1:job-000002 2:job-000004] done=map[1:true 2:true] " +
			"skipped=map[0:core: diverged at step 5 (max |v| = +Inf)] scenario=quickstart members=3",
		"camp-000002 created jobs=map[0:job-000003 1:job-000005] done=map[0:true] skipped=map[] scenario=quickstart members=2",
		"camp-000003 canceled jobs=map[] done=map[] skipped=map[] scenario=quickstart members=3",
		"camp-000004 done jobs=map[0:job-000006 1:job-000007 2:job-000008] done=map[0:true 1:true 2:true] " +
			"skipped=map[] scenario=quickstart members=3",
	}
	if !reflect.DeepEqual(got, wantRecs) {
		t.Fatalf("replayed records:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(wantRecs, "\n"))
	}
	live := recs[1]
	if sp := live.spec; live.terminal() || sp.MX != 2 || sp.MY != 1 || sp.TimeoutS != 30 || sp.MaxConcurrent != 2 ||
		!reflect.DeepEqual(sp.Thresholds, []float64{0.1, 0.3}) || len(sp.Variations) != 2 || sp.Variations[1].Qs != 80 {
		t.Fatalf("live campaign: terminal=%v spec=%+v", live.terminal(), live.spec)
	}

	// the same events through this code's Append: the same bytes (the
	// timestamps round-trip, so not even t differs)
	path := filepath.Join(t.TempDir(), "campaigns.jsonl")
	jl, err := wal.Open[campaignEvent](path)
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

	// boot compaction keeps the live campaign as created + last known
	// member outcomes, in the parent's order. Then, where the parent kept
	// nothing, camp-000004's ending: the highest-numbered campaign is
	// finished, and that one event is what keeps a later boot from issuing
	// its ID again
	now := time.Now()
	var kept []string
	for _, ev := range compactedJournal(recs, now) {
		if !ev.Time.Equal(now) || (ev.Spec != nil) != (ev.Event == "created") {
			t.Errorf("compacted event %+v", ev)
		}
		kept = append(kept, fmt.Sprintf("%s %s %d %s", ev.Campaign, ev.Event, ev.Member, ev.Job))
	}
	if want := []string{"camp-000002 created 0 ", "camp-000002 member 0 job-000003", "camp-000002 member 1 job-000005",
		"camp-000002 member_done 0 ", "camp-000004 done 0 "}; !reflect.DeepEqual(kept, want) {
		t.Fatalf("compacted %v, want %v", kept, want)
	}
}

// syncBuffer is a log sink safe to read while campaign goroutines write.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestJournalAppendFailureIsCountedAndLogged: with the campaign journal
// closed underneath the manager (what a failing disk looks like), Create
// keeps its contract and the campaign runs to done, but every lost durable
// record is counted and logged with the campaign and the event.
func TestJournalAppendFailureIsCountedAndLogged(t *testing.T) {
	dir := t.TempDir()
	svc, err := service.Open(service.Options{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var logs syncBuffer
	m, err := Open(Options{Service: svc, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	m.wal.Close()
	st, err := m.Create(sweepSpec(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if final := waitCampaign(t, m, st.ID); final.State != StateDone || final.Folded != 2 {
		t.Fatalf("final status %+v", final)
	}
	// created, 2x member, 2x member_done, done
	if ints := m.Registry().Ints(); ints["journal_errors"] != 6 || ints["journal_events"] != 0 {
		t.Fatalf("JSON view: %v, want 6 errors and 0 events", ints)
	}
	var expo strings.Builder
	m.Registry().WriteProm(&expo)
	if !strings.Contains(expo.String(), "swquake_campaign_journal_errors_total 6\n") {
		t.Fatalf("exposition lacks the error count:\n%s", expo.String())
	}
	for event, n := range map[string]int{"created": 1, "member": 2, "member_done": 2, "done": 1} {
		line := "level=ERROR msg=\"campaign journal append failed\" campaign=" + st.ID + " event=" + event + " "
		if got := strings.Count(logs.String(), line); got != n {
			t.Errorf("%d log records for %q, want %d:\n%s", got, event, n, logs.String())
		}
	}
	drainAll(t, m, svc)
}

// TestManifestDirectoryFailureIsLogged: when a finished campaign's state
// directory cannot be made (a file stands where DataDir/campaigns/<id>
// should be) the manifest is not written, and that is logged with the
// campaign like any other failed manifest write — not dropped.
func TestManifestDirectoryFailureIsLogged(t *testing.T) {
	dir := t.TempDir()
	svc, err := service.Open(service.Options{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var logs syncBuffer
	m, err := Open(Options{Service: svc, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(m.stateDir("camp-000001"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := m.Create(sweepSpec(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "camp-000001" {
		t.Fatalf("campaign %s, the test blocked the directory of camp-000001", st.ID)
	}
	if final := waitCampaign(t, m, st.ID); !final.State.Terminal() {
		t.Fatalf("final status %+v", final)
	}
	drainAll(t, m, svc)
	line := "level=ERROR msg=\"campaign manifest write failed\" campaign=" + st.ID + " "
	if got := strings.Count(logs.String(), line); got != 1 {
		t.Fatalf("%d log records of the failed manifest write, want 1:\n%s", got, logs.String())
	}
}

// TestUnsavedFieldIsNotJournaledDone: a member whose field cannot be
// persisted (a file stands where the campaign's state directory should be)
// still folds in memory, but the journal never claims it done — member_done
// is written only behind a field on disk, so a reboot would re-run the
// member rather than re-fold a field that is not there.
func TestUnsavedFieldIsNotJournaledDone(t *testing.T) {
	dir := t.TempDir()
	svc, err := service.Open(service.Options{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var logs syncBuffer
	m, err := Open(Options{Service: svc, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(m.stateDir("camp-000001"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := m.Create(sweepSpec(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if final := waitCampaign(t, m, st.ID); final.State != StateDone || final.Folded != 2 {
		t.Fatalf("final status %+v", final)
	}
	drainAll(t, m, svc)
	events, err := wal.Read[campaignEvent](filepath.Join(dir, "campaigns.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, ev := range events {
		kinds = append(kinds, ev.Event)
	}
	if want := []string{"created", "member", "member", "done"}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("journal %v, want %v", kinds, want)
	}
	if n := strings.Count(logs.String(), `msg="member field persist failed"`); n != 2 {
		t.Fatalf("%d persist failures logged, want 2:\n%s", n, logs.String())
	}
}
