package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// event has the shape of the two real event types: a timestamp, strings, an
// optional nested spec and omitempty integers.
type event struct {
	Time  time.Time `json:"t"`
	Event string    `json:"event"`
	ID    string    `json:"id"`
	Spec  *spec     `json:"spec,omitempty"`
	Step  int       `json:"step,omitempty"`
}

type spec struct {
	Scenario string `json:"scenario"`
	Steps    int    `json:"steps,omitempty"`
}

var t0 = time.Date(2026, 10, 1, 12, 0, 0, 123456789, time.UTC)

func sampleEvents() []event {
	return []event{
		{Time: t0, Event: "submitted", ID: "job-000001", Spec: &spec{Scenario: "quickstart", Steps: 30}},
		{Time: t0.Add(time.Second), Event: "started", ID: "job-000001"},
		{Time: t0.Add(2 * time.Second), Event: "progress", ID: "job-000001", Step: 25},
	}
}

// writeLog appends the events through a Log and returns the file's bytes.
func writeLog(t *testing.T, path string, events []event) []byte {
	t.Helper()
	l, err := Open[event](path)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := l.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func sameEvents(a, b []event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if !x.Time.Equal(y.Time) || x.Event != y.Event || x.ID != y.ID || x.Step != y.Step ||
			(x.Spec == nil) != (y.Spec == nil) || (x.Spec != nil && *x.Spec != *y.Spec) {
			return false
		}
	}
	return true
}

// TestAppendReadTornLine is the one test of the log's read contract (it was
// service.TestJournalAppendReadTornLine; the campaign journal, which never
// had one, is the same code): missing and empty files, a whole log, a final
// line torn at every possible length, and corruption before the final line.
func TestAppendReadTornLine(t *testing.T) {
	dir := t.TempDir()
	events := sampleEvents()
	whole := writeLog(t, filepath.Join(dir, "whole.jsonl"), events)
	if n := bytes.Count(whole, []byte("\n")); n != len(events) || whole[len(whole)-1] != '\n' {
		t.Fatalf("%d events made %d lines:\n%s", len(events), n, whole)
	}
	lastStart := bytes.LastIndexByte(whole[:len(whole)-1], '\n') + 1

	type readCase struct {
		name    string
		content []byte // nil = no file
		want    []event
		wantErr bool
	}
	cases := []readCase{
		{name: "missing file is an empty log"},
		{name: "empty file", content: []byte{}},
		{name: "whole log", content: whole, want: events},
		{name: "blank lines are skipped", content: bytes.ReplaceAll(whole, []byte("\n"), []byte("\n\n")), want: events},
		{name: "last line without its newline is still whole", content: whole[:len(whole)-1], want: events},
		{name: "malformed middle line", wantErr: true,
			content: append(append(append([]byte{}, whole[:lastStart]...), "garbage here\n"...), whole[lastStart:]...)},
		{name: "malformed first line", content: append([]byte("{\"t\":\n"), whole...), wantErr: true},
	}
	// a kill inside Append leaves any strict prefix of the last line
	for cut := lastStart; cut < len(whole)-2; cut++ {
		cases = append(cases, readCase{name: fmt.Sprintf("last line torn after %d bytes", cut-lastStart),
			content: whole[:cut], want: events[:len(events)-1]})
	}
	for i, tc := range cases {
		path := filepath.Join(dir, fmt.Sprintf("case-%03d.jsonl", i))
		if tc.content != nil {
			if err := os.WriteFile(path, tc.content, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got, err := Read[event](path)
		if tc.wantErr {
			if err == nil || !strings.Contains(err.Error(), "line") {
				t.Errorf("%s: got %d events and error %v, want a line error", tc.name, len(got), err)
			}
			continue
		}
		if err != nil || !sameEvents(got, tc.want) {
			t.Errorf("%s: got %+v, %v; want %+v", tc.name, got, err, tc.want)
		}
	}
}

// TestAppendAfterTornTail: the next life appends behind a torn line only
// after compaction has rewritten the file, so the tear never ends up in the
// middle; and an append to a closed log is an error the caller sees.
func TestAppendAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	events := sampleEvents()
	whole := writeLog(t, path, events)
	if err := os.WriteFile(path, whole[:len(whole)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	survivors, err := Read[event](path)
	if err != nil || len(survivors) != len(events)-1 {
		t.Fatalf("torn read: %d events, %v", len(survivors), err)
	}
	if err := Rewrite(path, survivors); err != nil {
		t.Fatal(err)
	}
	l, err := Open[event](path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(events[2]); err != nil {
		t.Fatal(err)
	}
	if got, err := Read[event](path); err != nil || !sameEvents(got, events) {
		t.Fatalf("after compaction and append: %+v, %v", got, err)
	}
	l.Close()
	if err := l.Append(events[2]); err == nil {
		t.Fatal("append to a closed log succeeded")
	}
}

// TestRewriteFailureLeavesOldLog: compaction that cannot write its
// temporary file leaves the old log intact, readable, and without debris.
func TestRewriteFailureLeavesOldLog(t *testing.T) {
	events := sampleEvents()
	check := func(t *testing.T, path string, whole []byte, err error) {
		t.Helper()
		if err == nil {
			t.Fatal("rewrite succeeded")
		}
		if data, _ := os.ReadFile(path); !bytes.Equal(data, whole) {
			t.Fatalf("failed rewrite changed the log:\n%s", data)
		}
		if got, rerr := Read[event](path); rerr != nil || !sameEvents(got, events) {
			t.Fatalf("old log unreadable after failed rewrite: %v", rerr)
		}
		if entries, _ := os.ReadDir(filepath.Dir(path)); len(entries) != 1 {
			t.Fatalf("failed rewrite left debris: %v", entries)
		}
	}
	t.Run("directory refuses the temporary file", func(t *testing.T) {
		// works for root too, whom directory permissions do not stop: the log's
		// own name fits NAME_MAX, the temporary file's longer one does not
		path := filepath.Join(t.TempDir(), strings.Repeat("j", 249)+".jsonl")
		whole := writeLog(t, path, events)
		check(t, path, whole, Rewrite(path, events[:1]))
	})
	t.Run("read-only directory", func(t *testing.T) {
		if os.Getuid() == 0 {
			t.Skip("root writes into read-only directories")
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "log.jsonl")
		whole := writeLog(t, path, events)
		if err := os.Chmod(dir, 0o555); err != nil {
			t.Fatal(err)
		}
		defer os.Chmod(dir, 0o755)
		check(t, path, whole, Rewrite(path, events[:1]))
	})
	t.Run("missing directory", func(t *testing.T) {
		if err := Rewrite(filepath.Join(t.TempDir(), "no-such-dir", "log.jsonl"), events); err == nil {
			t.Fatal("rewrite succeeded")
		}
	})
}

// TestRewriteIsWhatAppendWrites: a compacted log is byte-identical to the
// same events appended one by one — one format, however the file was made.
func TestRewriteIsWhatAppendWrites(t *testing.T) {
	dir := t.TempDir()
	events := sampleEvents()
	appended := writeLog(t, filepath.Join(dir, "a.jsonl"), events)
	path := filepath.Join(dir, "b.jsonl")
	if err := os.WriteFile(path, []byte("old content\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Rewrite(path, events); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, appended) {
		t.Fatalf("rewrite:\n%s\nappend:\n%s", got, appended)
	}
	if err := Rewrite(path, []event(nil)); err != nil {
		t.Fatal(err)
	}
	if got, err := Read[event](path); err != nil || len(got) != 0 {
		t.Fatalf("empty rewrite read back %d events, %v", len(got), err)
	}
}

// TestRecover: the boot sequence hands the caller what the last process
// left (torn tail dropped), leaves exactly what the caller keeps, and
// returns the log open for the next append; a corrupt log is an error and
// stays as it was.
func TestRecover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	events := sampleEvents()
	whole := writeLog(t, path, events)
	if err := os.WriteFile(path, append(whole, `{"t":"2026-`...), 0o644); err != nil {
		t.Fatal(err)
	}
	var seen []event
	log, err := Recover(path, func(all []event) []event { seen = all; return all[1:2] })
	if err != nil || !sameEvents(seen, events) {
		t.Fatalf("compact saw %d events, %v", len(seen), err)
	}
	if err := log.Append(events[0]); err != nil {
		t.Fatal(err)
	}
	log.Close()
	if got, err := Read[event](path); err != nil || !sameEvents(got, []event{events[1], events[0]}) {
		t.Fatalf("after recover + append: %+v, %v", got, err)
	}

	corrupt := []byte("not json\n" + string(whole))
	os.WriteFile(path, corrupt, 0o644)
	if _, err := Recover(path, func([]event) []event { t.Error("compact ran on a corrupt log"); return nil }); err == nil {
		t.Fatal("corrupt log recovered")
	}
	if data, _ := os.ReadFile(path); !bytes.Equal(data, corrupt) {
		t.Fatal("failed recover changed the log")
	}
	if log, err := Recover(filepath.Join(t.TempDir(), "fresh.jsonl"), func(all []event) []event { return all }); err != nil || log.Close() != nil {
		t.Fatalf("missing file: %v", err)
	}
}

// TestConcurrentAppendsYieldWholeLines: 8 goroutines appending at once never
// interleave bytes — every line parses and every event is there once.
func TestConcurrentAppendsYieldWholeLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := Open[event](path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				ev := event{Time: t0, Event: "progress", ID: fmt.Sprintf("job-%06d", w), Step: i + 1,
					Spec: &spec{Scenario: strings.Repeat("x", 200+w)}}
				if err := l.Append(ev); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Read[event](path)
	if err != nil {
		t.Fatal(err)
	}
	next := map[string]int{}
	for _, ev := range got {
		if ev.Step != next[ev.ID]+1 { // each writer's events stay in its order
			t.Fatalf("%s: step %d after %d", ev.ID, ev.Step, next[ev.ID])
		}
		next[ev.ID] = ev.Step
	}
	if len(got) != writers*each || len(next) != writers {
		t.Fatalf("read %d events from %d writers, want %d from %d", len(got), len(next), writers*each, writers)
	}
}

// FuzzRead: Read never panics on arbitrary bytes, and whatever it accepts
// re-marshals (Rewrite) to a log it accepts again with the same events.
func FuzzRead(f *testing.F) {
	whole := `{"t":"2026-10-01T12:00:00.123456789Z","event":"submitted","id":"job-000001","spec":{"scenario":"quickstart","steps":30}}` + "\n" +
		`{"t":"2026-10-01T12:00:01Z","event":"progress","id":"job-000001","step":25}` + "\n"
	f.Add([]byte(whole))
	f.Add([]byte(whole[:len(whole)-17]))
	f.Add([]byte("garbage\n" + whole))
	f.Add([]byte("\n\n{}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "log.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		events, err := Read[event](path)
		if err != nil {
			return
		}
		again := filepath.Join(dir, "again.jsonl")
		if err := Rewrite(again, events); err != nil {
			t.Fatalf("accepted events do not re-marshal: %v", err)
		}
		got, err := Read[event](again)
		if err != nil || !sameEvents(got, events) {
			t.Fatalf("re-marshaled log reads back differently: %v\n in: %+v\nout: %+v", err, events, got)
		}
	})
}
