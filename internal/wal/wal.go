// Package wal is the one write-ahead-log format of the repo: a JSONL file,
// one event per line, appended under fsync. The job service's
// journal.jsonl and the campaign manager's campaigns.jsonl are both this
// log over their own event type; what an event means, how a replay folds
// and what a boot compaction keeps stay with them.
//
// The contract: Append returns only after the line is written and synced,
// so an event a caller acted on survives a process kill at any point; a
// kill inside Append leaves at worst one torn final line, which Read
// drops; a malformed line anywhere else is corruption and an error.
// Rewrite replaces the whole file atomically (temp + fsync + rename via
// internal/atomicio), so a crash during boot compaction leaves the old log;
// Recover is the read, compact, rewrite, open sequence both journals boot by.
package wal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"swquake/internal/atomicio"
	"swquake/internal/faultinject"
)

// Recover is the boot sequence of a log: read what the last process left,
// atomically rewrite the file as just the events compact keeps of it — which
// is also where the caller folds them into its own records — and open the
// result for appending.
func Recover[E any](path string, compact func(events []E) []E) (*Log[E], error) {
	events, err := Read[E](path)
	if err != nil {
		return nil, err
	}
	if err := Rewrite(path, compact(events)); err != nil {
		return nil, err
	}
	return Open[E](path)
}

// Log is an open log of events of type E, safe for concurrent Append.
type Log[E any] struct {
	mu sync.Mutex
	f  *os.File
}

// Open opens the log at path for appending, creating it if needed.
func Open[E any](path string) (*Log[E], error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &Log[E]{f: f}, nil
}

// Append durably writes one event: one line, one write, one fsync.
func (l *Log[E]) Append(ev E) error {
	faultinject.Fire(faultinject.SlowIO)
	line, err := marshalLine(ev)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Write(line); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close closes the file; a later Append fails.
func (l *Log[E]) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

func marshalLine[E any](ev E) ([]byte, error) {
	line, err := json.Marshal(ev)
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// Read loads every event of the log at path. A missing file is an empty
// log. A torn final line (the crash window of Append) is silently dropped;
// a malformed line elsewhere is a real error.
func Read[E any](path string) ([]E, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var events []E
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var badLine error
	for n := 1; sc.Scan(); n++ {
		if badLine != nil {
			return nil, badLine // malformed line was NOT the last one
		}
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev E
		if err := json.Unmarshal(line, &ev); err != nil {
			badLine = fmt.Errorf("wal: %s: line %d: %w", path, n, err)
			continue
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("wal: %s: %w", path, err)
	}
	return events, nil
}

// Rewrite atomically replaces the log at path with exactly these events —
// boot compaction, run before Open. On error the old file is untouched.
func Rewrite[E any](path string, events []E) error {
	var buf bytes.Buffer
	for _, ev := range events {
		line, err := marshalLine(ev)
		if err != nil {
			return err
		}
		buf.Write(line)
	}
	return atomicio.WriteFileBytes(path, buf.Bytes())
}
