package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// checkTraceEvents validates the schema Perfetto's trace-event loader
// requires: every event has a phase, non-negative timestamp where present,
// and pid/tid fields; "X" events carry a duration.
func checkTraceEvents(t *testing.T, events []map[string]any) {
	t.Helper()
	for i, ev := range events {
		ph, _ := ev["ph"].(string)
		if ph == "" {
			t.Fatalf("event %d has no phase: %v", i, ev)
		}
		switch ph {
		case "X":
			if ts, ok := ev["ts"].(float64); !ok || ts < 0 {
				t.Fatalf("event %d bad ts: %v", i, ev)
			}
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("X event %d has no dur: %v", i, ev)
			}
		case "i":
			if ev["s"] != "t" {
				t.Fatalf("instant event %d missing scope: %v", i, ev)
			}
		case "M":
		default:
			t.Fatalf("event %d unexpected phase %q", i, ph)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("event %d has no pid: %v", i, ev)
		}
		if _, ok := ev["tid"].(float64); !ok {
			t.Fatalf("event %d has no tid: %v", i, ev)
		}
	}
}

func TestTracerProducesValidJSONArray(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	start := time.Now()
	tr.NameProcess(0, "test")
	tr.NameThread(0, 1, "job-1")
	tr.Span(0, 1, "job", "running", start, 5*time.Millisecond, map[string]any{"attempt": 1})
	tr.Instant(0, 1, "job", "checkpoint", start.Add(time.Millisecond), nil)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if n := tr.Clamped(); n != 0 {
		t.Fatalf("%d spans ran backwards", n)
	}

	// a cleanly closed trace is a strict JSON array
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("closed trace is not valid JSON: %v\n%s", err, buf.String())
	}
	checkTraceEvents(t, events)

	// and one event per line (JSONL with a trailing comma) so a torn file
	// still parses line by line
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "[" || lines[len(lines)-1] != "]" {
		t.Fatalf("trace not bracketed: first=%q last=%q", lines[0], lines[len(lines)-1])
	}
	for _, ln := range lines[1 : len(lines)-1] {
		ln = strings.TrimSuffix(ln, ",")
		var ev map[string]any
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("line is not a JSON event: %q: %v", ln, err)
		}
	}
}

func TestTracerTornFileStillLineParseable(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Span(0, 0, "c", "s", time.Now(), time.Millisecond, nil)
	if err := tr.w.Flush(); err != nil { // no Close: simulates a crash
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "[" || len(lines) != 2 {
		t.Fatalf("unexpected torn shape: %q", buf.String())
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSuffix(lines[1], ",")), &ev); err != nil {
		t.Fatalf("torn trace line unparseable: %v", err)
	}
}

func TestTracerConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	tr, err := OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const workers, per = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Span(0, w, "job", fmt.Sprintf("step-%d", i), time.Now(),
					time.Microsecond, map[string]any{"i": i})
				tr.Instant(0, w, "job", "mark", time.Now(), nil)
			}
		}(w)
	}
	wg.Wait()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if n := tr.Clamped(); n != 0 {
		t.Fatalf("%d spans ran backwards", n)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("concurrent trace is not valid JSON: %v", err)
	}
	// the trailing trace_end metadata event is part of the array
	if len(events) != workers*per*2+1 {
		t.Fatalf("parsed %d events, want %d", len(events), workers*per*2+1)
	}
	checkTraceEvents(t, events)
}

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	tr.Span(0, 0, "c", "s", time.Now(), time.Second, nil)
	tr.Instant(0, 0, "c", "i", time.Now(), nil)
	tr.NameProcess(0, "p")
	tr.NameThread(0, 0, "t")
	if err := tr.Close(); err != nil || tr.Clamped() != 0 {
		t.Fatal(err)
	}
}

// TestTracerCountsBackwardsSpans: a span that ends before it begins is drawn
// empty, and counted, so a caller whose clock runs backwards cannot hide.
func TestTracerCountsBackwardsSpans(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	start := time.Now()
	tr.Span(0, 1, "engine", "step", start, time.Millisecond, nil)
	tr.Span(0, 1, "engine", "step", start, -time.Millisecond, nil)
	tr.Span(0, 1, "engine", "step", start, 0, nil)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if n := tr.Clamped(); n != 1 {
		t.Fatalf("Clamped() = %d, want 1: only the negative span", n)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	if dur, ok := events[1]["dur"]; ok {
		t.Fatalf("the backwards span is drawn with dur %v, want empty", dur)
	}
}

func TestTracerDropsEventsAfterClose(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Close()
	tr.Span(0, 0, "c", "late", time.Now(), time.Second, nil)
	if strings.Contains(buf.String(), "late") {
		t.Fatal("event written after Close")
	}
}
