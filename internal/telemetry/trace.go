package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"
)

// Tracer writes spans in the Chrome trace-event JSON format, one event per
// line, so the file doubles as JSONL for line-oriented tooling and loads
// directly in Perfetto / chrome://tracing. The file opens with "[" and each
// event line ends with a comma; Close appends the closing "]", producing a
// strictly valid JSON array, while a file torn by a crash still loads —
// the trace-event parsers explicitly tolerate a missing terminator.
//
// All methods are safe for concurrent use and are no-ops on a nil *Tracer,
// so call sites never need a nil check.
type Tracer struct {
	mu     sync.Mutex
	w      *bufio.Writer
	c      io.Closer
	t0     time.Time
	closed bool
}

// NewTracer starts a tracer writing to w. If w is an io.Closer it is closed
// by Close.
func NewTracer(w io.Writer) *Tracer {
	t := &Tracer{w: bufio.NewWriter(w), t0: time.Now()}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	t.w.WriteString("[\n")
	return t
}

// OpenTrace creates (truncating) a trace file at path.
func OpenTrace(path string) (*Tracer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return NewTracer(f), nil
}

// traceEvent is the Chrome trace-event schema subset we emit.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds since tracer start
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// micros converts an absolute time to the trace clock (µs since t0).
func (t *Tracer) micros(at time.Time) float64 {
	us := float64(at.Sub(t.t0)) / float64(time.Microsecond)
	if us < 0 {
		us = 0
	}
	return us
}

func (t *Tracer) emit(ev traceEvent) {
	if t == nil {
		return
	}
	line, err := json.Marshal(ev)
	if err != nil {
		return // unmarshalable args: drop the event, never break the run
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.w.Write(line)
	t.w.WriteString(",\n")
}

// Span records a complete ("ph":"X") event covering [start, start+dur).
func (t *Tracer) Span(pid, tid int, cat, name string, start time.Time, dur time.Duration, args map[string]any) {
	if t == nil {
		return
	}
	if dur < 0 {
		dur = 0
	}
	t.emit(traceEvent{
		Name: name, Cat: cat, Ph: "X",
		Ts: t.micros(start), Dur: float64(dur) / float64(time.Microsecond),
		Pid: pid, Tid: tid, Args: args,
	})
}

// Instant records a thread-scoped instant ("ph":"i") event at time at.
func (t *Tracer) Instant(pid, tid int, cat, name string, at time.Time, args map[string]any) {
	if t == nil {
		return
	}
	t.emit(traceEvent{
		Name: name, Cat: cat, Ph: "i", S: "t",
		Ts: t.micros(at), Pid: pid, Tid: tid, Args: args,
	})
}

// NameProcess labels a pid in the trace viewer.
func (t *Tracer) NameProcess(pid int, name string) {
	t.meta(pid, 0, "process_name", name)
}

// NameThread labels a (pid, tid) track in the trace viewer.
func (t *Tracer) NameThread(pid, tid int, name string) {
	t.meta(pid, tid, "thread_name", name)
}

func (t *Tracer) meta(pid, tid int, kind, name string) {
	if t == nil {
		return
	}
	t.emit(traceEvent{
		Name: kind, Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name},
	})
}

// Close terminates the JSON array, flushes, and closes the underlying file
// if the tracer owns one. Further events are dropped.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	// a final metadata event (ignored by viewers) absorbs the trailing
	// comma, keeping the closed file strict valid JSON without tracking
	// first/subsequent event state
	t.w.WriteString(`{"name":"trace_end","ph":"M","pid":0,"tid":0}` + "\n]\n")
	err := t.w.Flush()
	if t.c != nil {
		if cerr := t.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
