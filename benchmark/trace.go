package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the benchmark
// around its own calls into the program (nothing is recorded inside the
// program). Times are nanoseconds since the tracer was created. Parent is
// the index of the span that caused this one (-1 for the root); spans of one
// operation (a repetition, a job, a campaign) share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced pass runs the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// tracedRep names the span of one traced repetition of the workload.
const tracedRep = "rep.traced"

// noSpan is the parent of root spans and what a nil tracer returns.
const noSpan = -1

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose interval the caller measured itself.
func (t *tracer) add(name string, parent, op int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)),
		End: int64(end.Sub(t.t0)), Parent: parent, Op: op})
	t.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of that interval
// its child spans cover. Children of concurrent clients may overlap, so the
// covered part is the union of the child intervals, clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// spanCoverage is the share of the named spans' wall time that lies inside
// their child spans: 1 minus their self time over their duration. For the
// traced repetitions it says how much of the workload's wall time the spans
// at the layer boundaries account for.
func spanCoverage(spans []span, name string) float64 {
	self := selfTimes(spans)
	var dur, own int64
	for i, s := range spans {
		if s.Name == name {
			dur += s.End - s.Start
			own += self[i]
		}
	}
	if dur == 0 {
		return 0
	}
	return 1 - float64(own)/float64(dur)
}

// traceFile is what a traced run writes: the spans, and per span name the
// summed duration and self time, so the file answers "where did the wall
// time go" without a viewer.
type traceFile struct {
	Workload string                `json:"workload"`
	Seed     int64                 `json:"seed"`
	Coverage float64               `json:"span_coverage"`
	ByName   map[string]nameTotals `json:"by_name"`
	Spans    []span                `json:"spans"`
}

type nameTotals struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// write stores the trace under dir as trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	by := map[string]nameTotals{}
	for i, s := range spans {
		n := by[s.Name]
		n.Count++
		n.TotalS += float64(s.End-s.Start) / 1e9
		n.SelfS += float64(self[i]) / 1e9
		by[s.Name] = n
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed,
		Coverage: spanCoverage(spans, tracedRep), ByName: by, Spans: spans})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
