package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds one component's metrics. A metric is declared exactly once,
// at the component's construction, with everything both of its views need:
// the key it has in the flat integer JSON object (Ints — what quaked's
// /metrics and /debug/vars serve; "" leaves it out), its Prometheus family
// name, kind and help (WriteProm; "" name leaves it out). The typed metrics
// (Counter, Gauge, CounterVec, Histogram) are returned to the owner, which
// keeps them in struct fields and updates them with one atomic operation;
// the *Func registrations sample state that lives elsewhere at scrape time.
// Declaring a key or a family name twice is a bug and panics.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
}

type metric struct {
	key             string       // JSON key, with count
	count           func() int64 // integer value: the JSON view, and the family's sample unless value is set
	name, help, typ string
	// at most one of the Prometheus-only collectors is set
	value  func() float64
	values func() map[string]float64 // label value -> sample
	label  string                    // label name for values and hists
	hist   func() HistogramSnapshot
	hists  map[string]*Histogram // label value -> series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, old := range r.metrics {
		if (m.key != "" && m.key == old.key) || (m.name != "" && m.name == old.name) {
			panic("telemetry: metric declared twice: " + m.key + " " + m.name)
		}
	}
	r.metrics = append(r.metrics, m)
}

// Counter is a monotonically increasing integer.
type Counter struct{ v atomic.Int64 }

// Add adds n (n >= 0 on a counter) and returns the new value.
func (c *Counter) Add(n int64) int64 { return c.v.Add(n) }

// Value returns the current value.
func (c *Counter) Value() int64 { return c.v.Load() }

// Counter declares an integer counter in both views.
func (r *Registry) Counter(key, name, help string) *Counter {
	c := new(Counter)
	r.add(metric{key: key, count: c.Value, name: name, help: help, typ: "counter"})
	return c
}

// Gauge is an integer that goes up and down: a Counter whose Add also takes
// negative n.
type Gauge struct{ Counter }

// RaiseTo lifts the gauge to v unless it is already there or higher — a
// high-water mark.
func (g *Gauge) RaiseTo(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Gauge declares an integer gauge in both views.
func (r *Registry) Gauge(key, name, help string) *Gauge {
	g := new(Gauge)
	r.add(metric{key: key, count: g.Value, name: name, help: help, typ: "gauge"})
	return g
}

// CounterVec is a counter family over one label whose values are all
// declared up front: every series exists (at zero) from boot, so dashboards
// see zeros rather than absent series, and adding is a scan of a handful of
// strings and one atomic add. An undeclared value is a bug and panics.
type CounterVec struct {
	labels []string
	series []Counter
}

// Add adds n to the series of the label value.
func (v *CounterVec) Add(label string, n int64) {
	for i, l := range v.labels {
		if l == label {
			v.series[i].Add(n)
			return
		}
	}
	panic("telemetry: undeclared label value " + label)
}

// Total sums every series — the family's value in the JSON view.
func (v *CounterVec) Total() (n int64) {
	for i := range v.series {
		n += v.series[i].Value()
	}
	return n
}

func (v *CounterVec) samples() map[string]float64 {
	out := make(map[string]float64, len(v.labels))
	for i, l := range v.labels {
		out[l] = float64(v.series[i].Value())
	}
	return out
}

// CounterVec declares a one-label counter family over the given label
// values; its JSON value is the total over them.
func (r *Registry) CounterVec(key, name, help, label string, values ...string) *CounterVec {
	v := &CounterVec{labels: values, series: make([]Counter, len(values))}
	r.add(metric{key: key, count: v.Total, name: name, help: help, typ: "counter", label: label, values: v.samples})
	return v
}

// CounterFunc declares a Prometheus-only counter sampled from fn.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.add(metric{name: name, help: help, typ: "counter", value: fn})
}

// GaugeFunc declares a Prometheus-only gauge sampled from fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(metric{name: name, help: help, typ: "gauge", value: fn})
}

// LabeledCounterFunc declares a Prometheus-only counter family with one
// label; fn returns the current sample per label value. Label values are
// rendered sorted so the exposition is deterministic.
func (r *Registry) LabeledCounterFunc(name, help, label string, fn func() map[string]float64) {
	r.add(metric{name: name, help: help, typ: "counter", label: label, values: fn})
}

// Histogram declares a Prometheus-only histogram family over the bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.add(metric{name: name, help: help, typ: "histogram", hist: h.Snapshot})
	return h
}

// HistogramVec declares a Prometheus-only one-label histogram family over
// the bounds: one series per label value, all declared up front like a
// CounterVec's, so each exists (empty) from boot. Observing under a value
// that was not declared is a bug and a nil dereference.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64, values ...string) map[string]*Histogram {
	hists := make(map[string]*Histogram, len(values))
	for _, v := range values {
		hists[v] = NewHistogram(bounds)
	}
	r.add(metric{name: name, help: help, typ: "histogram", label: label, hists: hists})
	return hists
}

func (r *Registry) snapshot() []metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]metric(nil), r.metrics...)
}

// Ints is the JSON view: every metric declared with a key, as integers.
func (r *Registry) Ints() map[string]int64 {
	out := make(map[string]int64)
	for _, m := range r.snapshot() {
		if m.key != "" {
			out[m.key] = m.count()
		}
	}
	return out
}

// WriteProm renders every metric declared with a family name in the
// Prometheus text exposition format (version 0.0.4, the format promtool and
// every scraper accept), in declaration order, sampled now.
func (r *Registry) WriteProm(w io.Writer) error {
	for _, m := range r.snapshot() {
		if m.name == "" {
			continue
		}
		if m.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, escapeHelp(m.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.typ); err != nil {
			return err
		}
		var err error
		switch {
		case m.value != nil:
			_, err = fmt.Fprintf(w, "%s %s\n", m.name, formatFloat(m.value()))
		case m.values != nil:
			err = writeLabeled(w, m)
		case m.hist != nil:
			err = writeHistogram(w, m.name, "", m.hist())
		case m.hists != nil:
			for _, k := range sortedKeys(m.hists) {
				pair := fmt.Sprintf("%s=\"%s\"", m.label, escapeLabel(k))
				if err = writeHistogram(w, m.name, pair, m.hists[k].Snapshot()); err != nil {
					break
				}
			}
		default:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.count())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// sortedKeys orders label values, so the exposition is deterministic.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeLabeled(w io.Writer, m metric) error {
	samples := m.values()
	for _, k := range sortedKeys(samples) {
		if _, err := fmt.Fprintf(w, "%s{%s=\"%s\"} %s\n",
			m.name, m.label, escapeLabel(k), formatFloat(samples[k])); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders one histogram series; pair is its `label="value"`
// ("" for a family without one), which goes in front of le on the buckets.
func writeHistogram(w io.Writer, name, pair string, s HistogramSnapshot) error {
	lead, braced := "", ""
	if pair != "" {
		lead, braced = pair+",", "{"+pair+"}"
	}
	var cum int64
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"%s\"} %d\n", name, lead, formatFloat(bound), cum); err != nil {
			return err
		}
	}
	if len(s.Counts) > 0 {
		cum += s.Counts[len(s.Counts)-1]
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, lead, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, braced, formatFloat(s.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, braced, cum)
	return err
}

// formatFloat renders a sample value the way Prometheus clients do:
// shortest round-trip representation, integers without an exponent.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP string per the exposition format: backslash
// and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline — exactly the three escapes the format defines
// (promtool rejects \x-style escapes, so fmt's %q cannot be used here).
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
