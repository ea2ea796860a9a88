package telemetry

import (
	"math"
	"sync/atomic"
)

// DefLatencyBuckets are the default bucket upper bounds, in seconds, for
// job-latency histograms: sub-10ms cache hits through multi-minute runs.
var DefLatencyBuckets = []float64{
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// Histogram is a concurrency-safe fixed-bucket histogram with Prometheus
// `le` semantics: an observation lands in the first bucket whose upper
// bound is >= the value, values above the last bound land in +Inf, and NaN
// observations are counted in +Inf so the count never silently drops. All
// updates are atomic; Observe never allocates.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; the last entry is +Inf
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
}

// NewHistogram builds a histogram over the given strictly increasing upper
// bounds. A defensive copy is taken; an empty bounds slice yields a
// single-+Inf-bucket histogram (count and sum only).
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := len(h.bounds)
	if !math.IsNaN(v) {
		i = bucketIndex(h.bounds, v)
		for {
			old := h.sum.Load()
			if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
				break
			}
		}
	}
	h.counts[i].Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values (NaN observations excluded).
func (h *Histogram) Sum() float64 {
	return math.Float64frombits(h.sum.Load())
}

// Snapshot returns a consistent-enough copy for exposition: bucket bounds,
// per-bucket (non-cumulative) counts including the trailing +Inf bucket,
// and the running sum.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram, the shape the
// Prometheus renderer consumes.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []int64 // len(Bounds)+1, last is +Inf
	Sum    float64
}
