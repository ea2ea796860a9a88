package telemetry

import (
	"math"
	"sync"
	"testing"
)

func TestHistogramBucketEdges(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	h.Observe(1) // exactly on a bound: le semantics, bucket 0
	h.Observe(1.0000001)
	h.Observe(5)  // last bound, bucket 2
	h.Observe(6)  // +Inf
	h.Observe(0)  // first bucket
	h.Observe(-3) // negative: first bucket, still summed

	s := h.Snapshot()
	// 1, 0, -3 → le=1; 1.0000001 → le=2; 5 → le=5; 6 → +Inf
	want := []int64{3, 1, 1, 1}
	for i, c := range want {
		if s.Counts[i] != c {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], c, s.Counts)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count %d, want 6", h.Count())
	}
	if !near(s.Sum, 1+1.0000001+5+6+0-3, 1e-9) {
		t.Fatalf("sum %g", s.Sum)
	}
}

func TestHistogramNaN(t *testing.T) {
	h := NewHistogram([]float64{1})
	h.Observe(math.NaN())
	s := h.Snapshot()
	if s.Counts[len(s.Counts)-1] != 1 {
		t.Fatalf("NaN must land in +Inf: %v", s.Counts)
	}
	if s.Sum != 0 {
		t.Fatalf("NaN must not poison the sum: %g", s.Sum)
	}
}

func TestHistogramEmptyBounds(t *testing.T) {
	h := NewHistogram(nil)
	h.Observe(42)
	s := h.Snapshot()
	if len(s.Counts) != 1 || s.Counts[0] != 1 || s.Sum != 42 {
		t.Fatalf("boundless histogram: %+v", s)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(DefLatencyBuckets)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i%100) / 100)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count %d, want %d", h.Count(), workers*per)
	}
	// each worker observes the same values, so the sum is exact in float64
	wantSum := float64(workers) * func() float64 {
		var s float64
		for i := 0; i < per; i++ {
			s += float64(i%100) / 100
		}
		return s
	}()
	if !near(h.Sum(), wantSum, 1e-6) {
		t.Fatalf("sum %g, want %g", h.Sum(), wantSum)
	}
}
