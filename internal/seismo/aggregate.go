package seismo

import (
	"fmt"
	"math"
	"sort"
)

// Ensemble aggregation over surface fields. A campaign of stochastic
// realizations reduces to per-cell statistics across members — the mean
// and standard-deviation hazard maps, exceedance-probability maps (the
// probabilistic counterpart of the paper's Fig. 11 deterministic
// intensity map), and percentile fields. The accumulator is streaming
// (Welford's algorithm, one field at a time), and OrderedFold pins the
// fold order to the member index so the aggregate is bit-deterministic
// no matter in which order a concurrent campaign's members complete.

// FieldStats accumulates per-cell streaming statistics over a sequence of
// equally-shaped surface fields (row-major Nx x Ny, the PGVField layout).
// Mean and variance use Welford's online update; exceedance counts how
// many members exceeded each threshold at each cell. The result of a
// given sequence of Add calls is exactly reproducible: the arithmetic
// depends only on the values and their order.
type FieldStats struct {
	Nx, Ny int
	// Thresholds are the exceedance levels, in the field's own unit
	// (m/s for PGV fields).
	Thresholds []float64

	n      int
	mean   []float64
	m2     []float64 // sum of squared deviations (Welford's M2)
	exceed []int     // len(Thresholds) blocks of Nx*Ny counts
}

// NewFieldStats creates a zeroed accumulator for nx x ny fields with the
// given exceedance thresholds (which may be empty).
func NewFieldStats(nx, ny int, thresholds []float64) *FieldStats {
	cells := nx * ny
	return &FieldStats{
		Nx: nx, Ny: ny,
		Thresholds: append([]float64(nil), thresholds...),
		mean:       make([]float64, cells),
		m2:         make([]float64, cells),
		exceed:     make([]int, len(thresholds)*cells),
	}
}

// Add folds one member field into the statistics (Welford update).
func (s *FieldStats) Add(values []float64) error {
	if len(values) != s.Nx*s.Ny {
		return fmt.Errorf("seismo: field has %d cells, stats want %dx%d", len(values), s.Nx, s.Ny)
	}
	s.n++
	n := float64(s.n)
	for i, v := range values {
		delta := v - s.mean[i]
		s.mean[i] += delta / n
		s.m2[i] += delta * (v - s.mean[i])
	}
	cells := s.Nx * s.Ny
	for t, thr := range s.Thresholds {
		block := s.exceed[t*cells : (t+1)*cells]
		for i, v := range values {
			if v >= thr {
				block[i]++
			}
		}
	}
	return nil
}

// Count reports how many fields have been folded in.
func (s *FieldStats) Count() int { return s.n }

// Mean returns a copy of the per-cell mean field.
func (s *FieldStats) Mean() []float64 {
	return append([]float64(nil), s.mean...)
}

// Variance returns the per-cell sample variance (n-1 denominator; zero
// until two members are folded).
func (s *FieldStats) Variance() []float64 {
	out := make([]float64, len(s.m2))
	if s.n < 2 {
		return out
	}
	for i, m2 := range s.m2 {
		out[i] = m2 / float64(s.n-1)
	}
	return out
}

// Std returns the per-cell sample standard deviation.
func (s *FieldStats) Std() []float64 {
	out := s.Variance()
	for i, v := range out {
		out[i] = math.Sqrt(v)
	}
	return out
}

// ExceedProb returns, per threshold, the fraction of folded members whose
// value reached the threshold at each cell — the exceedance-probability
// maps. Empty until the first Add.
func (s *FieldStats) ExceedProb() [][]float64 {
	if s.n == 0 {
		return nil
	}
	cells := s.Nx * s.Ny
	out := make([][]float64, len(s.Thresholds))
	for t := range s.Thresholds {
		block := s.exceed[t*cells : (t+1)*cells]
		probs := make([]float64, cells)
		for i, c := range block {
			probs[i] = float64(c) / float64(s.n)
		}
		out[t] = probs
	}
	return out
}

// OrderedFold feeds member fields into a FieldStats in strictly increasing
// member-index order, buffering members that arrive early. Because
// floating-point accumulation is order-sensitive, this is what makes a
// concurrent ensemble's aggregate bit-deterministic: whatever order the
// members complete in, the Welford sequence the stats see is always
// member 0, 1, 2, ... (with skipped members removed).
type OrderedFold struct {
	Stats *FieldStats

	next    int
	pending map[int][]float64
	skipped map[int]bool
	seen    map[int]bool
}

// NewOrderedFold wraps a FieldStats in index-ordered folding.
func NewOrderedFold(stats *FieldStats) *OrderedFold {
	return &OrderedFold{
		Stats:   stats,
		pending: make(map[int][]float64),
		skipped: make(map[int]bool),
		seen:    make(map[int]bool),
	}
}

// Add presents member index's field. The field is folded immediately if
// index is the next one awaited, otherwise buffered; each successful Add
// drains any buffered successors. Presenting the same index twice is an
// error.
func (f *OrderedFold) Add(index int, values []float64) error {
	if err := f.note(index); err != nil {
		return err
	}
	if len(values) != f.Stats.Nx*f.Stats.Ny {
		return fmt.Errorf("seismo: member %d field has %d cells, stats want %dx%d",
			index, len(values), f.Stats.Nx, f.Stats.Ny)
	}
	f.pending[index] = values
	return f.drain()
}

// Skip marks member index as absent (a failed or canceled member): the
// fold order advances past it without touching the statistics.
func (f *OrderedFold) Skip(index int) error {
	if err := f.note(index); err != nil {
		return err
	}
	f.skipped[index] = true
	return f.drain()
}

func (f *OrderedFold) note(index int) error {
	if index < 0 {
		return fmt.Errorf("seismo: negative member index %d", index)
	}
	if f.seen[index] {
		return fmt.Errorf("seismo: member %d presented twice", index)
	}
	f.seen[index] = true
	return nil
}

func (f *OrderedFold) drain() error {
	for {
		if f.skipped[f.next] {
			delete(f.skipped, f.next)
			f.next++
			continue
		}
		values, ok := f.pending[f.next]
		if !ok {
			return nil
		}
		if err := f.Stats.Add(values); err != nil {
			return err
		}
		delete(f.pending, f.next)
		f.next++
	}
}

// PercentileField returns the per-cell p-quantile (0 <= p <= 1) over the
// member fields using the nearest-rank method on sorted copies — exact,
// deterministic, and independent of member order. All fields must share a
// length; an empty member set returns nil.
func PercentileField(members [][]float64, p float64) []float64 {
	if len(members) == 0 {
		return nil
	}
	cells := len(members[0])
	out := make([]float64, cells)
	column := make([]float64, len(members))
	rank := int(math.Ceil(p*float64(len(members)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(members) {
		rank = len(members) - 1
	}
	for i := 0; i < cells; i++ {
		for m, field := range members {
			column[m] = field[i]
		}
		sort.Float64s(column)
		out[i] = column[rank]
	}
	return out
}

// IntensityField maps a PGV field (m/s) through the Chinese seismic
// intensity relation cell by cell — mean or percentile PGV fields become
// intensity maps.
func IntensityField(pgv []float64) []float64 {
	out := make([]float64, len(pgv))
	for i, v := range pgv {
		out[i] = Intensity(v)
	}
	return out
}
