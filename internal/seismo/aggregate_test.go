package seismo

import (
	"math"
	"math/rand"
	"testing"
)

// randomFields builds n deterministic pseudo-random nx x ny member fields.
func randomFields(t *testing.T, n, nx, ny int, seed int64) [][]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for m := range out {
		f := make([]float64, nx*ny)
		for i := range f {
			f[i] = rng.Float64() * 0.5
		}
		out[m] = f
	}
	return out
}

func TestFieldStatsAgainstTwoPass(t *testing.T) {
	const nx, ny, n = 5, 7, 12
	fields := randomFields(t, n, nx, ny, 1)
	s := NewFieldStats(nx, ny, nil)
	for _, f := range fields {
		if err := s.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	mean, vari := s.Mean(), s.Variance()
	for i := 0; i < nx*ny; i++ {
		var sum float64
		for _, f := range fields {
			sum += f[i]
		}
		m := sum / n
		var ss float64
		for _, f := range fields {
			d := f[i] - m
			ss += d * d
		}
		v := ss / (n - 1)
		if math.Abs(mean[i]-m) > 1e-12 || math.Abs(vari[i]-v) > 1e-12 {
			t.Fatalf("cell %d: welford (%g, %g) vs two-pass (%g, %g)", i, mean[i], vari[i], m, v)
		}
	}
}

func TestFieldStatsShapeMismatch(t *testing.T) {
	s := NewFieldStats(2, 2, nil)
	if err := s.Add(make([]float64, 3)); err == nil {
		t.Fatal("wrong-size field accepted")
	}
}

// TestExceedanceHandComputed checks the exceedance map against a 3-member
// fixture worked out by hand.
func TestExceedanceHandComputed(t *testing.T) {
	// cells: a, b; thresholds 0.1 and 0.3
	members := [][]float64{
		{0.05, 0.40}, // a: below both; b: above both
		{0.15, 0.30}, // a: above 0.1 only; b: above both (>= at 0.3)
		{0.25, 0.10}, // a: above 0.1 only; b: above 0.1 only
	}
	s := NewFieldStats(1, 2, []float64{0.1, 0.3})
	for _, m := range members {
		if err := s.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	probs := s.ExceedProb()
	want := [][]float64{
		{2.0 / 3.0, 1.0}, // P(>= 0.1) per cell
		{0, 2.0 / 3.0},   // P(>= 0.3) per cell
	}
	for ti := range want {
		for ci := range want[ti] {
			if probs[ti][ci] != want[ti][ci] {
				t.Errorf("threshold %d cell %d: got %g want %g", ti, ci, probs[ti][ci], want[ti][ci])
			}
		}
	}
}

// TestOrderedFoldBitDeterministic is the determinism claim of the campaign
// aggregator: whatever order members arrive in, the fold applies them in
// index order, so mean, M2 and exceedance are bit-identical across
// permutations.
func TestOrderedFoldBitDeterministic(t *testing.T) {
	const nx, ny, n = 6, 4, 9
	fields := randomFields(t, n, nx, ny, 2)
	thresholds := []float64{0.1, 0.25, 0.4}

	reference := NewFieldStats(nx, ny, thresholds)
	for _, f := range fields {
		if err := reference.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	refMean, refVar := reference.Mean(), reference.Variance()
	refProbs := reference.ExceedProb()

	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		order := rng.Perm(n)
		s := NewFieldStats(nx, ny, thresholds)
		fold := NewOrderedFold(s)
		for _, idx := range order {
			if err := fold.Add(idx, fields[idx]); err != nil {
				t.Fatal(err)
			}
		}
		if len(fold.pending) != 0 || fold.next != n || s.Count() != n {
			t.Fatalf("trial %d: fold incomplete: buffered=%d next=%d count=%d",
				trial, len(fold.pending), fold.next, s.Count())
		}
		mean, vari := s.Mean(), s.Variance()
		probs := s.ExceedProb()
		for i := range refMean {
			if mean[i] != refMean[i] {
				t.Fatalf("trial %d order %v: mean differs at cell %d: %x vs %x",
					trial, order, i, math.Float64bits(mean[i]), math.Float64bits(refMean[i]))
			}
			if vari[i] != refVar[i] {
				t.Fatalf("trial %d order %v: variance differs at cell %d", trial, order, i)
			}
		}
		for ti := range refProbs {
			for i := range refProbs[ti] {
				if probs[ti][i] != refProbs[ti][i] {
					t.Fatalf("trial %d: exceedance differs at threshold %d cell %d", trial, ti, i)
				}
			}
		}
	}
}

// TestOrderedFoldSkip checks that skipped members advance the fold and the
// remaining members land in index order.
func TestOrderedFoldSkip(t *testing.T) {
	const nx, ny = 2, 2
	fields := randomFields(t, 4, nx, ny, 4)

	// reference: members 0, 2, 3 folded sequentially (1 skipped)
	reference := NewFieldStats(nx, ny, nil)
	for _, idx := range []int{0, 2, 3} {
		if err := reference.Add(fields[idx]); err != nil {
			t.Fatal(err)
		}
	}

	s := NewFieldStats(nx, ny, nil)
	fold := NewOrderedFold(s)
	// arrival order: 3 (buffered), 2 (buffered), skip 1, 0 (drains all)
	if err := fold.Add(3, fields[3]); err != nil {
		t.Fatal(err)
	}
	if err := fold.Add(2, fields[2]); err != nil {
		t.Fatal(err)
	}
	if err := fold.Skip(1); err != nil {
		t.Fatal(err)
	}
	if err := fold.Add(0, fields[0]); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 3 || fold.next != 4 {
		t.Fatalf("fold state wrong: count=%d next=%d", s.Count(), fold.next)
	}
	refMean, mean := reference.Mean(), s.Mean()
	for i := range refMean {
		if mean[i] != refMean[i] {
			t.Fatalf("mean differs at cell %d after skip", i)
		}
	}
	if err := fold.Add(2, fields[2]); err == nil {
		t.Fatal("duplicate member accepted")
	}
}

func TestPercentileField(t *testing.T) {
	members := [][]float64{
		{0.1, 0.9},
		{0.3, 0.7},
		{0.2, 0.8},
	}
	if got := PercentileField(members, 0.5); got[0] != 0.2 || got[1] != 0.8 {
		t.Fatalf("median wrong: %v", got)
	}
	if got := PercentileField(members, 1.0); got[0] != 0.3 || got[1] != 0.9 {
		t.Fatalf("max percentile wrong: %v", got)
	}
	if got := PercentileField(members, 0.0); got[0] != 0.1 || got[1] != 0.7 {
		t.Fatalf("min percentile wrong: %v", got)
	}
	if PercentileField(nil, 0.5) != nil {
		t.Fatal("empty member set should return nil")
	}
}

func TestIntensityField(t *testing.T) {
	pgv := []float64{0, 0.1, 1}
	got := IntensityField(pgv)
	for i, v := range pgv {
		if got[i] != Intensity(v) {
			t.Fatalf("cell %d: %g vs %g", i, got[i], Intensity(v))
		}
	}
}
