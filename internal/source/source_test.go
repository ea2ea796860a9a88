package source

import (
	"math"
	"testing"
	"testing/quick"

	"swquake/internal/fd"
	"swquake/internal/grid"
)

func TestRickerShape(t *testing.T) {
	r := Ricker{F0: 2, T0: 1, M0: 5}
	if got := r.MomentRate(1); got != 5 {
		t.Fatalf("peak value %g, want M0", got)
	}
	if math.Abs(r.MomentRate(10)) > 1e-9 {
		t.Fatal("Ricker must decay to zero")
	}
	// symmetric about T0
	if math.Abs(r.MomentRate(1.1)-r.MomentRate(0.9)) > 1e-12 {
		t.Fatal("Ricker not symmetric about T0")
	}
	// zero crossings bracket the peak
	if r.MomentRate(1+0.3) >= 0 != (r.MomentRate(1-0.3) >= 0) {
		t.Fatal("side lobes must be symmetric")
	}
}

func TestSampledSTF(t *testing.T) {
	s := Sampled{Dt: 0.5, Rates: []float64{0, 2, 4, 0}}
	if got := s.MomentRate(0.5); got != 2 {
		t.Fatalf("at sample: %g", got)
	}
	if got := s.MomentRate(0.75); got != 3 {
		t.Fatalf("interpolated: %g, want 3", got)
	}
	if got := s.MomentRate(-1); got != 0 {
		t.Fatalf("before start: %g", got)
	}
	if got := s.MomentRate(100); got != 0 {
		t.Fatalf("after end: %g", got)
	}
	if got := s.MomentRate(1.5); got != 0 {
		t.Fatalf("last sample: %g", got)
	}
}

func TestPointSourceInject(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	wf := fd.NewWavefield(d)
	p := PointSource{I: 4, J: 4, K: 4, M: Explosion(), S: Ricker{F0: 1, T0: 0, M0: 1e9}}
	p.Inject(wf, 0, 0.01, 100)
	want := float32(-1e9 * 0.01 / 1e6)
	if got := wf.XX.At(4, 4, 4); got != want {
		t.Fatalf("xx = %g, want %g", got, want)
	}
	if wf.XY.At(4, 4, 4) != 0 {
		t.Fatal("explosion must not load shear")
	}
	// zero-rate time injects nothing
	before := wf.XX.At(4, 4, 4)
	p.Inject(wf, 1e9, 0.01, 100)
	if wf.XX.At(4, 4, 4) != before {
		t.Fatal("zero moment rate injected stress")
	}
}

func TestSetInjectRespectsKRange(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	wf := fd.NewWavefield(d)
	set := Set{Sources: []PointSource{
		{I: 2, J: 2, K: 1, M: Explosion(), S: Ricker{F0: 1, T0: 0, M0: 1e9}},
		{I: 2, J: 2, K: 6, M: Explosion(), S: Ricker{F0: 1, T0: 0, M0: 1e9}},
	}}
	set.InjectRegion(wf, 0, 0.01, 100, grid.FullXY(d, 0, 4))
	if wf.XX.At(2, 2, 1) == 0 {
		t.Fatal("in-range source skipped")
	}
	if wf.XX.At(2, 2, 6) != 0 {
		t.Fatal("out-of-range source injected")
	}
}

func TestMomentMagnitude(t *testing.T) {
	// Mw 7.8 (Tangshan) corresponds to ~6e20 N·m
	mw := MomentMagnitude(6.3e20)
	if math.Abs(mw-7.8) > 0.1 {
		t.Fatalf("Mw(6.3e20) = %g, want ~7.8", mw)
	}
	if !math.IsInf(MomentMagnitude(0), -1) {
		t.Fatal("zero moment must map to -Inf")
	}
}

func TestPartitionBasic(t *testing.T) {
	srcs := []PointSource{
		{I: 0, J: 0, K: 0},
		{I: 7, J: 7, K: 1},
		{I: 3, J: 5, K: 2},
		{I: 4, J: 4, K: 3},
	}
	parts, err := Partition(srcs, 8, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 {
		t.Fatalf("%d parts", len(parts))
	}
	count := 0
	for _, p := range parts {
		count += len(p)
	}
	if count != len(srcs) {
		t.Fatalf("lost sources: %d of %d", count, len(srcs))
	}
	// rank (0,0) gets source at (0,0); rank (1,1) gets (7,7)->(3,3) and (4,4)->(0,0)
	if len(parts[0]) != 1 || parts[0][0].I != 0 {
		t.Fatalf("rank 0 wrong: %+v", parts[0])
	}
	if len(parts[3]) != 2 {
		t.Fatalf("rank 3 wrong: %+v", parts[3])
	}
	for _, s := range parts[3] {
		if s.I < 0 || s.I >= 4 || s.J < 0 || s.J >= 4 {
			t.Fatalf("rank-local index out of block: %+v", s)
		}
	}
}

func TestPartitionRejectsBadInput(t *testing.T) {
	if _, err := Partition(nil, 10, 10, 3, 2); err == nil {
		t.Fatal("non-divisible grid accepted")
	}
	if _, err := Partition([]PointSource{{I: 99, J: 0}}, 8, 8, 2, 2); err == nil {
		t.Fatal("out-of-domain source accepted")
	}
}

func TestPartitionDeterministicOrder(t *testing.T) {
	srcs := []PointSource{
		{I: 1, J: 1, K: 5},
		{I: 1, J: 1, K: 2},
		{I: 0, J: 1, K: 2},
	}
	parts, err := Partition(srcs, 4, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := parts[0]
	if !(p[0].K == 2 && p[0].I == 0) || p[1].K != 2 || p[2].K != 5 {
		t.Fatalf("ordering wrong: %+v", p)
	}
}

// TestPartitionKeepsCoLocatedSourcesInListOrder: sources on one grid point
// are summed in list order by the serial run, so a rank must get them in that
// order too — however many sources it holds (an unstable sort reorders equal
// keys once a slice is longer than a dozen).
func TestPartitionKeepsCoLocatedSourcesInListOrder(t *testing.T) {
	var srcs []PointSource
	for n := 0; n < 40; n++ {
		srcs = append(srcs, PointSource{I: 2 + n%2, J: 3, K: 1, S: Ricker{M0: float64(n)}})
	}
	parts, err := Partition(srcs, 8, 8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	last := map[int]float64{2: -1, 3: -1}
	for _, s := range parts[0] {
		m0 := s.S.(Ricker).M0
		if m0 < last[s.I] {
			t.Fatalf("source %g of point i=%d comes after source %g", m0, s.I, last[s.I])
		}
		last[s.I] = m0
	}
}

func TestQuickPartitionConservesSources(t *testing.T) {
	fn := func(pts []struct{ I, J uint16 }) bool {
		srcs := make([]PointSource, len(pts))
		for n, p := range pts {
			srcs[n] = PointSource{I: int(p.I) % 64, J: int(p.J) % 64, K: 0}
		}
		parts, err := Partition(srcs, 64, 64, 4, 4)
		if err != nil {
			return false
		}
		total := 0
		for rank, p := range parts {
			px, py := rank/4, rank%4
			for _, s := range p {
				if s.I < 0 || s.I >= 16 || s.J < 0 || s.J >= 16 {
					return false
				}
				// rebasing must invert correctly
				gi, gj := s.I+px*16, s.J+py*16
				if gi < 0 || gi >= 64 || gj < 0 || gj >= 64 {
					return false
				}
			}
			total += len(p)
		}
		return total == len(srcs)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
