package compress

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"swquake/internal/grid"
)

func randomField(seed int64, scale float32) *grid.Field {
	f := grid.NewField(grid.Dims{Nx: 8, Ny: 8, Nz: 16}, 2)
	rng := rand.New(rand.NewSource(seed))
	for i := range f.Data {
		f.Data[i] = (rng.Float32()*2 - 1) * scale
	}
	return f
}

func TestCollectStats(t *testing.T) {
	f := grid.NewField(grid.Dims{Nx: 4, Ny: 4, Nz: 4}, 1)
	f.Fill(0)
	f.Set(1, 1, 1, -3)
	f.Set(2, 2, 2, 5)
	s := CollectStats(f)
	if s.Min != -3 || s.Max != 5 {
		t.Fatalf("range [%v,%v]", s.Min, s.Max)
	}
	// exponents: -3 -> 1, 5 -> 2
	if s.Emin != 1 || s.Emax != 2 {
		t.Fatalf("exponent range [%d,%d]", s.Emin, s.Emax)
	}
}

func TestStatsZeroField(t *testing.T) {
	f := grid.NewField(grid.Dims{Nx: 2, Ny: 2, Nz: 2}, 1)
	s := CollectStats(f)
	if s.Min != 0 || s.Max != 0 || s.Emin != 0 || s.Emax != 0 {
		t.Fatalf("zero field stats %+v", s)
	}
}

func TestStatsMergeAndExpand(t *testing.T) {
	a := Stats{Min: -1, Max: 2, Emin: -3, Emax: 1}
	b := Stats{Min: -4, Max: 1, Emin: -1, Emax: 3}
	m := a.Merge(b)
	if m.Min != -4 || m.Max != 2 || m.Emin != -3 || m.Emax != 3 {
		t.Fatalf("merge %+v", m)
	}
	e := m.Expand(2)
	if e.Max-e.Min <= m.Max-m.Min {
		t.Fatal("expand did not widen")
	}
	if e.Emax != m.Emax+1 {
		t.Fatalf("expand exponent %d", e.Emax)
	}
	if same := m.Expand(1); same != m {
		t.Fatal("expand(1) must be identity")
	}
}

func TestNewCodecMethods(t *testing.T) {
	s := Stats{Min: -10, Max: 10, Emin: -5, Emax: 4}
	for _, m := range []Method{Half, Adaptive, Normalized} {
		c, err := NewCodec(m, s)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		v := float32(3.7)
		got := c.Decode(c.Encode(v))
		if math.Abs(float64(got-v)) > 0.01 {
			t.Fatalf("%v round trip %v -> %v", m, v, got)
		}
	}
	if _, err := NewCodec(Off, s); err == nil {
		t.Fatal("Off must not produce a codec")
	}
	if Off.String() != "off" || Normalized.String() != "normalized" {
		t.Fatal("method names wrong")
	}
}

func TestFieldFullRoundTrip(t *testing.T) {
	src := randomField(1, 5)
	s := CollectStats(src)
	for _, m := range []Method{Half, Adaptive, Normalized} {
		c, _ := NewCodec(m, s)
		cf := NewField(src, c)
		cf.EncodeFrom(src)
		if stored := int64(len(cf.Data)) * 2; stored*2 != src.Bytes() {
			t.Fatalf("%v: compressed bytes %d vs %d", m, stored, src.Bytes())
		}
		dst := grid.NewField(src.Dims, src.H)
		cf.DecodeInto(dst)
		if src.L2Diff(dst) > 1e-3 {
			t.Fatalf("%v: rms error %g", m, src.L2Diff(dst))
		}
	}
}

func TestRoundTripErrorOrdering(t *testing.T) {
	// for a field within a known tight range, the normalized codec must
	// beat IEEE half on round-trip error (paper's rationale for method 3
	// over method 1 on normalized arrays).
	src := randomField(4, 1.0)
	s := CollectStats(src)
	roundTrip := func(m Method) float64 {
		c, _ := NewCodec(m, s)
		cf := NewField(src, c)
		cf.EncodeFrom(src)
		dst := grid.NewField(src.Dims, src.H)
		cf.DecodeInto(dst)
		return src.L2Diff(dst)
	}
	en, eh := roundTrip(Normalized), roundTrip(Half)
	if en >= eh {
		t.Fatalf("normalized error %g not below half error %g", en, eh)
	}
}

func TestCompressionHalvesMemory(t *testing.T) {
	// the paper's problem-size claim: 16-bit storage doubles the maximum
	// mesh that fits in the same memory.
	src := randomField(5, 1)
	c, _ := NewCodec(Half, Stats{})
	cf := NewField(src, c)
	if got := float64(src.Bytes()) / float64(len(cf.Data)*2); got != Ratio {
		t.Fatalf("ratio %g", got)
	}
}

func TestQuickCodecErrorBounded(t *testing.T) {
	// property: for any in-range value, every codec's round-trip error is
	// bounded by its quantization step
	s := Stats{Min: -50, Max: 50, Emin: -10, Emax: 6}
	codecs := map[Method]Codec{}
	for _, m := range []Method{Half, Adaptive, Normalized} {
		c, err := NewCodec(m, s)
		if err != nil {
			t.Fatal(err)
		}
		codecs[m] = c
	}
	fn := func(v float32) bool {
		if v != v || v > 50 || v < -50 {
			return true
		}
		for m, c := range codecs {
			got := c.Decode(c.Encode(v))
			var bound float64
			switch m {
			case Normalized:
				bound = 100.0 / 65536 // range / 2^16
			case Half:
				bound = math.Max(math.Abs(float64(v))/512, 1e-3)
			case Adaptive:
				bound = math.Max(math.Abs(float64(v))/128, 1e-2)
			}
			if math.Abs(float64(got-v)) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
