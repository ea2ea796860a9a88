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

// roundTrip passes a field's full storage through c, as the engine stores
// it.
func roundTrip(c Codec, f *grid.Field) *grid.Field {
	codes := make([]uint16, len(f.Data))
	c.EncodeSlice(codes, f.Data)
	dst := grid.NewField(f.Dims, f.H)
	c.DecodeSlice(dst.Data, codes)
	return dst
}

func TestFieldFullRoundTrip(t *testing.T) {
	src := randomField(1, 5)
	s := CollectStats(src)
	for _, m := range []Method{Half, Adaptive, Normalized} {
		c, _ := NewCodec(m, s)
		if dst := roundTrip(c, src); src.L2Diff(dst) > 1e-3 {
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
	errOf := func(m Method) float64 {
		c, _ := NewCodec(m, s)
		return src.L2Diff(roundTrip(c, src))
	}
	en, eh := errOf(Normalized), errOf(Half)
	if en >= eh {
		t.Fatalf("normalized error %g not below half error %g", en, eh)
	}
}

// TestRoundTripIsAFixedPoint: a codec's round trip leaves its own output
// unchanged, D(E(y)) == y bit for bit whenever y = D(E(x)), and the slice
// and scalar paths agree — which is what lets the engine store a field by
// round tripping it in place. x is drawn from random float32 bit patterns
// and from the codec's range, so y ranges over the encoder's image; not
// over all 65536 codes, as an adaptive codec over a narrow exponent span has
// codes it never emits, and those need not be fixed points.
func TestRoundTripIsAFixedPoint(t *testing.T) {
	ranges := []Stats{
		{Min: -5, Max: 5, Emin: -5, Emax: 5},
		{Min: -2e-3, Max: 2e-3, Emin: -30, Emax: -8},
		{Min: -3e7, Max: 3e7, Emin: -60, Emax: 60},
		{Min: 1e6, Max: 1e6 + 100, Emin: 19, Emax: 20},
		{Min: -1, Max: 1, Emin: -127, Emax: 127},
	}
	const n = 1 << 16
	rng := rand.New(rand.NewSource(7))
	x := make([]float32, n)
	codes, again := make([]uint16, n), make([]uint16, n)
	y, z := make([]float32, n), make([]float32, n)
	for _, s := range ranges {
		for i := range x {
			if i%2 == 0 {
				x[i] = math.Float32frombits(rng.Uint32())
			} else {
				x[i] = s.Min + rng.Float32()*(s.Max-s.Min)
			}
		}
		for _, m := range []Method{Half, Adaptive, Normalized} {
			c, err := NewCodec(m, s)
			if err != nil {
				t.Fatal(err)
			}
			c.EncodeSlice(codes, x)
			c.DecodeSlice(y, codes)
			c.EncodeSlice(again, y)
			c.DecodeSlice(z, again)
			for i := range x {
				if h := c.Encode(x[i]); h != codes[i] || math.Float32bits(c.Decode(h)) != math.Float32bits(y[i]) {
					t.Fatalf("%v over %+v: x = %g: slices give %#04x -> %g, scalars %#04x -> %g",
						m, s, x[i], codes[i], y[i], h, c.Decode(h))
				}
				if math.Float32bits(z[i]) != math.Float32bits(y[i]) {
					t.Fatalf("%v over %+v: x = %g round trips to %g (%#04x), which round trips to %g (%#04x)",
						m, s, x[i], y[i], codes[i], z[i], again[i])
				}
			}
		}
	}
}

// TestNormalizedDecodeIsExact: over [-1, 1] every step of the normalized
// decode is exact in float32, so code h decodes to exactly -1 + h/32768.
func TestNormalizedDecodeIsExact(t *testing.T) {
	c, err := NewCodec(Normalized, Stats{Min: -1, Max: 1})
	if err != nil {
		t.Fatal(err)
	}
	codes := make([]uint16, 1<<16)
	for h := range codes {
		codes[h] = uint16(h)
	}
	got := make([]float32, len(codes))
	c.DecodeSlice(got, codes)
	for h, v := range got {
		want := -1 + float32(h)/32768
		if v != want || c.Decode(uint16(h)) != want {
			t.Fatalf("code %#04x decodes to %g (slice) and %g (scalar), want %g", h, v, c.Decode(uint16(h)), want)
		}
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
