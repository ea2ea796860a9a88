package f16

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHalfKnownValues(t *testing.T) {
	cases := []struct {
		f float32
		h Half
	}{
		{0, 0x0000},
		{1, 0x3c00},
		{-1, 0xbc00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7bff}, // max finite half
		{float32(math.Inf(1)), 0x7c00},
		{float32(math.Inf(-1)), 0xfc00},
		{5.9604645e-8, 0x0001}, // smallest subnormal half
		{0.33325195, 0x3555},   // nearest half to 1/3
	}
	for _, c := range cases {
		if got := FromFloat32(c.f); got != c.h {
			t.Errorf("FromFloat32(%v) = %#04x, want %#04x", c.f, got, c.h)
		}
	}
}

func TestHalfDecodeKnownValues(t *testing.T) {
	cases := []struct {
		h Half
		f float32
	}{
		{0x3c00, 1},
		{0xc000, -2},
		{0x7bff, 65504},
		{0x0400, 6.103515625e-5}, // smallest normal half
		{0x0001, 5.9604645e-8},   // smallest subnormal
	}
	for _, c := range cases {
		if got := c.h.Float32(); got != c.f {
			t.Errorf("%#04x.Float32() = %v, want %v", c.h, got, c.f)
		}
	}
}

func TestHalfNaN(t *testing.T) {
	h := FromFloat32(float32(math.NaN()))
	if h&0x7c00 != 0x7c00 || h&0x3ff == 0 {
		t.Fatalf("NaN encoded as %#04x", h)
	}
	if !math.IsNaN(float64(h.Float32())) {
		t.Fatal("NaN round trip lost")
	}
}

func TestHalfOverflowToInf(t *testing.T) {
	if FromFloat32(70000) != 0x7c00 {
		t.Fatal("overflow must produce +Inf")
	}
	if FromFloat32(-70000) != 0xfc00 {
		t.Fatal("negative overflow must produce -Inf")
	}
}

func TestHalfUnderflowToZero(t *testing.T) {
	if h := FromFloat32(1e-10); h != 0 {
		t.Fatalf("underflow got %#04x", h)
	}
	if h := FromFloat32(-1e-10); h != 0x8000 {
		t.Fatalf("negative underflow got %#04x", h)
	}
}

func TestHalfRoundTripExactForHalfValues(t *testing.T) {
	// every finite half value must round-trip float32->half->float32 exactly
	for i := 0; i < 0x10000; i++ {
		h := Half(i)
		if h&0x7c00 == 0x7c00 && h&0x3ff != 0 {
			continue // NaN payloads need not round trip bit-exactly
		}
		f := h.Float32()
		if back := FromFloat32(f); back != h {
			t.Fatalf("half %#04x -> %v -> %#04x", h, f, back)
		}
	}
}

func TestHalfRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 10000; n++ {
		f := (rng.Float32()*2 - 1) * 100
		g := FromFloat32(f).Float32()
		relErr := math.Abs(float64(g-f)) / math.Max(math.Abs(float64(f)), 1e-4)
		if relErr > 1.0/1024 { // 10 mantissa bits => 2^-10 half-ulp rounding
			t.Fatalf("relative error %g too large for %v -> %v", relErr, f, g)
		}
	}
}

func TestQuickHalfMonotone(t *testing.T) {
	// encoding preserves <= ordering for positive values in half range
	fn := func(a, b float32) bool {
		a, b = float32(math.Abs(float64(a))), float32(math.Abs(float64(b)))
		if a > 60000 || b > 60000 || math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return FromFloat32(a) <= FromFloat32(b)
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeSlice(t *testing.T) {
	src := []float32{1, -2, 0.25, 1000}
	enc := make([]uint16, len(src))
	dec := make([]float32, len(src))
	EncodeSlice(enc, src)
	DecodeSlice(dec, enc)
	for i := range src {
		if dec[i] != src[i] { // these are exactly representable
			t.Fatalf("slice round trip [%d]: %v != %v", i, dec[i], src[i])
		}
	}
}

func TestAdaptiveCodecExpBits(t *testing.T) {
	// narrow dynamic range => few exponent bits, many mantissa bits
	c := NewAdaptiveCodecRange(0, 1)
	if c.expBits > 2 {
		t.Fatalf("narrow range used %d exponent bits", c.expBits)
	}
	if c.expBits+c.manBits != 15 {
		t.Fatalf("bit budget %d+%d != 15", c.expBits, c.manBits)
	}
	// wide range => more exponent bits
	w := NewAdaptiveCodecRange(-120, 120)
	if w.expBits != 8 {
		t.Fatalf("wide range used %d exponent bits, want 8", w.expBits)
	}
}

func TestAdaptiveBeatsHalfOnNarrowRange(t *testing.T) {
	// values in [0.5, 2): exponent in {-1, 0}; adaptive gets 13-14 mantissa
	// bits vs half's 10, so its max relative error must be smaller.
	rng := rand.New(rand.NewSource(2))
	sample := make([]float32, 1000)
	for i := range sample {
		sample[i] = 0.5 + 1.49*rng.Float32()
	}
	c := NewAdaptiveCodecRange(-1, 0)
	var worstA, worstH float64
	for _, v := range sample {
		a := math.Abs(float64(c.Decode(c.Encode(v)) - v))
		h := math.Abs(float64(FromFloat32(v).Float32() - v))
		if a > worstA {
			worstA = a
		}
		if h > worstH {
			worstH = h
		}
	}
	if worstA >= worstH {
		t.Fatalf("adaptive worst %g not better than half worst %g", worstA, worstH)
	}
}

func TestAdaptiveZeroAndClamp(t *testing.T) {
	c := NewAdaptiveCodecRange(-3, 3)
	if got := c.Decode(c.Encode(0)); got != 0 {
		t.Fatalf("zero round trip got %v", got)
	}
	if got := c.Decode(c.Encode(-0.0)); got != 0 {
		t.Fatalf("-0 round trip got %v", got)
	}
	// magnitude above range clamps, below flushes to zero
	big := c.Decode(c.Encode(1e20))
	if big <= 8 || big >= 16+1 {
		t.Fatalf("overflow clamp gave %v, want near max representable (<16)", big)
	}
	if got := c.Decode(c.Encode(1e-20)); got != 0 {
		t.Fatalf("underflow gave %v, want 0", got)
	}
	if got := c.Decode(c.Encode(-1e-20)); got != 0 {
		t.Fatalf("-underflow gave %v, want -0/0", got)
	}
}

func TestAdaptiveSignPreserved(t *testing.T) {
	c := NewAdaptiveCodecRange(-5, 5)
	for _, v := range []float32{3.7, -3.7, 0.1, -0.1} {
		got := c.Decode(c.Encode(v))
		if (got < 0) != (v < 0) {
			t.Fatalf("sign lost: %v -> %v", v, got)
		}
	}
}

func TestQuickAdaptiveRelError(t *testing.T) {
	c := NewAdaptiveCodecRange(-10, 10)
	step := 1.0 / float64(int(1)<<c.manBits)
	fn := func(v float32) bool {
		av := math.Abs(float64(v))
		if av < 1.0/1024 || av > 1024 || math.IsNaN(float64(v)) {
			return true
		}
		got := c.Decode(c.Encode(v))
		return math.Abs(float64(got)-float64(v)) <= av*step*2
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizedRoundTrip(t *testing.T) {
	c := NewNormalizedCodec(-2, 3)
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 10000; n++ {
		v := -2 + 5*rng.Float32()
		got := c.Decode(c.Encode(v))
		// a whole quantization step of the 16-bit mantissa grid over [-2,3]
		if step := 5.0 / (1 << 15); math.Abs(float64(got-v)) > step {
			t.Fatalf("|%v - %v| > one step %v", got, v, step)
		}
	}
}

func TestNormalizedClamping(t *testing.T) {
	c := NewNormalizedCodec(-1, 1)
	if got := c.Decode(c.Encode(5)); got > 1 || got < 0.99 {
		t.Fatalf("above-range clamp gave %v", got)
	}
	if got := c.Decode(c.Encode(-5)); got != -1 {
		t.Fatalf("below-range clamp gave %v", got)
	}
}

func TestNormalizedDegenerateRange(t *testing.T) {
	c := NewNormalizedCodec(4, 4)
	if got := c.Decode(c.Encode(4)); got != 4 {
		t.Fatalf("degenerate range decode gave %v", got)
	}
}

func TestNormalizedSliceMatchesScalar(t *testing.T) {
	c := NewNormalizedCodec(-1, 2)
	src := []float32{-1, -0.5, 0, 0.3, 1.999, 2, 5, -5}
	enc := make([]uint16, len(src))
	dec := make([]float32, len(src))
	c.EncodeSlice(enc, src)
	c.DecodeSlice(dec, enc)
	for i, v := range src {
		if enc[i] != c.Encode(v) {
			t.Fatalf("EncodeSlice[%d] diverges from Encode", i)
		}
		if dec[i] != c.Decode(enc[i]) {
			t.Fatalf("DecodeSlice[%d] diverges from Decode", i)
		}
	}
}

func TestQuickNormalizedMonotone(t *testing.T) {
	c := NewNormalizedCodec(-100, 100)
	fn := func(a, b float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return c.Encode(a) <= c.Encode(b)
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizedPrecisionBeatsHalfInRange(t *testing.T) {
	// within a tight known range the normalized codec resolves ~2^-16 of the
	// range, which for [-1,1] is ~3e-5 absolute — better than half's worst
	// absolute error near 1 (~4.9e-4).
	c := NewNormalizedCodec(-1, 1)
	rng := rand.New(rand.NewSource(5))
	for n := 0; n < 10000; n++ {
		v := 2*rng.Float32() - 1
		if got := c.Decode(c.Encode(v)); math.Abs(float64(got-v)) >= 1.0/16384 {
			t.Fatalf("|%v - %v| too large", got, v)
		}
	}
}

func TestCodecCostOrdering(t *testing.T) {
	// sanity check on the paper's rationale for method 3: its per-value cost
	// (1 FMA + shift) must be below method 2's (bit-field surgery). We proxy
	// cost with rough operation counts via a micro-benchmark in bench tests;
	// here we only verify all three produce finite output on a stress vector.
	vals := []float32{0, -0, 1, -1, 0.1, 65504, 1e-7, -1e-7}
	a := NewAdaptiveCodecRange(-24, 16)
	n := NewNormalizedCodec(-70000, 70000)
	for _, v := range vals {
		if f := FromFloat32(v).Float32(); math.IsNaN(float64(f)) {
			t.Fatalf("half NaN for %v", v)
		}
		if f := a.Decode(a.Encode(v)); math.IsNaN(float64(f)) {
			t.Fatalf("adaptive NaN for %v", v)
		}
		if f := n.Decode(n.Encode(v)); math.IsNaN(float64(f)) {
			t.Fatalf("normalized NaN for %v", v)
		}
	}
}
