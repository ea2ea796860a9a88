package f16

import "math"

// AdaptiveCodec is method 2 of paper Fig. 5d: the exponent field width is
// Ne = ceil(log2(Emax-Emin+1)) bits, derived from the dynamic range
// [Emin, Emax] of unbiased binary exponents observed in the coarse
// preprocessing run; the remaining 15-Ne bits store the mantissa and one bit
// stores the sign. Values are clamped into the recorded range.
type AdaptiveCodec struct {
	emin, emax int32  // unbiased exponent range covered
	expBits    uint32 // Ne
	manBits    uint32 // 15 - Ne
}

// NewAdaptiveCodecRange builds a codec for a known unbiased exponent range.
func NewAdaptiveCodecRange(emin, emax int32) *AdaptiveCodec {
	span := uint32(emax - emin + 2) // +1 for inclusive range, +1 for the zero code
	bits := uint32(0)
	for 1<<bits < span {
		bits++
	}
	if bits > 8 {
		bits = 8
	}
	if bits < 1 {
		bits = 1
	}
	return &AdaptiveCodec{emin: emin, emax: emax, expBits: bits, manBits: 15 - bits}
}

// Encode compresses v to 16 bits. Values whose exponent falls below the
// covered range flush to zero; above the range they clamp to the largest
// representable magnitude.
func (c *AdaptiveCodec) Encode(v float32) uint16 {
	b := math.Float32bits(v)
	sign := uint16(b>>16) & 0x8000
	e := int32(b>>23&0xff) - 127
	if v == 0 || e < c.emin {
		return sign // zero code: exponent offset 0 is reserved... see Decode
	}
	if e > c.emax {
		e = c.emax
		b |= 0x7fffff // clamp to max magnitude
	}
	eoff := uint16(e-c.emin) + 1 // offset 0 reserved for zero
	// round the mantissa to nearest (a truncating encoder would bias the
	// decompress-compute-compress loop low every step); a carry at the top
	// of the binade clamps to the largest mantissa
	shift := 23 - c.manBits
	mant := (b&0x7fffff + 1<<(shift-1)) >> shift
	if mant >= 1<<c.manBits {
		mant = 1<<c.manBits - 1
	}
	return sign | eoff<<c.manBits | uint16(mant)
}

// Decode expands a 16-bit code back to float32.
func (c *AdaptiveCodec) Decode(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	eoff := uint32(h>>c.manBits) & (1<<c.expBits - 1)
	if eoff == 0 {
		return math.Float32frombits(sign) // signed zero
	}
	e := int32(eoff) - 1 + c.emin
	mant := uint32(h&(1<<c.manBits-1)) << (23 - c.manBits)
	return math.Float32frombits(sign | uint32(e+127)<<23 | mant)
}

// EncodeSlice encodes src into dst elementwise.
func (c *AdaptiveCodec) EncodeSlice(dst []uint16, src []float32) {
	for i, v := range src {
		dst[i] = c.Encode(v)
	}
}

// DecodeSlice decodes src into dst elementwise.
func (c *AdaptiveCodec) DecodeSlice(dst []float32, src []uint16) {
	for i, v := range src {
		dst[i] = c.Decode(v)
	}
}
