package f16

import "math"

// NormalizedCodec is method 3 of paper Fig. 5d, the variant adopted for most
// velocity and stress arrays: using the [Vmin, Vmax] statistics recorded by
// the coarse preprocessing run, values are affinely mapped to V' in [1,2).
// In that interval the IEEE 754 exponent is identically zero, so the
// compressed 16-bit value is simply the top 16 mantissa bits of V' — both
// compression and decompression reduce to one multiply-add and a bit shift,
// which is why this method is the cheapest on the CPEs.
//
// (The paper's figure labels the payload "sign + frac(15b)"; because the
// normalization absorbs the sign into the affine map we spend all 16 bits on
// mantissa, which matches the scheme's intent with slightly better
// precision.)
type NormalizedCodec struct {
	vmin, vmax float32
	scale      float32 // 1/(vmax-vmin), 0 when the range is degenerate
	invScale   float32 // vmax-vmin
}

// NewNormalizedCodec builds a codec for the closed value range [vmin, vmax].
func NewNormalizedCodec(vmin, vmax float32) *NormalizedCodec {
	c := &NormalizedCodec{vmin: vmin, vmax: vmax}
	if vmax > vmin {
		c.scale = 1 / (vmax - vmin)
		c.invScale = vmax - vmin
	}
	return c
}

// Encode compresses v to 16 bits; out-of-range values are clamped.
// The mantissa is rounded to nearest, not truncated: a truncating encoder
// would bias every stored value low by half a quantization step, and the
// decompress–compute–compress loop applies that bias once per kernel pass,
// accumulating a linear drift over thousands of steps.
func (c *NormalizedCodec) Encode(v float32) uint16 {
	if c.scale == 0 {
		return 0
	}
	vp := 1 + (v-c.vmin)*c.scale // in [1,2] up to clamping
	if vp < 1 {
		vp = 1
	} else if vp >= 2 {
		return 0xffff
	}
	// exponent of vp is 0; round its 23-bit mantissa to 16 bits
	code := (math.Float32bits(vp)&0x7fffff + 0x40) >> 7
	if code > 0xffff {
		code = 0xffff
	}
	return uint16(code)
}

// Decode expands a 16-bit code back to float32.
func (c *NormalizedCodec) Decode(h uint16) float32 {
	if c.scale == 0 {
		return c.vmin
	}
	vp := math.Float32frombits(0x3f800000 | uint32(h)<<7&0x7fffff)
	return (vp-1)*c.invScale + c.vmin
}

// EncodeSlice encodes src into dst elementwise.
func (c *NormalizedCodec) EncodeSlice(dst []uint16, src []float32) {
	if c.scale == 0 {
		for i := range src {
			dst[i] = 0
		}
		return
	}
	vmin, scale := c.vmin, c.scale
	for i, v := range src {
		vp := 1 + (v-vmin)*scale
		if vp < 1 {
			vp = 1
		} else if vp >= 2 {
			dst[i] = 0xffff
			continue
		}
		code := (math.Float32bits(vp)&0x7fffff + 0x40) >> 7
		if code > 0xffff {
			code = 0xffff
		}
		dst[i] = uint16(code)
	}
}

// DecodeSlice decodes src into dst elementwise.
func (c *NormalizedCodec) DecodeSlice(dst []float32, src []uint16) {
	if c.scale == 0 {
		for i := range src {
			dst[i] = c.vmin
		}
		return
	}
	vmin, inv := c.vmin, c.invScale
	for i, h := range src {
		vp := math.Float32frombits(0x3f800000 | uint32(h)<<7&0x7fffff)
		dst[i] = (vp-1)*inv + vmin
	}
}
