// Package compress implements the codecs of the paper's on-the-fly
// compression scheme (§6.5, Fig. 5): wavefields live in main memory as
// 16-bit codes, halving both the memory footprint (enabling the
// 7.8-trillion-point runs) and the DMA traffic per step (the +24%
// performance). Each time step follows the decompress–compute–compress
// workflow of Fig. 5b-c: compressed values are decoded into a working
// buffer (the LDM stand-in), the kernels run in float32, and results are
// re-encoded. The engine (internal/core) passes its float32 fields through
// a codec in place wherever the paper stores them; a codec's round trip
// leaves its own output unchanged, so that is the value a 16-bit store
// would hold.
//
// Three codecs are available (Fig. 5d), provided by package f16:
// IEEE binary16, adaptive-exponent, and range-normalized. Codec parameters
// come from per-array statistics collected during a coarse preprocessing
// run (Fig. 5a).
package compress

import (
	"fmt"
	"math"

	"swquake/internal/f16"
	"swquake/internal/grid"
)

// Method selects the compression codec.
type Method int

const (
	// Off disables compression.
	Off Method = iota
	// Half is method 1: IEEE 754 binary16.
	Half
	// Adaptive is method 2: range-adapted exponent width.
	Adaptive
	// Normalized is method 3: affine normalization into [1,2) — the one the
	// paper adopts for most velocity and stress arrays.
	Normalized
)

func (m Method) String() string {
	switch m {
	case Off:
		return "off"
	case Half:
		return "half"
	case Adaptive:
		return "adaptive"
	case Normalized:
		return "normalized"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Stats holds the per-array statistics recorded by the coarse preprocessing
// run (Fig. 5a): the value range and the binary exponent range.
type Stats struct {
	Min, Max   float32
	Emin, Emax int32
}

// CollectStats scans a field's full storage (interior and halo).
func CollectStats(f *grid.Field) Stats {
	s := Stats{Min: math.MaxFloat32, Max: -math.MaxFloat32, Emin: 127, Emax: -127}
	for _, v := range f.Data {
		if math.IsNaN(float64(v)) {
			continue
		}
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		if v != 0 {
			e := int32(math.Float32bits(v)>>23&0xff) - 127
			if e < s.Emin {
				s.Emin = e
			}
			if e > s.Emax {
				s.Emax = e
			}
		}
	}
	if s.Min > s.Max {
		s.Min, s.Max = 0, 0
	}
	if s.Emin > s.Emax {
		s.Emin, s.Emax = 0, 0
	}
	return s
}

// Merge combines two statistics (used to fold successive coarse-run
// snapshots into one range).
func (s Stats) Merge(o Stats) Stats {
	if o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
	if o.Emin < s.Emin {
		s.Emin = o.Emin
	}
	if o.Emax > s.Emax {
		s.Emax = o.Emax
	}
	return s
}

// Expand widens the value range symmetrically by the given factor (>1) and
// the exponent range accordingly — headroom for the fine run exceeding the
// coarse run's dynamic range.
func (s Stats) Expand(factor float64) Stats {
	if factor <= 1 {
		return s
	}
	mid := (float64(s.Min) + float64(s.Max)) / 2
	half := (float64(s.Max) - float64(s.Min)) / 2 * factor
	s.Min = float32(mid - half)
	s.Max = float32(mid + half)
	extra := int32(math.Ceil(math.Log2(factor)))
	s.Emax += extra
	return s
}

// Codec encodes float32 values to 16 bits and back.
type Codec interface {
	Encode(float32) uint16
	Decode(uint16) float32
	EncodeSlice(dst []uint16, src []float32)
	DecodeSlice(dst []float32, src []uint16)
}

type halfCodec struct{}

func (halfCodec) Encode(v float32) uint16 { return uint16(f16.FromFloat32(v)) }
func (halfCodec) Decode(h uint16) float32 { return f16.Half(h).Float32() }
func (halfCodec) EncodeSlice(dst []uint16, src []float32) {
	f16.EncodeSlice(dst, src)
}
func (halfCodec) DecodeSlice(dst []float32, src []uint16) {
	f16.DecodeSlice(dst, src)
}

// NewCodec builds the codec for a method from array statistics.
func NewCodec(m Method, s Stats) (Codec, error) {
	switch m {
	case Half:
		return halfCodec{}, nil
	case Adaptive:
		return f16.NewAdaptiveCodecRange(s.Emin, s.Emax), nil
	case Normalized:
		return f16.NewNormalizedCodec(s.Min, s.Max), nil
	default:
		return nil, fmt.Errorf("compress: no codec for method %v", m)
	}
}
