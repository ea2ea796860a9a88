package core

import (
	"math"
	"testing"

	"swquake/internal/compress"
	"swquake/internal/fd"
)

// roundTripExchanger is NoExchange plus the two codec round trips of a
// compressed step that fall on an exchange: the velocities as the stress
// phase reads them, and all nine fields once the step's stages are done.
type roundTripExchanger struct {
	NoExchange
	cs *compressedState
}

func (x roundTripExchanger) StartVelocity(wf *fd.Wavefield, _ int) {
	encode(x.cs.velocity(), wf.VelocityFields())
	decode(x.cs.velocity(), wf.VelocityFields())
}

func (x roundTripExchanger) StartStress(wf *fd.Wavefield, _ int) {
	encode(x.cs.fields, wf.AllFields())
	decode(x.cs.fields, wf.AllFields())
}

// TestCompressedRunIsThePlainStepWithRoundTrips: compressed storage has no
// schedule of its own. A compressed simulator and a plain one that walks the
// same passes and whose test exchanger passes the wavefield through the same
// codecs at the same three points — the stored initial state, the velocities before the stress phase,
// everything at the end of the step — hold the same bits in all nine fields,
// ghost layers included, after every step, for each codec and with the
// sponge on over a block deeper than any slab height the engine ever used.
func TestCompressedRunIsThePlainStepWithRoundTrips(t *testing.T) {
	for _, method := range []compress.Method{compress.Half, compress.Adaptive, compress.Normalized} {
		cfg := chainConfig()
		if cfg.SpongeWidth == 0 || cfg.Dims.Nz <= 16 {
			t.Fatalf("sponge %d cells on %d planes: the configuration would not tell slab orders apart", cfg.SpongeWidth, cfg.Dims.Nz)
		}
		plain, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Compression = method
		comp, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// the plain step's round trips go through the compressed run's codecs
		cs := &compressedState{}
		for i, f := range plain.WF.AllFields() {
			cs.fields = append(cs.fields, compress.NewField(f, comp.comp.fields[i].Codec))
		}
		encode(cs.fields, plain.WF.AllFields())
		decode(cs.fields, plain.WF.AllFields())
		plain.peers.ex = roundTripExchanger{cs: cs}
		// the velocity kernel over the whole block before the post, as the
		// round trip needs it
		plain.walks = comp.walks

		var peak float32
		for step := 1; step <= cfg.Steps; step++ {
			comp.Step()
			plain.Step()
			for c, want := range plain.WF.AllFields() {
				got := comp.WF.AllFields()[c]
				for idx, v := range want.Data {
					if math.Float32bits(v) != math.Float32bits(got.Data[idx]) {
						t.Fatalf("%v step %d: field %s differs at flat index %d: %g, plain step with round trips %g",
							method, step, FieldNames[c], idx, got.Data[idx], v)
					}
				}
			}
			peak = max(peak, comp.WF.MaxAbsVelocity())
		}
		if peak == 0 || comp.yielded == 0 || comp.yielded != plain.yielded {
			t.Fatalf("%v: peak |v| %g, %d yielded point-steps, plain step with round trips %d", method, peak, comp.yielded, plain.yielded)
		}
	}
}
