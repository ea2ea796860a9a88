package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"swquake/internal/checkpoint"
	"swquake/internal/compress"
	"swquake/internal/decomp"
	"swquake/internal/fd"
	"swquake/internal/grid"
)

// roundTripExchanger is NoExchange plus two whole-block codec round trips
// that fall on an exchange, ghost layers included: the velocities as the
// stress phase reads them, and all nine fields once the step's stages are
// done.
type roundTripExchanger struct {
	NoExchange
	cs    *compressedState
	codes []uint16
}

func (x roundTripExchanger) StartVelocity(wf *fd.Wavefield, _ int) {
	x.cs.roundTrip(wf, velocities, padded(wf.D), x.codes)
}

func (x roundTripExchanger) StartStress(wf *fd.Wavefield, _ int) {
	x.cs.roundTrip(wf, allFields, padded(wf.D), x.codes)
}

// TestCompressedRunIsThePlainStepWithRoundTrips: compressed storage has no
// schedule of its own — its round trips ride the walk, each right behind
// the stage that wrote what it stores. A compressed simulator and a plain
// one that runs the velocity kernel over the whole block before the post
// and whose test exchanger passes the whole wavefield through the same
// codecs at three points — the stored initial state, the velocities before
// the stress phase, everything at the end of the step — hold the same bits
// in all nine fields, ghost layers included, after every step, for each
// codec and with the sponge on over a block deeper than any slab height the
// engine ever used.
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
		x := roundTripExchanger{cs: comp.comp, codes: make([]uint16, cfg.Dims.Nz+2*fd.Halo)}
		x.cs.roundTrip(plain.WF, allFields, padded(plain.WF.D), x.codes)
		plain.peers.ex = x
		// the velocity kernel over the whole block before the post, as the
		// exchanger's velocity round trip needs it
		if fmt.Sprint(comp.walks) != fmt.Sprint(plain.walks) {
			t.Fatalf("%v: compressed walks %v, plain %v", method, comp.walks, plain.walks)
		}
		box := []grid.Region{grid.Box(cfg.Dims)}
		plain.walks = [3]pass{{vel: box}, {chain: box, sponge: box}, {}}

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
			peak = max(peak, grid.MaxAbs(comp.WF.U, comp.WF.V, comp.WF.W))
		}
		if peak == 0 || comp.yielded == 0 || comp.yielded != plain.yielded {
			t.Fatalf("%v: peak |v| %g, %d yielded point-steps, plain step with round trips %d", method, peak, comp.yielded, plain.yielded)
		}
	}
}

// TestCompressedBlockKeepsOneCopy: compressed storage is the run's codecs
// and a column of codes beside the float32 wavefield — Storage reports what
// the plain configuration's does, and building a compressed block allocates
// no more than building a plain one, beyond the scratch.
func TestCompressedBlockKeepsOneCopy(t *testing.T) {
	plain := baseConfig()
	if err := plain.Validate(); err != nil {
		t.Fatal(err)
	}
	comp := plain
	comp.Compression = compress.Normalized
	if got, want := comp.Storage(), plain.Storage(); got != want {
		t.Fatalf("compressed storage %+v, plain %+v", got, want)
	}
	codecs, err := calibrate(comp)
	if err != nil {
		t.Fatal(err)
	}
	d := plain.Dims
	pg := &decomp.ProcessGrid{GlobalNx: d.Nx, GlobalNy: d.Ny, GlobalNz: d.Nz, Mx: 1, My: 1}
	// the least of three builds: whatever else the process allocates meanwhile
	// only adds to one
	allocated := func(cfg Config, codecs []compress.Codec) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sim, err := newBlock(cfg, pg, 0, cfg.Sources, codecs, alone)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			runtime.KeepAlive(sim)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	// the scratch's codes of a padded column, and the state and slice
	// headers around them
	codes := uint64(2 * (d.Nz + 2*fd.Halo))
	p, c := allocated(plain, nil), allocated(comp, codecs)
	if c > p+codes+512 {
		t.Fatalf("a compressed block allocates %d B, a plain one %d B: %d B more than its %d B of codes",
			c, p, c-p-codes, codes)
	}
}

// TestCompressedRestoreStoresTheDump: a dump written by a plain run holds
// values the codecs do not store; a compressed run restored from it holds
// only fixed points of its codecs — the values a 16-bit store would decode
// to — ghost layers included, before it takes a step.
func TestCompressedRestoreStoresTheDump(t *testing.T) {
	cfg := chainConfig()
	dumped := cfg
	dumped.Checkpoint = &checkpoint.Controller{Dir: t.TempDir(), Interval: cfg.Steps / 2}
	path := runSerial(t, dumped).Checkpoints[0].Path
	cfg.Compression = compress.Normalized
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Restore(path); err != nil {
		t.Fatal(err)
	}
	_, _, dump, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i, f := range sim.WF.AllFields() {
		c := sim.comp.codecs[i]
		for idx, v := range f.Data {
			if w := c.Decode(c.Encode(v)); math.Float32bits(w) != math.Float32bits(v) {
				t.Fatalf("field %s holds %g at flat index %d, which its codec stores as %g", FieldNames[i], v, idx, w)
			}
		}
		// the restored block is the whole domain: its storage is the dump's
		want := dump.AllFields()[i].Data
		if len(want) != len(f.Data) {
			t.Fatalf("field %s: %d values restored from a dump of %d", FieldNames[i], len(f.Data), len(want))
		}
		for idx, v := range want {
			if math.Float32bits(v) != math.Float32bits(f.Data[idx]) {
				moved++
			}
		}
	}
	if moved == 0 {
		t.Fatal("every value of the plain run's dump was already a fixed point: the test shows nothing")
	}
}
