package cgexec

import (
	"math"
	"testing"

	"swquake/internal/fd"
	"swquake/internal/grid"
	"swquake/internal/sunway"
)

func newExecutor(t *testing.T, d grid.Dims) *Executor {
	t.Helper()
	ex, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// TestStepPinsTheTally: one step of the tangshan block and of one rank of
// its 2x1 grid charges exactly what the executor charged when it still
// copied every tile through its kernels — integers exact, floats bit for bit.
func TestStepPinsTheTally(t *testing.T) {
	for _, c := range []struct {
		block grid.Dims
		want  Stats
	}{
		{grid.Dims{Nx: 64, Ny: 62, Nz: 24}, Stats{DMAGetBytes: 10555776, DMAPutBytes: 3428352,
			DMATransfers: 39304, Flops: 16665600, RegCommWords: 1919232,
			DMASeconds:     math.Float64frombits(0x3f42f5a5e7adfd48),
			ComputeSeconds: math.Float64frombits(0x3f5789e9c557861e),
			RegSeconds:     math.Float64frombits(0x3f25b63bdadcdf55),
			LDMPeakBytes:   12960, Tiles: 26, Steps: 1}},
		{grid.Dims{Nx: 32, Ny: 62, Nz: 24}, Stats{DMAGetBytes: 5588352, DMAPutBytes: 1714176,
			DMATransfers: 20600, Flops: 8332800, RegCommWords: 1016064,
			DMASeconds:     math.Float64frombits(0x3f33d20c7a2a110b),
			ComputeSeconds: math.Float64frombits(0x3f4789e9c557861e),
			RegSeconds:     math.Float64frombits(0x3f17036af181ac22),
			LDMPeakBytes:   12960, Tiles: 26, Steps: 1}},
	} {
		ex := newExecutor(t, c.block)
		ex.Step()
		if ex.Stats != c.want {
			t.Errorf("%v: one step charges\n%+v, want\n%+v", c.block, ex.Stats, c.want)
		}
	}
}

// TestFullTiledStepSequence: every step of a run is charged alike — three
// steps tally three times one step's traffic, transfers, flops, register
// words and tiles, and the same LDM peak.
func TestFullTiledStepSequence(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 20, Nz: 24}
	one := newExecutor(t, d)
	one.Step()
	three := newExecutor(t, d)
	for n := 0; n < 3; n++ {
		three.Step()
	}
	o, s := one.Stats, three.Stats
	want := Stats{DMAGetBytes: 3 * o.DMAGetBytes, DMAPutBytes: 3 * o.DMAPutBytes,
		DMATransfers: 3 * o.DMATransfers, Flops: 3 * o.Flops, RegCommWords: 3 * o.RegCommWords,
		LDMPeakBytes: o.LDMPeakBytes, Tiles: 3 * o.Tiles, Steps: 3}
	s.DMASeconds, s.ComputeSeconds, s.RegSeconds = 0, 0, 0
	if s != want {
		t.Fatalf("three steps charge %+v, want %+v", s, want)
	}
	if got := three.Stats.StepSeconds(); math.Abs(got-3*o.StepSeconds()) > 1e-12*got {
		t.Fatalf("three steps take %g s, one %g s", got, o.StepSeconds())
	}
}

func TestStatsAccounting(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 20, Nz: 24}
	ex := newExecutor(t, d)
	ex.Step()
	s := ex.Stats
	if s.Tiles == 0 || s.DMATransfers == 0 {
		t.Fatal("no tiles accounted")
	}
	// reads must exceed the interior lower bound: 10 arrays over the block
	// for the velocity kernel, 11 for the stress kernel
	lower := int64(d.Points()) * (10 + 11) * 4
	if s.DMAGetBytes < lower {
		t.Fatalf("get bytes %d below interior volume %d", s.DMAGetBytes, lower)
	}
	// halo overhead is bounded (tiles plus stencil halos, < 4x)
	if s.DMAGetBytes > 4*lower {
		t.Fatalf("get bytes %d implausibly high vs %d", s.DMAGetBytes, lower)
	}
	// writes are exactly the interior velocity and stress volume
	wantPut := int64(d.Points()) * (3 + 6) * 4
	if s.DMAPutBytes != wantPut {
		t.Fatalf("put bytes %d want %d", s.DMAPutBytes, wantPut)
	}
	if s.Flops != int64(d.Points())*(fd.VelocityFlopsPerPoint+fd.StressFlopsPerPoint) {
		t.Fatalf("flops %d", s.Flops)
	}
	if s.LDMPeakBytes <= 0 || s.LDMPeakBytes > sunway.LDMBytes {
		t.Fatalf("LDM peak %d outside (0, 64K]", s.LDMPeakBytes)
	}
	if s.StepSeconds() <= 0 {
		t.Fatal("no simulated time")
	}
	// simulated effective bandwidth must sit in the DMA model's range
	bw := s.EffectiveBandwidth()
	if bw <= 0 || bw > sunway.CGMemBWGBs {
		t.Fatalf("simulated bandwidth %g GB/s outside (0, 34]", bw)
	}
}

func TestExecutorValidation(t *testing.T) {
	if _, err := New(grid.Dims{}); err == nil {
		t.Fatal("invalid block accepted")
	}
	ex := newExecutor(t, grid.Dims{Nx: 8, Ny: 20, Nz: 24})
	if ex.Stats != (Stats{}) {
		t.Fatalf("a new executor has charged %+v", ex.Stats)
	}
}

func TestTilesPartitionBlock(t *testing.T) {
	d := grid.Dims{Nx: 4, Ny: 23, Nz: 37}
	ex := newExecutor(t, d)
	covered := make([]bool, d.Ny*d.Nz)
	for _, tl := range ex.tiles() {
		for j := tl.j0; j < tl.j1; j++ {
			for k := tl.k0; k < tl.k1; k++ {
				idx := j*d.Nz + k
				if covered[idx] {
					t.Fatalf("overlap at (%d,%d)", j, k)
				}
				covered[idx] = true
			}
		}
	}
	for idx, c := range covered {
		if !c {
			t.Fatalf("gap at %d", idx)
		}
	}
}

func TestRegisterCommAccounting(t *testing.T) {
	ex := newExecutor(t, grid.Dims{Nx: 8, Ny: 20, Nz: 24})
	ex.Step()
	s := ex.Stats
	if s.RegCommWords == 0 {
		t.Fatal("no register communication accounted")
	}
	// the paper's rationale for on-chip halos: fetching them over the
	// register buses is far cheaper than the equivalent DMA traffic.
	regSeconds := sunway.RegCommBulkSeconds(s.RegCommWords)
	dmaSeconds := sunway.DMATransferSeconds(s.DMAGetBytes, 512, sunway.DMAGet)
	if regSeconds > dmaSeconds/3 {
		t.Fatalf("register halo cost %g s not well below DMA cost %g s", regSeconds, dmaSeconds)
	}
}
