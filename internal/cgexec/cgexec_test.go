package cgexec

import (
	"math"
	"testing"

	"swquake/internal/fd"
	"swquake/internal/grid"
	"swquake/internal/ldm"
	"swquake/internal/sunway"
)

func tally(t *testing.T, d grid.Dims) (Stats, ldm.Config) {
	t.Helper()
	s, cfg, err := Tally(d)
	if err != nil {
		t.Fatal(err)
	}
	return s, cfg
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
			DMATransfers:   39304,
			DMASeconds:     math.Float64frombits(0x3f42f5a5e7adfd48),
			ComputeSeconds: math.Float64frombits(0x3f5789e9c557861e),
			RegSeconds:     math.Float64frombits(0x3f25b63bdadcdf55),
			Tiles:          26}},
		{grid.Dims{Nx: 32, Ny: 62, Nz: 24}, Stats{DMAGetBytes: 5588352, DMAPutBytes: 1714176,
			DMATransfers:   20600,
			DMASeconds:     math.Float64frombits(0x3f33d20c7a2a110b),
			ComputeSeconds: math.Float64frombits(0x3f4789e9c557861e),
			RegSeconds:     math.Float64frombits(0x3f17036af181ac22),
			Tiles:          26}},
	} {
		s, cfg := tally(t, c.block)
		if s != c.want {
			t.Errorf("%v: one step charges\n%+v, want\n%+v", c.block, s, c.want)
		}
		if cfg.LDMBytesUsed != 12960 {
			t.Errorf("%v: tile window %d B, want 12960", c.block, cfg.LDMBytesUsed)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 20, Nz: 24}
	s, cfg := tally(t, d)
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
	// the tiles' compute is the block's flops at one CPE's rate
	flops := int64(d.Points()) * (fd.VelocityFlopsPerPoint + fd.StressFlopsPerPoint)
	if want := sunway.ComputeSeconds(flops, 1); math.Abs(s.ComputeSeconds-want) > 1e-12*want {
		t.Fatalf("compute %g s, want %g s", s.ComputeSeconds, want)
	}
	// the tile window is eq. 6's left-hand side for the three fused groups
	if cfg.LDMBytesUsed <= 0 || cfg.LDMBytesUsed > sunway.LDMBytes ||
		cfg.LDMBytesUsed != 4*len(ldm.DelcFused().Groups)*cfg.Wz*cfg.Wy*ldm.DelcFused().MinWx {
		t.Fatalf("LDM window %d outside (0, 64K] or not Wz=%d x Wy=%d x Wx", cfg.LDMBytesUsed, cfg.Wz, cfg.Wy)
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

func TestTallyValidation(t *testing.T) {
	if _, _, err := Tally(grid.Dims{}); err == nil {
		t.Fatal("invalid block accepted")
	}
}

func TestTilesPartitionBlock(t *testing.T) {
	d := grid.Dims{Nx: 4, Ny: 23, Nz: 37}
	_, cfg := tally(t, d)
	covered := make([]bool, d.Ny*d.Nz)
	for _, tl := range tiles(d, cfg) {
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
	s, _ := tally(t, grid.Dims{Nx: 8, Ny: 20, Nz: 24})
	if s.RegSeconds == 0 {
		t.Fatal("no register communication accounted")
	}
	// the paper's rationale for on-chip halos: fetching them over the
	// register buses is far cheaper than the equivalent DMA traffic.
	dmaSeconds := sunway.DMATransferSeconds(s.DMAGetBytes, 512, sunway.DMAGet)
	if s.RegSeconds > dmaSeconds/3 {
		t.Fatalf("register halo cost %g s not well below DMA cost %g s", s.RegSeconds, dmaSeconds)
	}
}
