package sunway

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMachineConstants(t *testing.T) {
	if TotalCGs != 163840 {
		t.Fatalf("TotalCGs = %d", TotalCGs)
	}
	if TotalCores != 10649600 {
		t.Fatalf("TotalCores = %d, want 10,649,600", TotalCores)
	}
	// Table 1: byte-to-flop 0.038, roughly 1/5 of Titan's 0.202
	if r := 0.202 / BytesPerFlop; r < 4.5 || r > 6 {
		t.Fatalf("byte-to-flop ratio vs Titan = %g, want ~5", r)
	}
	// 64 CPEs at 1.45 GHz x 8 flops ≈ 742 Gflops, below the 765 CG peak
	cpes := CPEsPerCG * CPEFreqGHz * CPEFlopsPerCycle
	if cpes > CGPeakGflops || cpes < 0.9*CGPeakGflops {
		t.Fatalf("CPE aggregate %g vs CG peak %g", cpes, CGPeakGflops)
	}
	// full machine: 765 Gflops * 163840 CGs ≈ 125 Pflops
	sys := CGPeakGflops * 1e9 * TotalCGs
	if math.Abs(sys-PeakSystemFlops())/PeakSystemFlops() > 0.01 {
		t.Fatalf("system peak mismatch: %g vs %g", sys, PeakSystemFlops())
	}
}

func TestDMABandwidthMatchesTable3(t *testing.T) {
	cases := []struct {
		block   int
		dir     DMADir
		fourCGs bool
		want    float64
	}{
		{32, DMAGet, false, 3.28},
		{32, DMAGet, true, 13.21},
		{32, DMAPut, false, 2.58},
		{32, DMAPut, true, 8.07},
		{128, DMAGet, false, 17.81},
		{128, DMAGet, true, 72.02},
		{512, DMAGet, false, 27.8},
		{512, DMAPut, true, 107.88},
		{2048, DMAGet, false, 31.3},
		{2048, DMAPut, true, 133},
	}
	for _, c := range cases {
		got := DMABandwidth(c.block, c.dir, c.fourCGs)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("DMABandwidth(%d,%v,%v) = %g, want %g (Table 3)", c.block, c.dir, c.fourCGs, got, c.want)
		}
	}
}

func TestDMABandwidthInterpolation(t *testing.T) {
	// 432-byte fused-array blocks (paper §6.4) must land between the 128
	// and 512 measurements, near the 512 end
	got := DMABandwidth(432, DMAGet, true)
	if !(got > 72.02 && got < 104.86) {
		t.Fatalf("432 B bandwidth %g outside (72.02, 104.86)", got)
	}
	if got < 95 {
		t.Fatalf("432 B bandwidth %g should be close to the 512 B knee", got)
	}
	// saturation above the table
	if DMABandwidth(1<<20, DMAGet, true) != 119.2 {
		t.Fatal("large blocks must saturate")
	}
	// tiny blocks degrade proportionally
	if DMABandwidth(16, DMAGet, false) >= 3.28 {
		t.Fatal("sub-32B blocks must degrade")
	}
	if DMABandwidth(0, DMAGet, false) != 0 {
		t.Fatal("zero block")
	}
}

func TestQuickDMABandwidthMonotone(t *testing.T) {
	fn := func(a, b uint16) bool {
		x, y := int(a)+1, int(b)+1
		if x > y {
			x, y = y, x
		}
		return DMABandwidth(x, DMAGet, true) <= DMABandwidth(y, DMAGet, true)+1e-9
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPaperBandwidthUtilizationClaims(t *testing.T) {
	// §6.4: 128-byte blocks -> ~50% utilization; 432-byte -> ~80%
	u128 := BandwidthUtilization(128, DMAGet)
	if u128 < 0.4 || u128 > 0.65 {
		t.Fatalf("128 B utilization %g, paper says ~50%%", u128)
	}
	u432 := BandwidthUtilization(432, DMAGet)
	if u432 < 0.7 || u432 > 0.95 {
		t.Fatalf("432 B utilization %g, paper says ~80%%", u432)
	}
	// §6.4 dstrqc case: fusion lifts 84 B -> 512 B, bandwidth ~50 -> ~105
	// GB/s at the 4-CG level; ratio must be >= 1.4
	r := DMABandwidth(512, DMAGet, true) / DMABandwidth(84, DMAGet, true)
	if r < 1.4 {
		t.Fatalf("fusion bandwidth gain %g too small", r)
	}
}

func TestDMATransferSeconds(t *testing.T) {
	// moving 1 GB in 512-byte chunks at ~26.2 GB/s per CG share
	s := DMATransferSeconds(1<<30, 512, DMAGet)
	bw := PerCGShare(512, DMAGet)
	want := float64(1<<30) / (bw * 1e9)
	if math.Abs(s-want) > 1e-12 {
		t.Fatalf("transfer seconds %g want %g", s, want)
	}
	if DMATransferSeconds(1<<30, 32, DMAGet) <= s {
		t.Fatal("smaller blocks must be slower")
	}
}

func TestComputeVsMemoryTimescales(t *testing.T) {
	// one CG doing 1 Gflop of work: compute takes ~1/742 s on 64 CPEs,
	// ~172x longer on the MPE alone
	c := ComputeSeconds(1e9, CPEsPerCG)
	m := MPEComputeSeconds(1e9)
	if ratio := m / c; ratio < 100 || ratio > 200 {
		t.Fatalf("MPE/CPE compute ratio %g", ratio)
	}
	// register comm: fetching 1000 words costs 11000 cycles
	want := 1000.0 * 11 / (CPEFreqGHz * 1e9)
	if got := RegCommSeconds(1000); math.Abs(got-want) > 1e-15 {
		t.Fatalf("RegCommSeconds %g want %g", got, want)
	}
	if LDMAccessSeconds(1000) >= RegCommSeconds(1000) {
		t.Fatal("LDM access must be cheaper than remote registers")
	}
}

func TestMPEBandwidthIsTheBottleneck(t *testing.T) {
	// the MPE's strided effective bandwidth must be far below the DMA-fed
	// streaming bandwidth — this gap is what makes the PAR/MEM versions of
	// Fig. 7 30-48x faster.
	dma := PerCGShare(512, DMAGet)
	if dma/MPEEffectiveBWGBs < 20 {
		t.Fatalf("DMA/MPE bandwidth gap only %g", dma/MPEEffectiveBWGBs)
	}
}

func TestAvailableCGMem(t *testing.T) {
	got := AvailableCGMemBytes()
	want := 5.5 * float64(1<<30)
	if math.Abs(got-want) > 1 {
		t.Fatalf("available CG mem %g want %g", got, want)
	}
}
