package experiments

import (
	"io"
	"testing"

	"swquake/internal/compress"
	"swquake/internal/grid"
)

func gridDims(nx, ny, nz int) grid.Dims { return grid.Dims{Nx: nx, Ny: ny, Nz: nz} }

func TestAblationFusion(t *testing.T) {
	res, err := AblationFusion(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.FusedBW <= res.UnfusedBW {
		t.Fatalf("fusion must raise bandwidth: %g vs %g", res.FusedBW, res.UnfusedBW)
	}
	if res.FusedBlock < 432 {
		t.Fatalf("fused block %d B, paper says 432+", res.FusedBlock)
	}
	if res.UnfusedBlock > 200 {
		t.Fatalf("unfused block %d B, paper says ~128", res.UnfusedBlock)
	}
	if res.PredictedSpeedup < 1.3 {
		t.Fatalf("fusion speedup %g too small", res.PredictedSpeedup)
	}
}

func TestAblationCompressionMethods(t *testing.T) {
	rows, err := AblationCompressionMethods(io.Discard, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	byMethod := map[compress.Method]AblationMethodResult{}
	for _, r := range rows {
		byMethod[r.Method] = r
	}
	// method 1 must hit its documented overflow at these stress levels
	if !byMethod[compress.Half].Diverged {
		t.Fatal("half-precision run should diverge (5-bit exponent overflow)")
	}
	// methods 2 and 3 stay stable with bounded misfit
	for _, m := range []compress.Method{compress.Adaptive, compress.Normalized} {
		r := byMethod[m]
		if r.Diverged {
			t.Fatalf("%v diverged", m)
		}
		if r.Misfit <= 0 || r.Misfit > 0.7 {
			t.Fatalf("%v misfit %g out of range", m, r.Misfit)
		}
	}
}

func TestExecutedMEMCrossChecksModel(t *testing.T) {
	res, err := ExecutedMEM(io.Discard, gridDims(40, 40, 64))
	if err != nil {
		t.Fatal(err)
	}
	// the executed bandwidth must sit within the physical envelope and
	// within ~35% of the blocking model's prediction (the executed path
	// includes halo transfers the analytic prediction amortizes)
	if res.SimBandwidthGBs <= 0 || res.SimBandwidthGBs > 34 {
		t.Fatalf("simulated bandwidth %g outside (0, 34]", res.SimBandwidthGBs)
	}
	ratio := res.SimBandwidthGBs / res.ModelBandwidthGBs
	if ratio < 0.5 || ratio > 1.5 {
		t.Fatalf("executed/model bandwidth ratio %g", ratio)
	}
	if res.HaloOverhead < 0 || res.HaloOverhead > 1.0 {
		t.Fatalf("halo overhead %g", res.HaloOverhead)
	}
	if res.LDMPeakBytes <= 0 || res.LDMPeakBytes > 64*1024 {
		t.Fatalf("LDM peak %d", res.LDMPeakBytes)
	}
}

func TestExecutedMEMPaperBlock(t *testing.T) {
	// the paper's own weak-scaling block: 160 x 160 x 512 per core group
	res, err := ExecutedMEM(io.Discard, gridDims(160, 160, 512))
	if err != nil {
		t.Fatal(err)
	}
	if res.LDMPeakBytes > 64*1024 {
		t.Fatalf("LDM peak %d exceeds the scratchpad", res.LDMPeakBytes)
	}
	// Table 4's effective bandwidth band: 70-90% of the 34 GB/s peak
	if res.SimBandwidthGBs < 0.6*34 || res.SimBandwidthGBs > 34 {
		t.Fatalf("paper-block simulated bandwidth %g GB/s outside Table 4 band", res.SimBandwidthGBs)
	}
}
