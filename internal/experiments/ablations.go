package experiments

import (
	"fmt"
	"io"

	"swquake/internal/compress"
	"swquake/internal/core"
	"swquake/internal/ldm"
	"swquake/internal/sunway"
)

// Ablations for the design choices DESIGN.md calls out. These are not
// paper figures but quantify the individual decisions the paper's §6
// bundles together.

// AblationFusionResult quantifies array fusion through the blocking model.
type AblationFusionResult struct {
	UnfusedBW, FusedBW       float64 // effective GB/s per CG
	UnfusedBlock, FusedBlock int     // max DMA chunk bytes
	UnfusedWz, FusedWz       int
	PredictedSpeedup         float64 // ratio of predicted DMA times
}

// AblationFusion runs the LDM model with and without the vec3/vec6 fusion
// (paper §6.4, eqs. 8-9).
func AblationFusion(w io.Writer) (*AblationFusionResult, error) {
	unfused, err := ldm.Optimize(ldm.DelcUnfused(), 160, 512, sunway.LDMBytes)
	if err != nil {
		return nil, err
	}
	fused, err := ldm.Optimize(ldm.DelcFused(), 160, 512, sunway.LDMBytes)
	if err != nil {
		return nil, err
	}
	res := &AblationFusionResult{
		UnfusedBW: unfused.EffBWGBs, FusedBW: fused.EffBWGBs,
		UnfusedBlock: unfused.BlockBytesMax, FusedBlock: fused.BlockBytesMax,
		UnfusedWz: unfused.Wz, FusedWz: fused.Wz,
		PredictedSpeedup: unfused.PredictedTime / fused.PredictedTime,
	}
	fmt.Fprintln(w, "Ablation: array fusion (paper §6.4)")
	fmt.Fprintf(w, "%-10s %8s %10s %12s\n", "layout", "Wz", "block(B)", "eff BW GB/s")
	fmt.Fprintf(w, "%-10s %8d %10d %12.1f\n", "unfused", res.UnfusedWz, res.UnfusedBlock, res.UnfusedBW)
	fmt.Fprintf(w, "%-10s %8d %10d %12.1f\n", "fused", res.FusedWz, res.FusedBlock, res.FusedBW)
	fmt.Fprintf(w, "predicted DMA speedup %.2fx (paper: up to 4x on the hottest kernels)\n", res.PredictedSpeedup)
	return res, nil
}

// AblationMethodResult is one row of the codec comparison.
type AblationMethodResult struct {
	Method   compress.Method
	Misfit   float64 // RMS misfit at Ninghe vs uncompressed
	Diverged bool
}

// AblationCompressionMethods runs the Tangshan scenario under each of the
// three 16-bit codecs (paper Fig. 5d) and reports the accuracy ordering —
// including method 1's characteristic overflow failure when stresses
// exceed the binary16 range.
func AblationCompressionMethods(w io.Writer, size Size) ([]AblationMethodResult, error) {
	sc := size.tangshan(false)
	cfg, err := sc.Config()
	if err != nil {
		return nil, err
	}
	ref, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	refRes, err := ref.Run()
	if err != nil {
		return nil, err
	}

	fmt.Fprintln(w, "Ablation: compression methods (paper Fig. 5d)")
	fmt.Fprintf(w, "%-12s %14s %10s\n", "method", "Ninghe misfit", "stable")
	var out []AblationMethodResult
	for _, m := range []compress.Method{compress.Half, compress.Adaptive, compress.Normalized} {
		ccfg := cfg
		ccfg.Compression = m
		csim, err := core.New(ccfg)
		if err != nil {
			return nil, err
		}
		row := AblationMethodResult{Method: m}
		res, err := csim.Run()
		if err != nil {
			row.Diverged = true
		} else {
			row.Misfit, err = refRes.Recorder.Trace("Ninghe").RMSMisfit(res.Recorder.Trace("Ninghe"))
			if err != nil {
				return nil, err
			}
		}
		out = append(out, row)
		if row.Diverged {
			fmt.Fprintf(w, "%-12s %14s %10s\n", m, "-", "DIVERGED (5-bit exponent overflow, §6.5)")
		} else {
			fmt.Fprintf(w, "%-12s %13.1f%% %10s\n", m, 100*row.Misfit, "yes")
		}
	}
	return out, nil
}
