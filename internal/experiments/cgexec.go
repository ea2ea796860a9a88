package experiments

import (
	"fmt"
	"io"

	"swquake/internal/cgexec"
	"swquake/internal/grid"
	"swquake/internal/perfmodel"
	"swquake/internal/sunway"
)

// ExecutedMEMResult compares the tile-by-tile core-group tally of one step
// against the analytic MEM-strategy prediction.
type ExecutedMEMResult struct {
	// SimBandwidthGBs is the effective DMA bandwidth of the tiled step
	// under the machine model's clock.
	SimBandwidthGBs float64
	// ModelBandwidthGBs is the blocking model's prediction.
	ModelBandwidthGBs float64
	// HaloOverhead is tallied halo bytes / interior bytes.
	HaloOverhead float64
	// LDMPeakBytes is the peak working set of a tile.
	LDMPeakBytes int
	// StepSeconds is the simulated CG time for one velocity+stress pass.
	StepSeconds float64
}

// ExecutedMEM charges one velocity+stress step of a CG block to the
// tile-by-tile core-group tally (cgexec.Tally) — the one quakesim -sunway
// reports for a run's block — and cross-checks the simulated bandwidth and LDM
// usage against the analytic model that Figs. 7-9 and Table 4 are built on.
// This closes the loop between the executed and the modeled halves of the
// reproduction.
func ExecutedMEM(w io.Writer, block grid.Dims) (*ExecutedMEMResult, error) {
	s, cfg, err := cgexec.Tally(block)
	if err != nil {
		return nil, err
	}
	interior := float64(block.Points()) * (10 + 3 + 11 + 6) * 4 // logical traffic
	res := &ExecutedMEMResult{
		SimBandwidthGBs:   s.EffectiveBandwidth(),
		ModelBandwidthGBs: cfg.EffBWGBs,
		HaloOverhead:      float64(s.DMAGetBytes+s.DMAPutBytes)/interior - 1,
		LDMPeakBytes:      cfg.LDMBytesUsed,
		StepSeconds:       s.StepSeconds(),
	}
	fmt.Fprintln(w, "Executed core-group step (tile-by-tile through simulated LDM/DMA):")
	fmt.Fprintf(w, "block %v, tile Wz=%d Wy=%d, %d tiles, %d DMA transfers\n",
		block, cfg.Wz, cfg.Wy, s.Tiles, s.DMATransfers)
	fmt.Fprintf(w, "simulated bandwidth %.1f GB/s vs blocking-model prediction %.1f GB/s (DDR3 peak %.0f)\n",
		res.SimBandwidthGBs, res.ModelBandwidthGBs, float64(sunway.CGMemBWGBs))
	fmt.Fprintf(w, "halo DMA overhead %.1f%%, LDM peak %d B of %d\n",
		100*res.HaloOverhead, res.LDMPeakBytes, sunway.LDMBytes)
	fmt.Fprintf(w, "simulated CG step %.2f ms (perfmodel linear-case estimate %.2f ms at this size)\n",
		1e3*res.StepSeconds, 1e3*perfmodel.CGStepSeconds(perfmodel.Case{}, block.Points()))
	return res, nil
}
