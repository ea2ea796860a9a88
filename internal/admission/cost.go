package admission

import (
	"swquake/internal/core"
	"swquake/internal/decomp"
	"swquake/internal/grid"
)

// EstimateCost predicts, in bytes, the steady-state resident working set of
// running cfg on an mx×my simulated-MPI process grid (both <=1 means
// serial): every per-point array the engine allocates, summed over ranks,
// plus seismogram and surface-map storage, plus one global wavefield when
// the run checkpoints (the checkpoint lane's one snapshot). It deliberately
// excludes transient spikes (checkpoint pack buffers, LZ4 scratch) —
// budgets should keep the headroom DESIGN.md §3.8 documents. The estimate is
// derived from core.Config.Storage — the engine-side account of what New
// allocates — so it tracks the real allocator; the admission tests pin it
// to live runtime.MemStats measurements within CostAccuracyFactor.
//
// The estimate is always >= 0 and monotone in grid volume (more points
// never cost less). An invalid layout falls back to the serial shape —
// Submit-side validation rejects it before the estimate matters.
func EstimateCost(cfg core.Config, mx, my int) int64 {
	if mx < 1 {
		mx = 1
	}
	if my < 1 {
		my = 1
	}
	d := cfg.Dims
	if !d.Valid() {
		return 0
	}

	block := d
	ranks := int64(1)
	var pg *decomp.ProcessGrid
	if mx > 1 || my > 1 {
		if g, err := decomp.NewProcessGrid(d.Nx, d.Ny, d.Nz, mx, my); err == nil {
			pg = g
			block = pg.BlockDims()
			ranks = int64(pg.Size())
		}
	}
	h := int64(grid.DefaultHalo)
	paddedPoints := func(d grid.Dims) int64 {
		return (int64(d.Nx) + 2*h) * (int64(d.Ny) + 2*h) * (int64(d.Nz) + 2*h)
	}
	padded := paddedPoints(block)

	st := cfg.Storage()
	bytes := ranks * padded * 4 * int64(st.FullFields32)

	if c := cfg.Checkpoint; c != nil && c.Interval > 0 {
		// the checkpoint lane holds one global padded wavefield while a run
		// checkpoints: its one snapshot, which block 0 fills for every dump
		bytes += paddedPoints(d) * 4 * int64(len(core.FieldNames))
	}
	if st.SurfacePGV {
		// per-rank block maps plus the merged global map (float64 cells)
		bytes += ranks*int64(block.Nx)*int64(block.Ny)*8 + int64(d.Nx)*int64(d.Ny)*8
	}
	if pg != nil {
		// per-step halo pack/unpack buffers, both directions, all ranks: the
		// nine wavefield fields are all that is ever exchanged
		for r := 0; r < int(ranks); r++ {
			bytes += pg.HaloBytesPerStep(r, len(core.FieldNames), int(h))
		}
	}
	// seismograms: 3 components × one sample a step × float32, per station
	if n := len(cfg.Stations); n > 0 && cfg.Steps > 0 {
		bytes += int64(n) * (int64(cfg.Steps) + 1) * 3 * 4
	}
	return bytes
}

// CostAccuracyFactor is the documented accuracy envelope of EstimateCost:
// for representative scenarios the estimate stays within this factor of
// the live-measured allocation (tested against runtime.MemStats). Budget
// operators should size budgets assuming the estimate may be off by this
// much either way.
const CostAccuracyFactor = 2.0
