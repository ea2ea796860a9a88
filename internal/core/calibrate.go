package core

import (
	"fmt"

	"swquake/internal/compress"
	"swquake/internal/source"
)

// CalibrateCompression is the preprocessing step of Fig. 5a: it runs a
// coarsened, uncompressed version of the configured simulation (grid
// coarsened by factor along every axis, matching coarser dx and fewer
// steps) and records the per-field value/exponent ranges the fine run's
// codecs will cover. Sources are remapped onto the coarse grid with their
// moment preserved.
func CalibrateCompression(cfg Config, factor int) (map[string]compress.Stats, error) {
	if factor < 1 {
		return nil, fmt.Errorf("core: coarsening factor must be >= 1")
	}
	coarse := cfg
	coarse.Compression = CompressionConfig{}
	coarse.Checkpoint = nil
	coarse.RecordPGV = false
	coarse.Stations = nil
	coarse.Dims.Nx = max(cfg.Dims.Nx/factor, 8)
	coarse.Dims.Ny = max(cfg.Dims.Ny/factor, 8)
	coarse.Dims.Nz = max(cfg.Dims.Nz/factor, 8)
	coarse.Dx = cfg.Dx * float64(cfg.Dims.Nx) / float64(coarse.Dims.Nx)
	coarse.Dt = 0 // re-derive from CFL on the coarse grid
	coarse.Steps = max(cfg.Steps/factor, 4)
	if coarse.SpongeWidth*2 >= min(coarse.Dims.Nx, coarse.Dims.Ny) {
		coarse.SpongeWidth = min(coarse.Dims.Nx, coarse.Dims.Ny)/2 - 1
	}
	coarse.Sources = nil
	// Scale moments so the moment DENSITY per coarse cell matches the fine
	// run: near-source stress amplitudes — which set the dynamic range the
	// codecs must cover — then agree between the two grids. A coarse cell
	// is (coarseDx/dx)^3 times larger, but it may also absorb several fine
	// sub-sources (a distributed fault maps many-to-one), which already
	// concentrates density; the correction is volumeRatio / multiplicity.
	volumeRatio := (coarse.Dx / cfg.Dx) * (coarse.Dx / cfg.Dx) * (coarse.Dx / cfg.Dx)
	mapSrc := func(s source.PointSource) source.PointSource {
		s.I = min(max(s.I*coarse.Dims.Nx/cfg.Dims.Nx, 0), coarse.Dims.Nx-1)
		s.J = min(max(s.J*coarse.Dims.Ny/cfg.Dims.Ny, 0), coarse.Dims.Ny-1)
		s.K = min(max(s.K*coarse.Dims.Nz/cfg.Dims.Nz, 0), coarse.Dims.Nz-1)
		return s
	}
	multiplicity := map[[3]int]float64{}
	for _, s := range cfg.Sources {
		m := mapSrc(s)
		multiplicity[[3]int{m.I, m.J, m.K}]++
	}
	for _, s := range cfg.Sources {
		cs := mapSrc(s)
		cs.S = source.Scaled{S: s.S, Factor: volumeRatio / multiplicity[[3]int{cs.I, cs.J, cs.K}]}
		coarse.Sources = append(coarse.Sources, cs)
	}

	sim, err := New(coarse)
	if err != nil {
		return nil, fmt.Errorf("core: coarse calibration setup: %w", err)
	}
	stats := make(map[string]compress.Stats, len(FieldNames))
	for _, name := range FieldNames {
		stats[name] = compress.Stats{Min: 0, Max: 0, Emin: 0, Emax: 0}
	}
	sampleEvery := max(coarse.Steps/8, 1)
	for n := 0; n < coarse.Steps; n++ {
		sim.Step()
		if n%sampleEvery == 0 || n == coarse.Steps-1 {
			for i, f := range sim.WF.AllFields() {
				stats[FieldNames[i]] = stats[FieldNames[i]].Merge(compress.CollectStats(f))
			}
		}
	}
	return stats, nil
}
