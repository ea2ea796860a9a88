package core

import (
	"fmt"

	"swquake/internal/compress"
	"swquake/internal/source"
)

const (
	// calibrationCoarsening is how much coarser than the run, along every
	// axis and in step count, its calibration run is.
	calibrationCoarsening = 2
	// calibrationHeadroom widens the calibrated ranges, for the fine run
	// exceeding the coarse run's dynamic range.
	calibrationHeadroom = 1.5
)

// calibrate is the preprocessing step of Fig. 5a, which New and
// RunParallelCtx take once per run: it runs a coarsened, uncompressed
// version of the run's global configuration (grid coarsened by
// calibrationCoarsening along every axis, matching coarser dx and fewer
// steps) and returns the run's nine codecs, in FieldNames order, each over
// its field's value/exponent range widened by calibrationHeadroom. Sources
// are remapped onto the coarse grid with their moment preserved. The coarse
// run reports to nobody — no observer, tracer, checkpoint, restart or fault
// hook — and records nothing. Half, whose range is fixed, needs no run; an
// uncompressed run has no codecs: nil. The codecs are immutable, so every
// block of the run shares them.
func calibrate(cfg Config) ([]compress.Codec, error) {
	switch cfg.Compression {
	case compress.Off:
		return nil, nil
	case compress.Half:
		return codecs(cfg.Compression, make([]compress.Stats, len(FieldNames)))
	}
	const factor = calibrationCoarsening
	coarse := cfg
	coarse.Compression = compress.Off
	coarse.Checkpoint = nil
	coarse.RestartFrom = ""
	coarse.Observer = nil
	coarse.OnFault = nil
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
	stats := make([]compress.Stats, len(FieldNames))
	sampleEvery := max(coarse.Steps/8, 1)
	for n := 0; n < coarse.Steps; n++ {
		sim.Step()
		if n%sampleEvery == 0 || n == coarse.Steps-1 {
			for i, f := range sim.WF.AllFields() {
				stats[i] = stats[i].Merge(compress.CollectStats(f))
			}
		}
	}
	for i, s := range stats {
		stats[i] = s.Expand(calibrationHeadroom)
	}
	return codecs(cfg.Compression, stats)
}

// codecs builds method's codec over each field's range.
func codecs(method compress.Method, stats []compress.Stats) ([]compress.Codec, error) {
	cs := make([]compress.Codec, len(stats))
	for i, s := range stats {
		c, err := compress.NewCodec(method, s)
		if err != nil {
			return nil, err
		}
		cs[i] = c
	}
	return cs, nil
}
