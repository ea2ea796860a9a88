// Package cgexec executes the wave-propagation kernels the way one SW26010
// core group does (paper Fig. 4, levels 2-4): the block is partitioned
// into per-CPE tiles by the LDM blocking model, each tile's working set is
// "DMA-loaded" into an LDM-sized buffer (capacity-checked against the real
// 64 KB), the kernel runs on the buffer, and results are "DMA-stored"
// back. The executor tallies simulated DMA traffic, transfer counts and
// compute time using the calibrated machine model, while producing results
// that are bit-identical to the plain full-grid kernels — the tests verify
// both properties.
//
// This is what makes the paper's "MEM" execution strategy (Fig. 7) an
// executed code path in this reproduction rather than only a model: the
// tiling, the halo loads, the capacity constraint and the per-chunk DMA
// granularity all really happen; only the clock is simulated.
package cgexec

import (
	"fmt"

	"swquake/internal/fd"
	"swquake/internal/grid"
	"swquake/internal/ldm"
	"swquake/internal/sunway"
)

// Stats accumulates the simulated-hardware accounting.
type Stats struct {
	DMAGetBytes  int64
	DMAPutBytes  int64
	DMATransfers int64
	Flops        int64
	// RegCommWords counts halo values fetched from neighbouring CPE tiles
	// over the register buses (the paper's on-chip halo exchange) instead
	// of re-loading them via DMA.
	RegCommWords int64
	// DMASeconds is the summed transfer time at the memory controller,
	// which serializes the 64 CPEs' DMA streams.
	DMASeconds float64
	// ComputeSeconds and RegSeconds are summed per-CPE work; the 64 CPEs
	// (and their register buses) run them in parallel.
	ComputeSeconds float64
	RegSeconds     float64
	// LDMPeakBytes is the largest working set resident in one CPE's LDM.
	LDMPeakBytes int
	Tiles        int
}

// Add folds another core group's accounting into s — RunParallel sums the
// per-rank executors into one run total. Traffic, flops and seconds
// accumulate; LDMPeakBytes is a maximum.
func (s *Stats) Add(o Stats) {
	s.DMAGetBytes += o.DMAGetBytes
	s.DMAPutBytes += o.DMAPutBytes
	s.DMATransfers += o.DMATransfers
	s.Flops += o.Flops
	s.RegCommWords += o.RegCommWords
	s.DMASeconds += o.DMASeconds
	s.ComputeSeconds += o.ComputeSeconds
	s.RegSeconds += o.RegSeconds
	if o.LDMPeakBytes > s.LDMPeakBytes {
		s.LDMPeakBytes = o.LDMPeakBytes
	}
	s.Tiles += o.Tiles
}

// StepSeconds is the simulated wall time on one core group: the roofline
// max of the serialized memory leg and the parallel compute+register leg.
func (s Stats) StepSeconds() float64 {
	cpe := (s.ComputeSeconds + s.RegSeconds) / sunway.CPEsPerCG
	if s.DMASeconds > cpe {
		return s.DMASeconds
	}
	return cpe
}

// EffectiveBandwidth returns simulated GB/s the core group moved over the
// step time.
func (s Stats) EffectiveBandwidth() float64 {
	t := s.StepSeconds()
	if t == 0 {
		return 0
	}
	return float64(s.DMAGetBytes+s.DMAPutBytes) / t / 1e9
}

// Executor runs kernels tile-by-tile over a CG block.
type Executor struct {
	Block grid.Dims // the CG block (level-2 tile of the process block)
	Cfg   ldm.Config
	Stats Stats

	velShape ldm.Shape
}

// New builds an executor for a CG block, choosing the tile configuration
// with the paper's blocking model for the fused velocity-kernel shape.
func New(block grid.Dims) (*Executor, error) {
	if !block.Valid() {
		return nil, fmt.Errorf("cgexec: invalid block %v", block)
	}
	shape := ldm.DelcFused()
	cfg, err := ldm.Optimize(shape, block.Ny, block.Nz, sunway.LDMBytes)
	if err != nil {
		return nil, err
	}
	return &Executor{Block: block, Cfg: cfg, velShape: shape}, nil
}

// tile is one CPE work item.
type tile struct {
	j0, j1, k0, k1 int
}

// tiles partitions the block's (y, z) cross-section per the configuration:
// interiors of Wy-2H along y, Wz along z.
func (e *Executor) tiles() []tile {
	h := fd.Halo
	wyEff := e.Cfg.Wy - 2*h
	if wyEff < 1 {
		wyEff = 1
	}
	var out []tile
	for j := 0; j < e.Block.Ny; j += wyEff {
		j1 := j + wyEff
		if j1 > e.Block.Ny {
			j1 = e.Block.Ny
		}
		for k := 0; k < e.Block.Nz; k += e.Cfg.Wz {
			k1 := k + e.Cfg.Wz
			if k1 > e.Block.Nz {
				k1 = e.Block.Nz
			}
			out = append(out, tile{j0: j, j1: j1, k0: k, k1: k1})
		}
	}
	return out
}

// accountTile charges DMA and compute for one tile execution. reads and
// writes are the fused array groups moved in and out; flopsPerPoint is the
// kernel arithmetic.
func (e *Executor) accountTile(t tile, reads, writes []int, flopsPerPoint float64) error {
	h := fd.Halo
	// The DMA loads the tile's own rows plus the z halo (z-block
	// boundaries always pay DMA — the neighbouring block has left the LDM
	// by the time it is needed). The y halo comes from the concurrently
	// resident neighbour tile over the register buses, except at the block
	// edge where there is no neighbour thread and DMA loads it (paper
	// §6.4: "only the boundary CPE threads ... still need to initialize
	// DMA loads for the corresponding halo regions").
	regSides := 0
	ny := t.j1 - t.j0
	if t.j0 == 0 {
		ny += h // block-edge halo via DMA
	} else {
		regSides++
	}
	if t.j1 == e.Block.Ny {
		ny += h
	} else {
		regSides++
	}
	nz := t.k1 - t.k0 + 2*h
	nx := e.Block.Nx + 2*h // threads sweep the full x extent
	pts := int64(nx) * int64(ny) * int64(nz)
	interior := int64(e.Block.Nx) * int64(t.j1-t.j0) * int64(t.k1-t.k0)

	// LDM residency per the paper's accounting: one plane window per array
	// group (see ldm.FeasibleWz); updated groups are read-modify-write and
	// reuse their read buffer, so only the read groups count. Capacity is
	// checked against the real 64 KB.
	var l sunway.LDM
	window := 4 * len(reads) * e.Cfg.Wz * e.Cfg.Wy * e.Cfg.Wx
	if err := l.Alloc(window); err != nil {
		return fmt.Errorf("cgexec: tile working set overflows LDM: %w", err)
	}
	if l.Used() > e.Stats.LDMPeakBytes {
		e.Stats.LDMPeakBytes = l.Used()
	}

	for _, g := range reads {
		bytes := pts * int64(g) * 4
		chunk := e.Cfg.Wz * g * 4
		e.Stats.DMAGetBytes += bytes
		e.Stats.DMATransfers += pts / int64(e.Cfg.Wz)
		e.Stats.DMASeconds += sunway.DMATransferSeconds(bytes, chunk, sunway.DMAGet)
	}
	for _, g := range writes {
		bytes := interior * int64(g) * 4
		chunk := e.Cfg.Wz * g * 4
		e.Stats.DMAPutBytes += bytes
		e.Stats.DMATransfers += interior / int64(e.Cfg.Wz)
		e.Stats.DMASeconds += sunway.DMATransferSeconds(bytes, chunk, sunway.DMAPut)
	}
	flops := int64(float64(interior) * flopsPerPoint)
	e.Stats.Flops += flops
	e.Stats.ComputeSeconds += sunway.ComputeSeconds(flops, 1) // one CPE owns the tile

	// y-direction halos from concurrently resident neighbour tiles travel
	// over the register buses (h columns per interior side, over the
	// tile's z extent with halo, per x plane, per read component)
	var comps int64
	for _, g := range reads {
		comps += int64(g)
	}
	regWords := int64(regSides) * int64(h) * int64(nz) * int64(nx) * comps
	e.Stats.RegCommWords += regWords
	e.Stats.RegSeconds += sunway.RegCommBulkSeconds(regWords)

	e.Stats.Tiles++
	return nil
}

// VelocityStep executes fd.UpdateVelocity over the block tile-by-tile.
// The wavefield and medium must have the block's dims.
func (e *Executor) VelocityStep(wf *fd.Wavefield, med *fd.Medium, dtdx float32) error {
	if wf.D != e.Block {
		return fmt.Errorf("cgexec: wavefield dims %v != block %v", wf.D, e.Block)
	}
	// reads: vec3 velocity + vec6 stress + density; writes: vec3 velocity
	reads := []int{3, 6, 1}
	writes := []int{3}
	for _, t := range e.tiles() {
		if err := e.accountTile(t, reads, writes, fd.VelocityFlopsPerPoint); err != nil {
			return err
		}
		// execute: the kernel touches only rows [j0,j1) x planes [k0,k1);
		// neighbouring data is read through the existing halos, which is
		// the in-process analogue of the register-communication halo
		// exchange between concurrently resident CPE tiles
		updateVelocityTile(wf, med, dtdx, t)
	}
	return nil
}

// StressStep executes fd.UpdateStress over the block tile-by-tile.
func (e *Executor) StressStep(wf *fd.Wavefield, med *fd.Medium, dtdx float32) error {
	if wf.D != e.Block {
		return fmt.Errorf("cgexec: wavefield dims %v != block %v", wf.D, e.Block)
	}
	reads := []int{3, 6, 2} // velocities, stresses, lam+mu
	writes := []int{6}
	for _, t := range e.tiles() {
		if err := e.accountTile(t, reads, writes, fd.StressFlopsPerPoint); err != nil {
			return err
		}
		updateStressTile(wf, med, dtdx, t)
	}
	return nil
}

// updateVelocityTile runs the velocity kernel restricted to one tile by
// extracting the tile (plus stencil halo) into a standalone sub-block —
// the LDM buffer stand-in — computing there, and writing the interior
// back. Numerically identical to updating the rows in place.
func updateVelocityTile(wf *fd.Wavefield, med *fd.Medium, dtdx float32, t tile) {
	runTile(wf, med, t, func(sub *fd.Wavefield, subMed *fd.Medium, k0, k1 int) {
		fd.UpdateVelocity(sub, subMed, dtdx, k0, k1)
	})
}

func updateStressTile(wf *fd.Wavefield, med *fd.Medium, dtdx float32, t tile) {
	runTile(wf, med, t, func(sub *fd.Wavefield, subMed *fd.Medium, k0, k1 int) {
		fd.UpdateStress(sub, subMed, dtdx, k0, k1)
	})
}

// runTile extracts the tile working set, runs the kernel, and inserts the
// updated interior back into the block fields.
func runTile(wf *fd.Wavefield, med *fd.Medium, t tile, kernel func(*fd.Wavefield, *fd.Medium, int, int)) {
	h := fd.Halo
	d := grid.Dims{Nx: wf.D.Nx, Ny: t.j1 - t.j0, Nz: t.k1 - t.k0}

	sub := &fd.Wavefield{D: d}
	subFields := make([]*grid.Field, 0, 9)
	for _, f := range wf.AllFields() {
		subFields = append(subFields, f.ExtractSubfield(0, t.j0, t.k0, d, h))
	}
	sub.U, sub.V, sub.W = subFields[0], subFields[1], subFields[2]
	sub.XX, sub.YY, sub.ZZ = subFields[3], subFields[4], subFields[5]
	sub.XY, sub.XZ, sub.YZ = subFields[6], subFields[7], subFields[8]

	kernel(sub, med.Sub(0, t.j0, t.k0, d), 0, d.Nz)

	for i, f := range wf.AllFields() {
		f.InsertSubfield(0, t.j0, t.k0, subFields[i])
	}
}
