// Package cgexec tallies a time step the way one SW26010 core group runs it
// (paper Fig. 4, levels 2-4): the block is partitioned into per-CPE tiles by
// the LDM blocking model, the tile window is capacity-checked against the
// real 64 KB LDM, and every tile of the velocity kernel and then of the
// stress kernel is charged its DMA traffic and transfer count (halos
// included), its register-bus halo words and its compute time under the
// calibrated machine model. The kernels themselves run in the engine's walk
// on the host; the tally reads only the tile geometry, so it is the same
// whatever the host's tiles, strips or halo overlap, and it changes no bit.
//
// This is what makes the paper's "MEM" execution strategy (Fig. 7) a
// measured account of the steps a run takes rather than only a model: the
// tiling, the halo loads, the capacity constraint and the per-chunk DMA
// granularity are charged per step; only the clock is simulated.
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
	// LDMPeakBytes is the largest working set resident in one CPE's LDM:
	// checked against the real 64 KB in New.
	LDMPeakBytes int
	Tiles        int
	// Steps counts the time steps charged.
	Steps int
}

// Add folds another core group's accounting into s — RunParallel sums the
// per-rank executors into one run total. Traffic, flops and seconds
// accumulate; LDMPeakBytes and Steps (the ranks step together) are maxima.
func (s *Stats) Add(o Stats) {
	s.DMAGetBytes += o.DMAGetBytes
	s.DMAPutBytes += o.DMAPutBytes
	s.DMATransfers += o.DMATransfers
	s.Flops += o.Flops
	s.RegCommWords += o.RegCommWords
	s.DMASeconds += o.DMASeconds
	s.ComputeSeconds += o.ComputeSeconds
	s.RegSeconds += o.RegSeconds
	s.LDMPeakBytes = max(s.LDMPeakBytes, o.LDMPeakBytes)
	s.Tiles += o.Tiles
	s.Steps = max(s.Steps, o.Steps)
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

// Executor tallies the tiles of a CG block's steps.
type Executor struct {
	Block grid.Dims // the CG block (level-2 tile of the process block)
	Cfg   ldm.Config
	Stats Stats

	// window is the LDM a tile holds: one plane window per array group read
	// (see ldm.FeasibleWz) — updated groups are read-modify-write and reuse
	// their read buffer, so only the read groups count.
	window int
}

// kernel is what a tile of one kernel moves and computes: the fused array
// groups DMA'd in and out, and the arithmetic per point.
type kernel struct {
	reads, writes []int
	flopsPerPoint float64
}

var (
	// velocity reads vec3 velocity, vec6 stress and density; writes velocity
	velocity = kernel{[]int{3, 6, 1}, []int{3}, fd.VelocityFlopsPerPoint}
	// stress reads velocities, stresses, lam+mu; writes stresses
	stress = kernel{[]int{3, 6, 2}, []int{6}, fd.StressFlopsPerPoint}
)

// New builds an executor for a CG block, choosing the tile configuration
// with the paper's blocking model for the fused velocity-kernel shape and
// checking that a tile's window fits the LDM (both kernels read three array
// groups).
func New(block grid.Dims) (*Executor, error) {
	if !block.Valid() {
		return nil, fmt.Errorf("cgexec: invalid block %v", block)
	}
	cfg, err := ldm.Optimize(ldm.DelcFused(), block.Ny, block.Nz, sunway.LDMBytes)
	if err != nil {
		return nil, err
	}
	var l sunway.LDM
	if err := l.Alloc(4 * len(velocity.reads) * cfg.Wz * cfg.Wy * cfg.Wx); err != nil {
		return nil, fmt.Errorf("cgexec: tile working set overflows LDM: %w", err)
	}
	return &Executor{Block: block, Cfg: cfg, window: l.Used()}, nil
}

// Step charges one time step: the velocity kernel over every tile, then the
// stress kernel over every tile.
func (e *Executor) Step() {
	for _, k := range []kernel{velocity, stress} {
		for _, t := range e.tiles() {
			e.accountTile(t, k)
		}
	}
	e.Stats.LDMPeakBytes = e.window
	e.Stats.Steps++
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

// accountTile charges DMA and compute for one tile of kernel k.
func (e *Executor) accountTile(t tile, k kernel) {
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

	for _, g := range k.reads {
		bytes := pts * int64(g) * 4
		chunk := e.Cfg.Wz * g * 4
		e.Stats.DMAGetBytes += bytes
		e.Stats.DMATransfers += pts / int64(e.Cfg.Wz)
		e.Stats.DMASeconds += sunway.DMATransferSeconds(bytes, chunk, sunway.DMAGet)
	}
	for _, g := range k.writes {
		bytes := interior * int64(g) * 4
		chunk := e.Cfg.Wz * g * 4
		e.Stats.DMAPutBytes += bytes
		e.Stats.DMATransfers += interior / int64(e.Cfg.Wz)
		e.Stats.DMASeconds += sunway.DMATransferSeconds(bytes, chunk, sunway.DMAPut)
	}
	flops := int64(float64(interior) * k.flopsPerPoint)
	e.Stats.Flops += flops
	e.Stats.ComputeSeconds += sunway.ComputeSeconds(flops, 1) // one CPE owns the tile

	// y-direction halos from concurrently resident neighbour tiles travel
	// over the register buses (h columns per interior side, over the
	// tile's z extent with halo, per x plane, per read component)
	var comps int64
	for _, g := range k.reads {
		comps += int64(g)
	}
	regWords := int64(regSides) * int64(h) * int64(nz) * int64(nx) * comps
	e.Stats.RegCommWords += regWords
	e.Stats.RegSeconds += sunway.RegCommBulkSeconds(regWords)

	e.Stats.Tiles++
}
