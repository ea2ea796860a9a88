// Package cgexec tallies a time step the way one SW26010 core group runs it
// (paper Fig. 4, levels 2-4): the block is partitioned into per-CPE tiles by
// the LDM blocking model, whose tile window fits the real 64 KB LDM, and
// every tile of the velocity kernel and then of the stress kernel is charged
// its DMA traffic and transfer count (halos included), its register-bus halo
// exchange and its compute time under the calibrated machine model. The
// kernels themselves run in the engine's walk on the host; the tally reads
// only the block's dims, so it is a function of the block (Tally) — the same
// for every step of a run, whatever the host's tiles, strips or halo
// overlap.
//
// This is what makes the paper's "MEM" execution strategy (Fig. 7) a
// measured account of a step rather than only a model: the tiling, the halo
// loads, the capacity constraint and the per-chunk DMA granularity are
// charged tile by tile; only the clock is simulated.
package cgexec

import (
	"fmt"

	"swquake/internal/fd"
	"swquake/internal/grid"
	"swquake/internal/ldm"
	"swquake/internal/sunway"
)

// Stats is one step's simulated-hardware accounting.
type Stats struct {
	DMAGetBytes  int64
	DMAPutBytes  int64
	DMATransfers int64
	// DMASeconds is the summed transfer time at the memory controller,
	// which serializes the 64 CPEs' DMA streams.
	DMASeconds float64
	// ComputeSeconds and RegSeconds are summed per-CPE work; the 64 CPEs
	// (and their register buses) run them in parallel. RegSeconds is the
	// time of the halo values fetched from neighbouring CPE tiles over the
	// register buses (the paper's on-chip halo exchange) instead of
	// re-loaded via DMA.
	ComputeSeconds float64
	RegSeconds     float64
	Tiles          int
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

// Tally charges one time step of a core group's block: the velocity kernel
// over every tile, then the stress kernel over every tile. The tile
// configuration is the paper's blocking model for the fused velocity-kernel
// shape (both kernels read three array groups), whose window fits the LDM
// by construction: ldm.Optimize sizes Wz against the 64 KB, and the window
// a tile holds is the configuration's LDMBytesUsed.
func Tally(block grid.Dims) (Stats, ldm.Config, error) {
	if !block.Valid() {
		return Stats{}, ldm.Config{}, fmt.Errorf("cgexec: invalid block %v", block)
	}
	cfg, err := ldm.Optimize(ldm.DelcFused(), block.Ny, block.Nz, sunway.LDMBytes)
	if err != nil {
		return Stats{}, ldm.Config{}, err
	}
	var s Stats
	for _, k := range []kernel{velocity, stress} {
		for _, t := range tiles(block, cfg) {
			s.charge(t, k, block, cfg)
		}
	}
	return s, cfg, nil
}

// tile is one CPE work item.
type tile struct {
	j0, j1, k0, k1 int
}

// tiles partitions the block's (y, z) cross-section per the configuration:
// interiors of Wy-2H along y, Wz along z.
func tiles(block grid.Dims, cfg ldm.Config) []tile {
	h := fd.Halo
	wyEff := cfg.Wy - 2*h
	if wyEff < 1 {
		wyEff = 1
	}
	var out []tile
	for j := 0; j < block.Ny; j += wyEff {
		j1 := min(j+wyEff, block.Ny)
		for k := 0; k < block.Nz; k += cfg.Wz {
			k1 := min(k+cfg.Wz, block.Nz)
			out = append(out, tile{j0: j, j1: j1, k0: k, k1: k1})
		}
	}
	return out
}

// charge adds DMA and compute for one tile of kernel k.
func (s *Stats) charge(t tile, k kernel, block grid.Dims, cfg ldm.Config) {
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
	if t.j1 == block.Ny {
		ny += h
	} else {
		regSides++
	}
	nz := t.k1 - t.k0 + 2*h
	nx := block.Nx + 2*h // threads sweep the full x extent
	pts := int64(nx) * int64(ny) * int64(nz)
	interior := int64(block.Nx) * int64(t.j1-t.j0) * int64(t.k1-t.k0)

	for _, g := range k.reads {
		bytes := pts * int64(g) * 4
		chunk := cfg.Wz * g * 4
		s.DMAGetBytes += bytes
		s.DMATransfers += pts / int64(cfg.Wz)
		s.DMASeconds += sunway.DMATransferSeconds(bytes, chunk, sunway.DMAGet)
	}
	for _, g := range k.writes {
		bytes := interior * int64(g) * 4
		chunk := cfg.Wz * g * 4
		s.DMAPutBytes += bytes
		s.DMATransfers += interior / int64(cfg.Wz)
		s.DMASeconds += sunway.DMATransferSeconds(bytes, chunk, sunway.DMAPut)
	}
	flops := int64(float64(interior) * k.flopsPerPoint)
	s.ComputeSeconds += sunway.ComputeSeconds(flops, 1) // one CPE owns the tile

	// y-direction halos from concurrently resident neighbour tiles travel
	// over the register buses (h columns per interior side, over the
	// tile's z extent with halo, per x plane, per read component)
	var comps int64
	for _, g := range k.reads {
		comps += int64(g)
	}
	regWords := int64(regSides) * int64(h) * int64(nz) * int64(nx) * comps
	s.RegSeconds += sunway.RegCommBulkSeconds(regWords)

	s.Tiles++
}
