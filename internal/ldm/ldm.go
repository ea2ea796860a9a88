// Package ldm implements the paper's analytic model for choosing the CPE
// thread layout and LDM buffering configuration (§6.4, eqs. 5–9).
//
// Given a kernel's array working set (after optional fusion into vec3/vec6
// groups), the model chooses
//
//	Cz, Cy — the CPE thread grid (Cz*Cy = 64, eq. 5),
//	Wz, Wy, Wx — the per-CPE LDM tile (eq. 6 capacity constraint),
//
// to simultaneously (1) minimize redundant halo DMA traffic (eq. 7), which
// is achieved when Cz*Wz == Cy*Wy, and (2) maximize the effective DMA
// bandwidth, which grows with the contiguous block size Wz*NC*4 bytes
// (Table 3). Because z is the fastest axis, a small Cz (usually 1) keeps Wz
// — and hence the DMA block — large, which is the paper's headline finding.
package ldm

import (
	"fmt"
	"math"

	"swquake/internal/sunway"
)

// Shape describes a kernel's memory working set.
type Shape struct {
	// Groups lists the fused array groups by component count. The unfused
	// velocity kernel reads 10 scalar arrays -> ten 1s; after fusion it
	// reads vec3 + vec6 + density -> [3, 6, 1].
	Groups []int
	// H is the stencil halo width (2 for the 4th-order scheme).
	H int
	// MinWy and MinWx are the smallest usable tile extents: Wy must cover
	// 2H halo plus a useful interior (the paper uses 9 for H=2), Wx at
	// least the 2H+1 sweep window (5).
	MinWy, MinWx int
}

// Components returns the total scalar component count of the working set.
func (s Shape) Components() int {
	n := 0
	for _, g := range s.Groups {
		n += g
	}
	return n
}

// Validate checks the shape.
func (s Shape) Validate() error {
	if len(s.Groups) == 0 {
		return fmt.Errorf("ldm: empty array group list")
	}
	for _, g := range s.Groups {
		if g <= 0 {
			return fmt.Errorf("ldm: non-positive group size %d", g)
		}
	}
	if s.H <= 0 || s.MinWy <= 2*s.H || s.MinWx <= 0 {
		return fmt.Errorf("ldm: invalid halo/tile minima H=%d MinWy=%d MinWx=%d", s.H, s.MinWy, s.MinWx)
	}
	return nil
}

// Config is a chosen decomposition with its predicted properties.
type Config struct {
	Cz, Cy int // CPE thread grid (Cz*Cy = 64)
	Wz, Wy int // per-CPE LDM tile in grid points (Wx is the shape's MinWx)

	LDMBytesUsed  int     // eq. 6 left-hand side
	BlockBytesMin int     // smallest per-group DMA chunk (scalar groups)
	BlockBytesMax int     // largest per-group DMA chunk (widest fused group)
	EffBWGBs      float64 // traffic-weighted effective DMA bandwidth per CG
	RedundantFrac float64 // redundant halo bytes / base bytes (eq. 7)
	PredictedTime float64 // relative DMA time score used for ranking
}

// FeasibleWz returns the largest Wz satisfying the eq. 6 capacity
// constraint for the given Wy, Wx and LDM budget in bytes.
//
// Following the paper's own accounting (eqs. 8–9), the capacity term counts
// *arrays* (fused groups), not scalar components: the fused vector arrays
// are streamed through a rolling plane window during the x sweep, so their
// LDM residency scales with the number of distinct DMA streams rather than
// with total component count. This is what lets fusion raise Wz from ~32 to
// ~108-121 in the paper.
func FeasibleWz(s Shape, wy, wx, budget int) int {
	den := 4 * len(s.Groups) * wy * wx
	if den == 0 {
		return 0
	}
	return budget / den
}

// Optimize searches decompositions for a CG block of ny x nz points
// (threads sweep along x) and returns the best configuration. budget is the
// usable LDM bytes (the paper reserves some of the 64 KB for stacks and
// buffers; Table 4 reports ~60 KB used).
func Optimize(s Shape, ny, nz, budget int) (Config, error) {
	if err := s.Validate(); err != nil {
		return Config{}, err
	}
	if ny <= 0 || nz <= 0 || budget <= 0 {
		return Config{}, fmt.Errorf("ldm: invalid block %dx%d or budget %d", ny, nz, budget)
	}
	best := Config{PredictedTime: math.Inf(1)}
	found := false
	for cz := 1; cz <= sunway.CPEsPerCG; cz *= 2 {
		cy := sunway.CPEsPerCG / cz
		for wy := s.MinWy; wy <= s.MinWy+12; wy++ {
			wx := s.MinWx
			wz := FeasibleWz(s, wy, wx, budget)
			if wz < 1 {
				continue
			}
			// no point tiling beyond the block extent
			if wz > nz {
				wz = nz
			}
			if wy > ny+2*s.H {
				continue
			}
			c := evaluate(s, cz, cy, wz, wy, wx, ny, nz)
			// strict improvement required; ties keep the earlier (smaller
			// Cz) candidate, encoding the paper's "small Cz preferred"
			if c.PredictedTime < best.PredictedTime ||
				(c.PredictedTime == best.PredictedTime && c.Wz > best.Wz) {
				best = c
				found = true
			}
		}
	}
	if !found {
		return Config{}, fmt.Errorf("ldm: no feasible configuration for %d components in %d bytes", s.Components(), budget)
	}
	return best, nil
}

// evaluate computes the predicted properties of one configuration.
func evaluate(s Shape, cz, cy, wz, wy, wx, ny, nz int) Config {
	c := Config{Cz: cz, Cy: cy, Wz: wz, Wy: wy}
	c.LDMBytesUsed = 4 * len(s.Groups) * wz * wy * wx

	// per-group DMA chunk sizes and traffic-weighted bandwidth
	var totalBytes, weighted float64
	c.BlockBytesMin = math.MaxInt32
	for _, g := range s.Groups {
		block := wz * g * 4
		if block < c.BlockBytesMin {
			c.BlockBytesMin = block
		}
		if block > c.BlockBytesMax {
			c.BlockBytesMax = block
		}
		bytes := float64(g) // per-point bytes share of this group
		bw := sunway.PerCGShare(block, sunway.DMAGet)
		totalBytes += bytes
		weighted += bytes / bw
	}
	c.EffBWGBs = totalBytes / weighted

	// eq. 7: redundant halo loads per x-plane (points), relative to the
	// base ny*nz points. The z-direction pays DMA halo reloads at every
	// Wz-block boundary: blocks are processed sequentially, so the lower
	// block's top planes have left the LDM by the time the next block needs
	// them (regardless of Cz). In the y direction, concurrently resident
	// neighbour threads exchange halos over the register buses for free
	// (the paper's on-chip halo exchange), so only block boundaries beyond
	// the Cy thread span pay DMA.
	nbz := float64(ceilDiv(nz, wz))
	nby := float64(ceilDiv(ny, cy*effInterior(wy, s.H)))
	redundant := 2*float64(s.H)*float64(ny)*(nbz-1) + 2*float64(s.H)*float64(nz)*(nby-1)
	c.RedundantFrac = redundant / float64(ny*nz)

	// ranking score: total bytes moved divided by effective bandwidth
	c.PredictedTime = (1 + c.RedundantFrac) / c.EffBWGBs
	return c
}

// effInterior is the useful interior of a Wy tile once 2H halo layers are
// loaded alongside it (the paper's (Wy - 2H) effective region).
func effInterior(wy, h int) int {
	e := wy - 2*h
	if e < 1 {
		return 1
	}
	return e
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Paper-named shapes for the two headline kernels.

// DelcUnfused is the velocity kernel before array fusion: u,v,w, six
// stresses and density as ten separate scalar arrays (paper eq. 8).
func DelcUnfused() Shape {
	return Shape{Groups: []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, H: 2, MinWy: 9, MinWx: 5}
}

// DelcFused is the velocity kernel after fusion: vec3 velocity + vec6
// stress + density (paper eq. 9).
func DelcFused() Shape {
	return Shape{Groups: []int{3, 6, 1}, H: 2, MinWy: 9, MinWx: 5}
}
