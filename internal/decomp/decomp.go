// Package decomp implements the first two levels of the paper's multi-level
// domain decomposition (Fig. 4):
//
//  1. a 2D decomposition of the horizontal (x,y) plane over MPI processes —
//     the z extent is never split because earthquake domains are hundreds of
//     kilometers wide but only tens deep;
//  2. the interior of a process's block, whose stencils read no halo, for
//     communication/computation overlap (region.go).
//
// The core-group level is the engine's tiles (internal/core), levels 3 and 4
// (CPE thread grid, LDM buffering) are package ldm's.
package decomp

import (
	"fmt"

	"swquake/internal/grid"
)

// ProcessGrid is the 2D MPI decomposition of a global mesh.
type ProcessGrid struct {
	GlobalNx, GlobalNy, GlobalNz int
	Mx, My                       int // process grid extents
}

// NewProcessGrid validates divisibility and builds the grid.
func NewProcessGrid(nx, ny, nz, mx, my int) (*ProcessGrid, error) {
	if nx <= 0 || ny <= 0 || nz <= 0 || mx <= 0 || my <= 0 {
		return nil, fmt.Errorf("decomp: non-positive extents")
	}
	if nx%mx != 0 || ny%my != 0 {
		return nil, fmt.Errorf("decomp: mesh %dx%d not divisible by process grid %dx%d", nx, ny, mx, my)
	}
	return &ProcessGrid{GlobalNx: nx, GlobalNy: ny, GlobalNz: nz, Mx: mx, My: my}, nil
}

// Size returns the number of MPI processes.
func (p *ProcessGrid) Size() int { return p.Mx * p.My }

// GlobalDims returns the extents of the whole mesh.
func (p *ProcessGrid) GlobalDims() grid.Dims {
	return grid.Dims{Nx: p.GlobalNx, Ny: p.GlobalNy, Nz: p.GlobalNz}
}

// BlockDims returns the per-process block extents.
func (p *ProcessGrid) BlockDims() grid.Dims {
	return grid.Dims{Nx: p.GlobalNx / p.Mx, Ny: p.GlobalNy / p.My, Nz: p.GlobalNz}
}

// Rank maps process coordinates to a linear rank.
func (p *ProcessGrid) Rank(px, py int) int { return px*p.My + py }

// Coords maps a linear rank to process coordinates.
func (p *ProcessGrid) Coords(rank int) (px, py int) { return rank / p.My, rank % p.My }

// Offset returns the global index of a rank's block origin.
func (p *ProcessGrid) Offset(rank int) (i0, j0 int) {
	px, py := p.Coords(rank)
	b := p.BlockDims()
	return px * b.Nx, py * b.Ny
}

// Neighbor returns the rank across the given face, or ok=false at the
// domain edge.
func (p *ProcessGrid) Neighbor(rank int, face grid.Face) (n int, ok bool) {
	px, py := p.Coords(rank)
	switch face {
	case grid.FaceXMinus:
		px--
	case grid.FaceXPlus:
		px++
	case grid.FaceYMinus:
		py--
	case grid.FaceYPlus:
		py++
	}
	if px < 0 || px >= p.Mx || py < 0 || py >= p.My {
		return 0, false
	}
	return p.Rank(px, py), true
}

// HaloBytesPerStep returns the bytes one rank exchanges per time step for
// nfields fields with halo width h (both directions, all four faces that
// exist), used by the communication model.
func (p *ProcessGrid) HaloBytesPerStep(rank, nfields, h int) int64 {
	b := p.BlockDims()
	var pts int64
	for _, f := range []grid.Face{grid.FaceXMinus, grid.FaceXPlus, grid.FaceYMinus, grid.FaceYPlus} {
		if _, ok := p.Neighbor(rank, f); !ok {
			continue
		}
		switch f {
		case grid.FaceXMinus, grid.FaceXPlus:
			pts += int64(h) * int64(b.Ny+2*h) * int64(b.Nz+2*h)
		default:
			pts += int64(h) * int64(b.Nx+2*h) * int64(b.Nz+2*h)
		}
	}
	// sent and received
	return 2 * pts * int64(nfields) * 4
}
