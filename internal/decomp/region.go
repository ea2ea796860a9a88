package decomp

import "swquake/internal/grid"

// Interior returns the part of a rank's block whose stencils, h cells wide,
// read no ghost value a neighbour sends: the block less h cells at each face
// with a neighbour across it — the region behind communication/computation
// overlap (paper §6.2), computed while the halo messages fly. A face at the
// domain edge keeps its cells, whose ghosts hold the boundary's zeros, so a
// lone block is all interior. A block too thin for an interior gets an empty
// one; Box(BlockDims()).Minus(Interior) is the boundary shell.
func (p *ProcessGrid) Interior(rank, h int) grid.Region {
	px, py := p.Coords(rank)
	r := grid.Box(p.BlockDims())
	if px > 0 {
		r.I0 += h
	}
	if px < p.Mx-1 {
		r.I1 -= h
	}
	if py > 0 {
		r.J0 += h
	}
	if py < p.My-1 {
		r.J1 -= h
	}
	return r
}
