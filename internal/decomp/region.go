package decomp

import "swquake/internal/grid"

// InteriorShell decomposes a block into the interior region whose stencils
// read no lateral ghost data, plus the boundary-shell regions of width h
// that do — the decomposition behind communication/computation overlap
// (paper §6.2): the interior computes while halo messages fly, the shells
// only after the exchange lands.
//
// The shells are disjoint and, together with the interior, exactly tile the
// block: the two x-strips span the full y extent, the two y-strips cover
// only the interior x-range. Blocks too small to hold an interior
// (Nx < 2h or Ny < 2h) return an empty interior and the whole block as one
// shell, so callers degrade to no overlap instead of computing cells twice.
func InteriorShell(block grid.Dims, h int) (interior grid.Region, shells []grid.Region) {
	full := grid.Box(block)
	if h <= 0 {
		return full, nil
	}
	if block.Nx < 2*h || block.Ny < 2*h {
		return grid.Region{}, []grid.Region{full}
	}
	interior = grid.Region{I0: h, I1: block.Nx - h, J0: h, J1: block.Ny - h, K1: block.Nz}
	shells = []grid.Region{
		{I0: 0, I1: h, J0: 0, J1: block.Ny, K1: block.Nz},                       // x- strip
		{I0: block.Nx - h, I1: block.Nx, J0: 0, J1: block.Ny, K1: block.Nz},     // x+ strip
		{I0: h, I1: block.Nx - h, J0: 0, J1: h, K1: block.Nz},                   // y- strip
		{I0: h, I1: block.Nx - h, J0: block.Ny - h, J1: block.Ny, K1: block.Nz}, // y+ strip
	}
	return interior, shells
}
