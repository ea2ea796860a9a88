package decomp

import (
	"testing"

	"swquake/internal/grid"
)

func TestNewProcessGridValidation(t *testing.T) {
	if _, err := NewProcessGrid(100, 100, 50, 3, 2); err == nil {
		t.Fatal("non-divisible accepted")
	}
	if _, err := NewProcessGrid(0, 100, 50, 1, 1); err == nil {
		t.Fatal("zero extent accepted")
	}
	p, err := NewProcessGrid(160, 160, 512, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 16 {
		t.Fatalf("size %d", p.Size())
	}
	if p.BlockDims() != (grid.Dims{Nx: 40, Ny: 40, Nz: 512}) {
		t.Fatalf("block %v", p.BlockDims())
	}
}

func TestPaperExtremeDecomposition(t *testing.T) {
	// the paper's extreme case runs 400x400 = 160,000 MPI processes over a
	// 40,000 x 39,000 x 5,000 mesh; 39,000 is not divisible by 400, so the
	// production code pads the y extent — we model the padded 39,200.
	p, err := NewProcessGrid(40000, 39200, 5000, 400, 400)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 160000 {
		t.Fatalf("size %d, want 160,000", p.Size())
	}
	b := p.BlockDims()
	if b.Nx != 100 || b.Ny != 98 || b.Nz != 5000 {
		t.Fatalf("per-CG block %v", b)
	}
}

func TestRankCoordsRoundTrip(t *testing.T) {
	p, _ := NewProcessGrid(64, 64, 32, 4, 8)
	for rank := 0; rank < p.Size(); rank++ {
		px, py := p.Coords(rank)
		if p.Rank(px, py) != rank {
			t.Fatalf("round trip failed for %d", rank)
		}
		if px < 0 || px >= 4 || py < 0 || py >= 8 {
			t.Fatalf("coords out of range: %d -> (%d,%d)", rank, px, py)
		}
	}
}

func TestNeighbors(t *testing.T) {
	p, _ := NewProcessGrid(64, 64, 32, 4, 4)
	// corner rank 0 has no x-/y- neighbours
	if _, ok := p.Neighbor(0, grid.FaceXMinus); ok {
		t.Fatal("corner has x- neighbour")
	}
	if _, ok := p.Neighbor(0, grid.FaceYMinus); ok {
		t.Fatal("corner has y- neighbour")
	}
	if n, ok := p.Neighbor(0, grid.FaceXPlus); !ok || n != p.Rank(1, 0) {
		t.Fatalf("x+ neighbour %d", n)
	}
	if n, ok := p.Neighbor(0, grid.FaceYPlus); !ok || n != p.Rank(0, 1) {
		t.Fatalf("y+ neighbour %d", n)
	}
	// interior rank has all four, and neighbour relations are symmetric
	r := p.Rank(2, 2)
	for _, f := range []grid.Face{grid.FaceXMinus, grid.FaceXPlus, grid.FaceYMinus, grid.FaceYPlus} {
		n, ok := p.Neighbor(r, f)
		if !ok {
			t.Fatalf("interior missing %v neighbour", f)
		}
		back, ok := p.Neighbor(n, f.Opposite())
		if !ok || back != r {
			t.Fatalf("asymmetric neighbour relation across %v", f)
		}
	}
}

func TestOffsets(t *testing.T) {
	p, _ := NewProcessGrid(80, 60, 32, 4, 3)
	i0, j0 := p.Offset(p.Rank(2, 1))
	if i0 != 40 || j0 != 20 {
		t.Fatalf("offset (%d,%d)", i0, j0)
	}
	// offsets tile the domain exactly
	seen := map[[2]int]bool{}
	for r := 0; r < p.Size(); r++ {
		x, y := p.Offset(r)
		seen[[2]int{x, y}] = true
	}
	if len(seen) != p.Size() {
		t.Fatal("duplicate offsets")
	}
}

func TestHaloBytes(t *testing.T) {
	p, _ := NewProcessGrid(64, 64, 32, 4, 4)
	corner := p.HaloBytesPerStep(0, 9, 2)
	interior := p.HaloBytesPerStep(p.Rank(2, 2), 9, 2)
	if corner >= interior {
		t.Fatal("corner must exchange less than interior")
	}
	if interior != 2*int64(2*(16+4)*(32+4)*2+2*(16+4)*(32+4)*2)*9*4/2 {
		// 4 faces x h*(edge+2h)*(nz+2h) points x 9 fields x 4 B x2 (send+recv)
		want := int64(2) * int64(4*2*(16+4)*(32+4)) * 9 * 4
		if interior != want {
			t.Fatalf("interior halo bytes %d want %d", interior, want)
		}
	}
}
