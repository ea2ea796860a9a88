package checkpoint

import (
	"testing"

	"swquake/internal/fd"
	"swquake/internal/grid"
)

// fillWavefield writes a distinct value at every interior and ghost point so
// round-trip tests catch any indexing slip.
func fillWavefield(wf *fd.Wavefield) {
	for fi, f := range wf.AllFields() {
		for i := range f.Data {
			f.Data[i] = float32(fi*1000000 + i)
		}
	}
}

func TestPackUnpackInteriorRoundTrip(t *testing.T) {
	global := grid.Dims{Nx: 8, Ny: 6, Nz: 5}
	block := grid.Dims{Nx: 4, Ny: 3, Nz: 5}

	src := fd.NewWavefield(global)
	fillWavefield(src)

	// the packed path and the direct copy place every block alike
	dst, direct := fd.NewWavefield(global), fd.NewWavefield(global)
	for _, off := range [][2]int{{0, 0}, {4, 0}, {0, 3}, {4, 3}} {
		blk, err := ExtractBlock(src, block, off[0], off[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := UnpackInterior(dst, block, off[0], off[1], PackInterior(blk)); err != nil {
			t.Fatal(err)
		}
		if err := CopyInterior(direct, blk, off[0], off[1]); err != nil {
			t.Fatal(err)
		}
	}
	for fi, f := range src.AllFields() {
		if !f.InteriorEqual(dst.AllFields()[fi], 0) {
			t.Fatalf("field %d interior differs after pack/unpack", fi)
		}
	}
	if !sameBits(dst, direct) || dst.U.At(-1, 0, 0) != 0 {
		t.Fatal("CopyInterior and UnpackInterior place a block differently, or touch a ghost plane")
	}
}

func TestExtractBlockCopiesGhosts(t *testing.T) {
	global := grid.Dims{Nx: 8, Ny: 6, Nz: 5}
	block := grid.Dims{Nx: 4, Ny: 3, Nz: 5}
	src := fd.NewWavefield(global)
	fillWavefield(src)

	blk, err := ExtractBlock(src, block, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	h := fd.Halo
	for fi, lf := range blk.AllFields() {
		g := src.AllFields()[fi]
		for i := -h; i < block.Nx+h; i++ {
			for j := -h; j < block.Ny+h; j++ {
				for k := -h; k < block.Nz+h; k++ {
					if lf.At(i, j, k) != g.At(4+i, 3+j, k) {
						t.Fatalf("field %d ghost mismatch at (%d,%d,%d)", fi, i, j, k)
					}
				}
			}
		}
	}
}

func TestBlockBoundsChecked(t *testing.T) {
	global := fd.NewWavefield(grid.Dims{Nx: 8, Ny: 6, Nz: 5})
	bad := []struct {
		d      grid.Dims
		i0, j0 int
	}{
		{grid.Dims{Nx: 4, Ny: 3, Nz: 5}, 5, 0},  // overhangs x
		{grid.Dims{Nx: 4, Ny: 3, Nz: 5}, 0, 4},  // overhangs y
		{grid.Dims{Nx: 4, Ny: 3, Nz: 4}, 0, 0},  // z never decomposed
		{grid.Dims{Nx: 4, Ny: 3, Nz: 5}, -1, 0}, // negative offset
	}
	for i, c := range bad {
		if _, err := ExtractBlock(global, c.d, c.i0, c.j0); err == nil {
			t.Errorf("case %d: ExtractBlock accepted bad block", i)
		}
		buf := make([]float32, 9*int(c.d.Points()))
		if err := UnpackInterior(global, c.d, c.i0, c.j0, buf); err == nil {
			t.Errorf("case %d: UnpackInterior accepted bad block", i)
		}
		if err := CopyInterior(global, fd.NewWavefield(c.d), c.i0, c.j0); err == nil {
			t.Errorf("case %d: CopyInterior accepted bad block", i)
		}
	}
	if err := UnpackInterior(global, grid.Dims{Nx: 4, Ny: 3, Nz: 5}, 0, 0, make([]float32, 7)); err == nil {
		t.Error("short buffer accepted")
	}
}

func TestControllerDue(t *testing.T) {
	c := &Controller{Interval: 10}
	for step, want := range map[int]bool{0: false, 5: false, 10: true, 20: true, 21: false} {
		if got := c.Due(step); got != want {
			t.Errorf("Due(%d) = %v, want %v", step, got, want)
		}
	}
	off := &Controller{}
	if off.Due(10) {
		t.Error("disabled controller reported due")
	}
}
