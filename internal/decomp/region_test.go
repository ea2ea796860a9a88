package decomp

import (
	"testing"

	"swquake/internal/grid"
)

// TestInteriorShellTilesBlock: a rank's interior keeps h cells away from
// each face with a neighbour and reaches every face at the domain edge, and
// with the shell the block less it leaves, tiles the block.
func TestInteriorShellTilesBlock(t *testing.T) {
	pg, err := NewProcessGrid(48, 36, 8, 3, 2) // blocks 16x18x8
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		px, py int
		want   grid.Region
	}{
		{0, 0, grid.Region{I0: 0, I1: 14, J0: 0, J1: 16, K1: 8}}, // corner: x+ and y+ neighbours
		{1, 0, grid.Region{I0: 2, I1: 14, J0: 0, J1: 16, K1: 8}}, // middle column: both x faces
		{2, 1, grid.Region{I0: 2, I1: 16, J0: 2, J1: 18, K1: 8}}, // opposite corner
	} {
		if got := pg.Interior(pg.Rank(c.px, c.py), 2); got != c.want {
			t.Errorf("rank (%d,%d): interior %v, want %v", c.px, c.py, got, c.want)
		}
		box := grid.Box(pg.BlockDims())
		seen := map[[2]int]bool{}
		for _, r := range append(box.Minus(c.want), c.want) {
			for i := r.I0; i < r.I1; i++ {
				for j := r.J0; j < r.J1; j++ {
					if seen[[2]int{i, j}] || r.K0 != 0 || r.K1 != box.K1 {
						t.Fatalf("rank (%d,%d): column (%d,%d) covered twice or cut in z", c.px, c.py, i, j)
					}
					seen[[2]int{i, j}] = true
				}
			}
		}
		if len(seen) != box.Ni()*box.Nj() {
			t.Fatalf("rank (%d,%d): interior and shell cover %d of %d columns", c.px, c.py, len(seen), box.Ni()*box.Nj())
		}
	}

}

// TestInteriorShellDegenerate: a lone block is all interior, with no shell;
// a block too thin for an interior is all shell.
func TestInteriorShellDegenerate(t *testing.T) {
	lone, err := NewProcessGrid(8, 8, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := lone.Interior(0, 2), grid.Box(lone.BlockDims()); got != want || len(want.Minus(got)) != 0 {
		t.Errorf("lone block: interior %v, want the block %v and no shell", got, want)
	}

	thin, err := NewProcessGrid(9, 8, 4, 3, 1) // blocks 3 planes wide
	if err != nil {
		t.Fatal(err)
	}
	if got := thin.Interior(1, 2); !got.Empty() {
		t.Errorf("3-plane block between two neighbours: interior %v, want empty", got)
	}
	if shell := grid.Box(thin.BlockDims()).Minus(thin.Interior(1, 2)); len(shell) != 1 || shell[0] != grid.Box(thin.BlockDims()) {
		t.Errorf("3-plane block: shell %v, want the whole block", shell)
	}
}
