package grid

import "testing"

// markCells asserts the regions are pairwise disjoint and together cover r
// exactly, by marking every cell.
func markCells(t *testing.T, r Region, parts []Region) {
	t.Helper()
	seen := make(map[[3]int]int)
	var total int64
	for pi, p := range parts {
		if p.Empty() {
			t.Fatalf("part %d is empty: %v", pi, p)
		}
		if p.I0 < r.I0 || p.I1 > r.I1 || p.J0 < r.J0 || p.J1 > r.J1 || p.K0 < r.K0 || p.K1 > r.K1 {
			t.Fatalf("part %v escapes %v", p, r)
		}
		total += p.Points()
		for i := p.I0; i < p.I1; i++ {
			for j := p.J0; j < p.J1; j++ {
				for k := p.K0; k < p.K1; k++ {
					c := [3]int{i, j, k}
					if prev, dup := seen[c]; dup {
						t.Fatalf("cell %v in parts %d and %d", c, prev, pi)
					}
					seen[c] = pi
				}
			}
		}
	}
	if total != r.Points() {
		t.Fatalf("parts cover %d points, region has %d", total, r.Points())
	}
}

func TestSplitCoversDisjoint(t *testing.T) {
	r := Region{I0: 1, I1: 8, J0: 0, J1: 5, K0: 2, K1: 9}
	cases := [][3]int{
		{1, 1, 1}, {2, 2, 2}, {3, 1, 2}, {7, 5, 7},
		// more tiles than extent: clamped, still a tiling
		{20, 20, 20},
	}
	for _, c := range cases {
		markCells(t, r, r.Split(c[0], c[1], c[2]))
	}
	if parts := (Region{}).Split(2, 2, 2); parts != nil {
		t.Fatalf("empty region split to %v", parts)
	}
}

func TestSplitDegenerateOneCell(t *testing.T) {
	r := Region{I1: 3, J1: 4, K1: 2}
	parts := r.Split(3, 4, 2)
	if len(parts) != 24 {
		t.Fatalf("want 24 one-cell parts, got %d", len(parts))
	}
	for _, p := range parts {
		if p.Points() != 1 {
			t.Fatalf("part %v is not one cell", p)
		}
	}
	markCells(t, r, parts)
}

func TestRegionHelpers(t *testing.T) {
	d := Dims{Nx: 4, Ny: 5, Nz: 6}
	if Box(d) != (Region{I1: 4, J1: 5, K1: 6}) {
		t.Fatal("Box mismatch")
	}
	if FullXY(d, 2, 4) != (Region{I1: 4, J1: 5, K0: 2, K1: 4}) {
		t.Fatal("FullXY mismatch")
	}
	if !(Region{I0: 3, I1: 3, J1: 1, K1: 1}).Empty() {
		t.Fatal("zero-width region must be empty")
	}
	if (Region{I1: 1, J1: 1, K1: 1}).Empty() {
		t.Fatal("one-cell region must not be empty")
	}
	if got := Box(d).Points(); got != 120 {
		t.Fatalf("Points = %d", got)
	}
}

// FuzzHaloRoundTrip drives PackHalo/UnpackHalo as a neighbour exchange: the
// values a sender packs at a face must land, unchanged, in the ghost layers
// a same-sized receiver unpacks at the opposite face — for every face and
// arbitrary field contents.
func FuzzHaloRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(5), uint8(3))
	f.Add(int64(42), uint8(8), uint8(2), uint8(6))
	f.Add(int64(-7), uint8(1), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nx, ny, nz uint8) {
		d := Dims{Nx: int(nx%12) + 1, Ny: int(ny%12) + 1, Nz: int(nz%12) + 1}
		const h = 2
		src := NewField(d, h)
		rng := uint64(seed) | 1
		for i := range src.Data {
			rng = rng*6364136223846793005 + 1442695040888963407
			src.Data[i] = float32(int32(rng>>33)) / (1 << 16)
		}
		for _, face := range []Face{FaceXMinus, FaceXPlus, FaceYMinus, FaceYPlus} {
			buf := make([]float32, src.HaloLen(face))
			src.PackHalo(face, buf)
			dst := NewField(d, h)
			dst.UnpackHalo(face.Opposite(), buf)

			// si/sj translate a sender cell to the receiver's coordinates
			// (the receiver sits on the `face` side of the sender), and
			// i0..j1 walk the layers PackHalo copied
			var si, sj int
			var i0, i1, j0, j1 int
			switch face {
			case FaceXMinus:
				si, i0, i1, j0, j1 = d.Nx, 0, h, -h, d.Ny+h
			case FaceXPlus:
				si, i0, i1, j0, j1 = -d.Nx, d.Nx-h, d.Nx, -h, d.Ny+h
			case FaceYMinus:
				sj, i0, i1, j0, j1 = d.Ny, -h, d.Nx+h, 0, h
			case FaceYPlus:
				sj, i0, i1, j0, j1 = -d.Ny, -h, d.Nx+h, d.Ny-h, d.Ny
			}
			for i := i0; i < i1; i++ {
				for j := j0; j < j1; j++ {
					for k := -h; k < d.Nz+h; k++ {
						got, want := dst.At(i+si, j+sj, k), src.At(i, j, k)
						if got != want {
							t.Fatalf("face %v: ghost (%d,%d,%d) = %g, sender had %g",
								face, i+si, j+sj, k, got, want)
						}
					}
				}
			}
		}
	})
}

// TestMinusTilesRegion: r less o, together with r ∩ o, tiles r exactly —
// for o inset from some faces, reaching past others, disjoint from r and
// covering it — and an inset from the four lateral faces leaves the two x
// strips across r's full y extent and the two y strips between them.
func TestMinusTilesRegion(t *testing.T) {
	r := Region{I0: 0, I1: 16, J0: 0, J1: 12, K0: 0, K1: 8}
	for _, o := range []Region{
		{I0: 2, I1: 14, J0: 2, J1: 10, K0: 0, K1: 8},
		{I0: 2, I1: 40, J0: -3, J1: 10, K0: 0, K1: 8},
		{I0: 3, I1: 5, J0: 4, J1: 6, K0: 2, K1: 3},
		{I0: 20, I1: 30, J0: 0, J1: 12, K0: 0, K1: 8},
		{I0: -1, I1: 17, J0: -1, J1: 13, K0: -1, K1: 9},
		{I0: 5, I1: 3, J0: 0, J1: 12, K0: 0, K1: 8}, // empty
	} {
		parts := r.Minus(o)
		if in := r.Intersect(o); !in.Empty() {
			parts = append(parts, in)
		}
		markCells(t, r, parts)
	}
	got := r.Minus(Region{I0: 2, I1: 14, J0: 2, J1: 10, K1: 8})
	want := []Region{
		{I0: 0, I1: 2, J0: 0, J1: 12, K1: 8}, {I0: 14, I1: 16, J0: 0, J1: 12, K1: 8},
		{I0: 2, I1: 14, J0: 0, J1: 2, K1: 8}, {I0: 2, I1: 14, J0: 10, J1: 12, K1: 8},
	}
	if len(got) != len(want) {
		t.Fatalf("box less its inset: %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("box less its inset: %v, want %v", got, want)
		}
	}
	if parts := (Region{}).Minus(r); parts != nil {
		t.Fatalf("empty region less r: %v", parts)
	}
}
