package grid

import "fmt"

// Region is a half-open 3D box of interior points,
// [I0,I1) x [J0,J1) x [K0,K1), in block-local coordinates. It is the unit
// of kernel work in the region engine: the step pipeline decomposes a block
// into Regions (interior + boundary shells for overlapped halo exchange,
// the slabs and strips its workers walk) and every stage kernel accepts
// one. Bounds may address halo layers (negative,
// or beyond the interior extent) where a kernel is defined there — the free
// surface images ghost columns, for example.
type Region struct {
	I0, I1, J0, J1, K0, K1 int
}

// Box returns the region covering a block's whole interior.
func Box(d Dims) Region {
	return Region{I1: d.Nx, J1: d.Ny, K1: d.Nz}
}

// FullXY returns the full-x/y region over the z-slab [k0,k1) — the shape
// every pre-Region kernel signature operated on.
func FullXY(d Dims, k0, k1 int) Region {
	return Region{I1: d.Nx, J1: d.Ny, K0: k0, K1: k1}
}

// Ni, Nj, Nk return the extent along each axis (never negative).
func (r Region) Ni() int { return max(0, r.I1-r.I0) }
func (r Region) Nj() int { return max(0, r.J1-r.J0) }
func (r Region) Nk() int { return max(0, r.K1-r.K0) }

// Empty reports whether the region contains no points.
func (r Region) Empty() bool {
	return r.I0 >= r.I1 || r.J0 >= r.J1 || r.K0 >= r.K1
}

// Points returns the number of points in the region.
func (r Region) Points() int64 {
	return int64(r.Ni()) * int64(r.Nj()) * int64(r.Nk())
}

func (r Region) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)x[%d,%d)", r.I0, r.I1, r.J0, r.J1, r.K0, r.K1)
}

// Intersect returns the points r and o share (an empty region if none).
func (r Region) Intersect(o Region) Region {
	return Region{
		I0: max(r.I0, o.I0), I1: min(r.I1, o.I1),
		J0: max(r.J0, o.J0), J1: min(r.J1, o.J1),
		K0: max(r.K0, o.K0), K1: min(r.K1, o.K1),
	}
}

// Minus returns the points of r outside o as at most six disjoint non-empty
// regions: the x slabs below and above o across all of r, then the y slabs
// beside o within its x range, then the z slabs within both.
func (r Region) Minus(o Region) []Region {
	if r.Empty() {
		return nil
	}
	o = r.Intersect(o)
	if o.Empty() {
		return []Region{r}
	}
	var out []Region
	for _, p := range []Region{
		{r.I0, o.I0, r.J0, r.J1, r.K0, r.K1},
		{o.I1, r.I1, r.J0, r.J1, r.K0, r.K1},
		{o.I0, o.I1, r.J0, o.J0, r.K0, r.K1},
		{o.I0, o.I1, o.J1, r.J1, r.K0, r.K1},
		{o.I0, o.I1, o.J0, o.J1, r.K0, o.K0},
		{o.I0, o.I1, o.J0, o.J1, o.K1, r.K1},
	} {
		if !p.Empty() {
			out = append(out, p)
		}
	}
	return out
}

// Split partitions the region into at most ti*tj*tk sub-regions, near-equal
// along each axis (an axis with fewer points than requested parts yields
// fewer parts). The parts exactly tile r and are returned x-major, matching
// the memory order of the fields.
func (r Region) Split(ti, tj, tk int) []Region {
	if r.Empty() || ti < 1 || tj < 1 || tk < 1 {
		if r.Empty() {
			return nil
		}
		return []Region{r}
	}
	is := cuts(r.I0, r.I1, ti)
	js := cuts(r.J0, r.J1, tj)
	ks := cuts(r.K0, r.K1, tk)
	out := make([]Region, 0, (len(is)-1)*(len(js)-1)*(len(ks)-1))
	for a := 0; a+1 < len(is); a++ {
		for b := 0; b+1 < len(js); b++ {
			for c := 0; c+1 < len(ks); c++ {
				out = append(out, Region{
					I0: is[a], I1: is[a+1],
					J0: js[b], J1: js[b+1],
					K0: ks[c], K1: ks[c+1],
				})
			}
		}
	}
	return out
}

// cuts returns t+1 cut points dividing [lo,hi) into at most t near-equal
// parts (the first hi-lo parts get the remainder, one extra point each).
func cuts(lo, hi, t int) []int {
	n := hi - lo
	if t > n {
		t = n
	}
	base, rem := n/t, n%t
	out := make([]int, 0, t+1)
	p := lo
	out = append(out, p)
	for i := 0; i < t; i++ {
		p += base
		if i < rem {
			p++
		}
		out = append(out, p)
	}
	return out
}
