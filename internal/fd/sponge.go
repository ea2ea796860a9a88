package fd

import "math"

// Sponge implements Cerjan-style absorbing boundaries: inside a boundary
// zone of configurable width, every dynamic field is multiplied each step by
// a smooth damping profile < 1, absorbing outgoing waves. The top (k=0) face
// is never damped — it carries the free surface.
//
// The profile is separable: the factor at (i,j,k) is
// float32(cx[i]*cy[j]*cz[k]), the product of three 1-D float64 Cerjan
// profiles that are exactly 1 outside their zones. The sponge stores only
// those (no per-point array) and ApplyRegion skips every cell whose factor
// is 1. Under decomposition a block's cx and cy are the slices of the
// global profiles at the block's offset, so a rank damps exactly the cells
// of the global zones it owns, by exactly the serial factors.
type Sponge struct {
	D struct{ Nx, Ny, Nz int }

	cx, cy, cz []float64
	// czf[k] is float32(cz[k]): the factor row of a column outside the x and
	// y zones, where cx*cy is exactly 1
	czf []float32
	// kz0 is the first k of the bottom zone: cz[k] == 1 for k < kz0
	kz0 int
	// damped counts the block's cells whose factor differs from 1
	damped int64
}

// NewSponge builds a Cerjan sponge of the given width for dims (nx,ny,nz)
// with damping strength alpha (classic value 0.015-0.092; we default callers
// to 0.05 for ~60-95% round-trip absorption at typical widths).
func NewSponge(nx, ny, nz, width int, alpha float64) *Sponge {
	return NewSpongeGlobal(nx, ny, nz, width, alpha, 0, 0, nx, ny, nz)
}

// NewSpongeGlobal builds the sponge for a local block of (nx,ny,nz) points
// at offset (i0,j0) inside a global (gnx,gny,gnz) mesh, so that MPI-
// decomposed runs damp exactly the same global boundary zones as a serial
// run (interior ranks get no damping from faces they do not own).
func NewSpongeGlobal(gnx, gny, gnz, width int, alpha float64, i0, j0, nx, ny, nz int) *Sponge {
	s := &Sponge{}
	s.D.Nx, s.D.Ny, s.D.Nz = nx, ny, nz
	s.cx = make([]float64, nx)
	for i := range s.cx {
		s.cx[i] = cerjan(i0+i, gnx, width, alpha, true, true)
	}
	s.cy = make([]float64, ny)
	for j := range s.cy {
		s.cy[j] = cerjan(j0+j, gny, width, alpha, true, true)
	}
	s.cz = make([]float64, nz)
	s.czf = make([]float32, nz)
	for k := range s.cz {
		s.cz[k] = cerjan(k, gnz, width, alpha, false, true) // no damping at the free surface
		s.czf[k] = float32(s.cz[k])
	}
	for s.kz0 < nz && s.cz[s.kz0] == 1 {
		s.kz0++
	}
	// down a column the factor never grows (cz is 1 above kz0 and falls
	// below it, and rounding keeps the order), so the column's damped cells
	// are its first damped cell and all below it
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			k := 0
			if s.cx[i]*s.cy[j] == 1 {
				k = s.kz0
			}
			for k < nz && s.Factor(i, j, k) == 1 {
				k++
			}
			s.damped += int64(nz - k)
		}
	}
	return s
}

// cerjan returns the 1D damping factor for index v on an axis of length n.
func cerjan(v, n, width int, alpha float64, lowSide, highSide bool) float64 {
	d := 1.0
	if lowSide && v < width {
		t := float64(width-v) / float64(width)
		d *= math.Exp(-(alpha * t) * (alpha * t) * 100)
	}
	if highSide && v >= n-width {
		t := float64(v-(n-width-1)) / float64(width)
		d *= math.Exp(-(alpha * t) * (alpha * t) * 100)
	}
	return d
}

// Factor returns the damping factor at interior point (i,j,k).
func (s *Sponge) Factor(i, j, k int) float32 {
	return float32(s.cx[i] * s.cy[j] * s.cz[k])
}

// DampedPoints returns how many of the block's cells have a factor other
// than 1 — the cells ApplyRegion over the whole block does arithmetic on
// that changes anything. The blocks of a decomposition sum to the serial
// count.
func (s *Sponge) DampedPoints() int64 { return s.damped }
