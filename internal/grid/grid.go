// Package grid provides 3D staggered-grid field storage for the
// finite-difference earthquake solver.
//
// Following the paper's memory layout (§6.3), the z axis (depth) is the
// fastest-varying axis, y the second, and x the slowest. Fields carry a halo
// of H ghost layers on every side so that 4th-order stencils (H=2) can be
// evaluated at every interior point without bounds checks.
//
// Field holds one scalar per point; several Fields side by side give the
// structure-of-arrays layout every kernel sweeps.
package grid

import (
	"fmt"
	"math"
)

// DefaultHalo is the ghost-layer width required by the 4th-order staggered
// stencil used throughout the solver.
const DefaultHalo = 2

// Dims describes the interior extent of a grid block.
type Dims struct {
	Nx, Ny, Nz int
}

// Points returns the number of interior grid points.
func (d Dims) Points() int64 {
	return int64(d.Nx) * int64(d.Ny) * int64(d.Nz)
}

// Valid reports whether all extents are positive.
func (d Dims) Valid() bool {
	return d.Nx > 0 && d.Ny > 0 && d.Nz > 0
}

func (d Dims) String() string {
	return fmt.Sprintf("%dx%dx%d", d.Nx, d.Ny, d.Nz)
}

// Field is a scalar 3D field with halo layers, stored flat with z fastest —
// at its rank: a full field holds a value per point, a profile (NewProfile)
// one padded z-row that every column shares.
type Field struct {
	Dims
	H    int       // halo width on each side
	Data []float32 // len == (Nx+2H)*(Ny+2H)*(Nz+2H); Nz+2H for a profile

	// strides (in elements) for x and y, both 0 for a profile; z stride is 1
	sx, sy int
	origin int // offset of interior point (0,0,0)

	// frozen makes every writing method panic (see Freeze)
	frozen bool
}

// NewField allocates a zeroed field of the given interior dims and halo h.
func NewField(d Dims, h int) *Field {
	checkShape(d, h)
	tx, ty, tz := d.Nx+2*h, d.Ny+2*h, d.Nz+2*h
	f := &Field{
		Dims: d,
		H:    h,
		Data: make([]float32, tx*ty*tz),
		sx:   ty * tz,
		sy:   tz,
	}
	f.origin = h*f.sx + h*f.sy + h
	return f
}

// NewProfile allocates a zeroed field of the given interior dims and halo h
// that varies with depth alone: Data is one padded z-row and the x and y
// strides are 0, so every column (i,j) is that row. Idx, At, Row and the
// reductions read it like a full field, and a kernel that slices each
// operand's z-row at the operand's own Idx streams Nz+2h values instead of a
// 3D array; Set, Add and Fill write the shared row, so Fill(v) makes it a
// constant. What assumes the full
// layout — the halo pack and unpack — panics instead of copying garbage.
func NewProfile(d Dims, h int) *Field {
	checkShape(d, h)
	return &Field{Dims: d, H: h, Data: make([]float32, d.Nz+2*h), origin: h}
}

// checkShape panics on dims and a halo no field can have.
func checkShape(d Dims, h int) {
	if !d.Valid() {
		panic(fmt.Sprintf("grid: invalid dims %v", d))
	}
	if h < 0 {
		panic("grid: negative halo")
	}
}

// full panics on a profile; every method that walks the full layout by hand
// calls it.
func (f *Field) full() {
	if f.sx == 0 {
		panic("grid: a z-profile has no 3D layout to copy or pack (NewProfile)")
	}
}

// Idx returns the flat index of interior point (i,j,k). Negative indices and
// indices beyond the interior extent address halo layers, which is legal as
// long as they stay within the allocated halo.
func (f *Field) Idx(i, j, k int) int {
	return f.origin + i*f.sx + j*f.sy + k
}

// At returns the value at interior point (i,j,k).
func (f *Field) At(i, j, k int) float32 { return f.Data[f.Idx(i, j, k)] }

// Set stores v at interior point (i,j,k).
func (f *Field) Set(i, j, k int, v float32) {
	f.writable()
	f.Data[f.Idx(i, j, k)] = v
}

// Add accumulates v at interior point (i,j,k).
func (f *Field) Add(i, j, k int, v float32) {
	f.writable()
	f.Data[f.Idx(i, j, k)] += v
}

// Freeze makes the field read-only: from now on Set, Add, Fill,
// FillInterior and UnpackHalo panic. A field is
// frozen once something derived from its values has been cached (fd.Medium
// freezes Mu when it builds 1/Mu), so that an edit which would leave the
// derived data stale fails at the edit instead of corrupting a run. A copy
// (Clone) is not frozen. Writing Data directly bypasses
// the guard and is a bug on a frozen field.
func (f *Field) Freeze() { f.frozen = true }

// writable panics on a frozen field; every writing method calls it.
func (f *Field) writable() {
	if f.frozen {
		panic("grid: write to a frozen field (data derived from it is cached; build a new field instead)")
	}
}

// StrideX returns the flat-index distance between (i,j,k) and (i+1,j,k).
func (f *Field) StrideX() int { return f.sx }

// StrideY returns the flat-index distance between (i,j,k) and (i,j+1,k).
func (f *Field) StrideY() int { return f.sy }

// Fill sets every element (interior and halo) to v.
func (f *Field) Fill(v float32) {
	f.writable()
	for i := range f.Data {
		f.Data[i] = v
	}
}

// FillInterior sets every interior element to v, leaving halos untouched.
func (f *Field) FillInterior(v float32) {
	f.writable()
	for i := 0; i < f.Nx; i++ {
		for j := 0; j < f.Ny; j++ {
			base := f.Idx(i, j, 0)
			row := f.Data[base : base+f.Nz]
			for k := range row {
				row[k] = v
			}
		}
	}
}

// Clone returns a deep copy of f, of f's rank and not frozen.
func (f *Field) Clone() *Field {
	g := *f
	g.Data = append([]float32(nil), f.Data...)
	g.frozen = false
	return &g
}

// Row returns the contiguous z-row at (i,j) as a slice of length Nz.
func (f *Field) Row(i, j int) []float32 {
	base := f.Idx(i, j, 0)
	return f.Data[base : base+f.Nz]
}

// InteriorEqual reports whether the interiors of f and g match to within tol
// (absolute difference).
func (f *Field) InteriorEqual(g *Field, tol float64) bool {
	if f.Dims != g.Dims {
		return false
	}
	for i := 0; i < f.Nx; i++ {
		for j := 0; j < f.Ny; j++ {
			for k := 0; k < f.Nz; k++ {
				if math.Abs(float64(f.At(i, j, k)-g.At(i, j, k))) > tol {
					return false
				}
			}
		}
	}
	return true
}

// MaxAbs returns the maximum absolute interior value; a NaN anywhere in the
// interior makes the result NaN.
func (f *Field) MaxAbs() float32 { return MaxAbs(f) }

// MaxAbs returns the largest absolute value over the interiors of the given
// fields, which must share one shape: MaxAbsRegion over the whole interior.
// MaxAbs of no fields is 0.
func MaxAbs(fields ...*Field) float32 {
	if len(fields) == 0 {
		return 0
	}
	return MaxAbsRegion(Box(fields[0].Dims), fields...)
}

// MaxAbsRegion returns the largest absolute value of the given fields over
// the region, in a single pass over its i-planes. Magnitudes are compared as
// sign-cleared bit patterns: for non-NaN values that is the ordinary order
// of |v|, and every NaN pattern sorts above +Inf, so a NaN anywhere is
// returned instead of being skipped (float comparisons against NaN are all
// false, which is how a `v > m` scan loses it). The result's bits are that
// pattern, so the maxima of a partition's parts fold, as unsigned integers,
// into the whole's. An empty region gives 0.
func MaxAbsRegion(r Region, fields ...*Field) float32 {
	if r.Empty() {
		return 0
	}
	var m uint32
	for i := r.I0; i < r.I1; i++ {
		for _, f := range fields {
			m = maxAbsPlane(m, f.Data[f.Idx(i, r.J0, r.K0):], r.Nk(), r.Nj(), f.sy)
		}
	}
	return math.Float32frombits(m)
}

// maxAbsPlane folds the sign-cleared bit patterns of cols columns of n
// cells, the first at a[0] and each cs elements past the one before, into
// the running maximum m: the whole vectors of every column in one call to
// the assembly where that is in use (cpu.AVX2), the rest of each column —
// or all of it — in the Go loop.
func maxAbsPlane(m uint32, a []float32, n, cols, cs int) uint32 {
	m, v := maxAbsPlaneVec(m, a, n, cols, cs)
	for j := 0; v < n && j < cols; j++ {
		m = maxAbsBitsGo(m, a[j*cs+v:][:n-v])
	}
	return m
}

// maxAbsBitsGo is the portable scan. Four independent accumulators keep the
// compare-and-select chain from serializing the loop.
func maxAbsBitsGo(m uint32, row []float32) uint32 {
	const abs = 1<<31 - 1
	m0, m1, m2, m3 := m, uint32(0), uint32(0), uint32(0)
	for len(row) >= 4 {
		m0 = max(m0, math.Float32bits(row[0])&abs)
		m1 = max(m1, math.Float32bits(row[1])&abs)
		m2 = max(m2, math.Float32bits(row[2])&abs)
		m3 = max(m3, math.Float32bits(row[3])&abs)
		row = row[4:]
	}
	for _, v := range row {
		m0 = max(m0, math.Float32bits(v)&abs)
	}
	return max(max(m0, m1), max(m2, m3))
}

// L2Diff returns the root-mean-square interior difference between f and g.
func (f *Field) L2Diff(g *Field) float64 {
	if f.Dims != g.Dims {
		panic("grid: L2Diff shape mismatch")
	}
	var sum float64
	for i := 0; i < f.Nx; i++ {
		for j := 0; j < f.Ny; j++ {
			fr, gr := f.Row(i, j), g.Row(i, j)
			for k := range fr {
				d := float64(fr[k] - gr[k])
				sum += d * d
			}
		}
	}
	return math.Sqrt(sum / float64(f.Points()))
}

// MinMax returns the minimum and maximum interior values.
func (f *Field) MinMax() (lo, hi float32) {
	lo, hi = math.MaxFloat32, -math.MaxFloat32
	for i := 0; i < f.Nx; i++ {
		for j := 0; j < f.Ny; j++ {
			for _, v := range f.Row(i, j) {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
		}
	}
	return lo, hi
}

// Bytes returns the allocated size of the field in bytes.
func (f *Field) Bytes() int64 {
	return int64(len(f.Data)) * 4
}
