//go:build !race

package fd

import (
	"unsafe"

	"swquake/internal/cpu"
)

// The assembly plane entries of sweep_amd64.s and the only code that calls
// them. A race build keeps the Go rows (sweep_noasm.go), so the detector
// still sees every access the walk's workers make to the fields.
//
// Each *PlaneVec runs the leading m = n&^7 cells of every column of a plane
// in one call to the assembly and returns m (0 when the assembly is not in
// use); the caller hands the rest of each column to the Go row. It cuts
// every operand to the span the assembly will touch — (cols-1)*stride + m
// elements from the first column's first cell, 3*s more for a derivative
// with tap stride s — so the pointers it passes have just been bounds
// checked for exactly that span. A tap stride that is not positive or a
// column stride that is negative would make the span a lie: they panic.

//go:noescape
func velocityPlaneAVX2(out *float32, m, cols int, cs uintptr, dtdx float32, r0, r1, a *float32, as uintptr, b *float32, bs uintptr, c *float32)

//go:noescape
func stressDiagPlaneAVX2(xx, yy, zz *float32, m, cols int, cs uintptr, dtdx float32, lam, mu, u *float32, us uintptr, v *float32, vs uintptr, w *float32)

//go:noescape
func stressShearPlaneAVX2(out *float32, m, cols int, cs uintptr, dtdx float32, ra, rb, rc, rd, a *float32, as uintptr, b *float32, bs uintptr)

//go:noescape
func attenuationPlaneAVX2(gp, gs, xx, yy, zz, xy, xz, yz *float32, m, cols int, ps, ss, cs uintptr)

//go:noescape
func scalePlaneAVX2(x, f *float32, n, cols int, xs, fs uintptr)

// vec returns m and the span of an operand at the plane's column stride.
func (pl plane) vec() (m, span int) {
	if m = pl.n &^ 7; !cpu.AVX2 || m == 0 || pl.cols <= 0 {
		return 0, 0
	}
	return m, pl.span(pl.cs, m)
}

// span is the reach of m cells of every column at column stride cs.
func (pl plane) span(cs, m int) int {
	if cs < 0 {
		panic("fd: negative column stride")
	}
	return (pl.cols-1)*cs + m
}

func velocityPlaneVec(pl plane, out []float32, dtdx float32, r0, r1, a []float32, as int, b []float32, bs int, c []float32) int {
	m, span := pl.vec()
	if m == 0 {
		return 0
	}
	if as <= 0 || bs <= 0 {
		panic("fd: non-positive tap stride")
	}
	out, r0, r1 = out[:span], r0[:span], r1[:span]
	a, b, c = a[:3*as+span], b[:3*bs+span], c[:3+span]
	velocityPlaneAVX2(unsafe.SliceData(out), m, pl.cols, uintptr(pl.cs)*4, dtdx,
		unsafe.SliceData(r0), unsafe.SliceData(r1),
		unsafe.SliceData(a), uintptr(as)*4, unsafe.SliceData(b), uintptr(bs)*4, unsafe.SliceData(c))
	return m
}

func stressDiagPlaneVec(pl plane, xx, yy, zz []float32, dtdx float32, lam, mu, u []float32, us int, v []float32, vs int, w []float32) int {
	m, span := pl.vec()
	if m == 0 {
		return 0
	}
	if us <= 0 || vs <= 0 {
		panic("fd: non-positive tap stride")
	}
	xx, yy, zz, lam, mu = xx[:span], yy[:span], zz[:span], lam[:span], mu[:span]
	u, v, w = u[:3*us+span], v[:3*vs+span], w[:3+span]
	stressDiagPlaneAVX2(unsafe.SliceData(xx), unsafe.SliceData(yy), unsafe.SliceData(zz), m, pl.cols, uintptr(pl.cs)*4, dtdx,
		unsafe.SliceData(lam), unsafe.SliceData(mu),
		unsafe.SliceData(u), uintptr(us)*4, unsafe.SliceData(v), uintptr(vs)*4, unsafe.SliceData(w))
	return m
}

func stressShearPlaneVec(pl plane, out []float32, dtdx float32, ra, rb, rc, rd, a []float32, as int, b []float32, bs int) int {
	m, span := pl.vec()
	if m == 0 {
		return 0
	}
	if as <= 0 || bs <= 0 {
		panic("fd: non-positive tap stride")
	}
	out, ra, rb, rc, rd = out[:span], ra[:span], rb[:span], rc[:span], rd[:span]
	a, b = a[:3*as+span], b[:3*bs+span]
	stressShearPlaneAVX2(unsafe.SliceData(out), m, pl.cols, uintptr(pl.cs)*4, dtdx,
		unsafe.SliceData(ra), unsafe.SliceData(rb), unsafe.SliceData(rc), unsafe.SliceData(rd),
		unsafe.SliceData(a), uintptr(as)*4, unsafe.SliceData(b), uintptr(bs)*4)
	return m
}

func attenuationPlaneVec(pl plane, gp []float32, ps int, gs []float32, ss int, xx, yy, zz, xy, xz, yz []float32) int {
	m, span := pl.vec()
	if m == 0 {
		return 0
	}
	gp, gs = gp[:pl.span(ps, m)], gs[:pl.span(ss, m)]
	xx, yy, zz, xy, xz, yz = xx[:span], yy[:span], zz[:span], xy[:span], xz[:span], yz[:span]
	attenuationPlaneAVX2(unsafe.SliceData(gp), unsafe.SliceData(gs),
		unsafe.SliceData(xx), unsafe.SliceData(yy), unsafe.SliceData(zz),
		unsafe.SliceData(xy), unsafe.SliceData(xz), unsafe.SliceData(yz),
		m, pl.cols, uintptr(ps)*4, uintptr(ss)*4, uintptr(pl.cs)*4)
	return m
}

// scalePlaneVec scales every cell of the plane — a column's last n&7 cells
// with masked lanes — and reports whether it did (false when the assembly
// is not in use).
func scalePlaneVec(pl plane, x, f []float32, fs int) bool {
	if !cpu.AVX2 || pl.n <= 0 || pl.cols <= 0 {
		return false
	}
	x, f = x[:pl.span(pl.cs, pl.n)], f[:pl.span(fs, pl.n)]
	scalePlaneAVX2(unsafe.SliceData(x), unsafe.SliceData(f), pl.n, pl.cols, uintptr(pl.cs)*4, uintptr(fs)*4)
	return true
}
