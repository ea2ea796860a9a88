//go:build !race

package fd

import (
	"unsafe"

	"swquake/internal/cpu"
)

// The assembly rows of sweep_amd64.s and the only code that calls them. A
// race build keeps the Go rows (sweep_noasm.go), so the detector still sees
// every access the tile pool's goroutines make to the fields.

//go:noescape
func velocityRowAVX2(out *float32, n int, dtdx float32, r0, r1, a *float32, as uintptr, b *float32, bs uintptr, c *float32)

//go:noescape
func stressDiagRowAVX2(xx, yy, zz *float32, n int, dtdx float32, lam, mu, u *float32, us uintptr, v *float32, vs uintptr, w *float32)

//go:noescape
func stressShearRowAVX2(out *float32, n int, dtdx float32, ra, rb, rc, rd, a *float32, as uintptr, b *float32, bs uintptr)

//go:noescape
func attenuationRowAVX2(gp, gs, xx, yy, zz, xy, xz, yz *float32, n int)

//go:noescape
func scaleRowAVX2(x, f *float32, n int)

// Each *RowVec runs the leading len(out)&^7 cells of a row in assembly and
// returns how many it did (0 when the assembly is not in use); the caller
// hands the rest to the Go row. It cuts every operand to the cells and taps
// the assembly will touch, so the pointers it passes have just been bounds
// checked for exactly that span — a derivative with stride s reads
// f[0 : 3*s+m]. Strides are positive: a zero or negative one would make
// that span a lie, hence the panic.

func velocityRowVec(out []float32, dtdx float32, r0, r1, a []float32, as int, b []float32, bs int, c []float32) int {
	m := len(out) &^ 7
	if !cpu.AVX2 || m == 0 {
		return 0
	}
	if as <= 0 || bs <= 0 {
		panic("fd: non-positive row stride")
	}
	r0, r1 = r0[:m], r1[:m]
	a, b, c = a[:3*as+m], b[:3*bs+m], c[:3+m]
	velocityRowAVX2(unsafe.SliceData(out), m, dtdx, unsafe.SliceData(r0), unsafe.SliceData(r1),
		unsafe.SliceData(a), uintptr(as)*4, unsafe.SliceData(b), uintptr(bs)*4, unsafe.SliceData(c))
	return m
}

func stressDiagRowVec(xx, yy, zz []float32, dtdx float32, lam, mu, u []float32, us int, v []float32, vs int, w []float32) int {
	m := len(xx) &^ 7
	if !cpu.AVX2 || m == 0 {
		return 0
	}
	if us <= 0 || vs <= 0 {
		panic("fd: non-positive row stride")
	}
	yy, zz, lam, mu = yy[:m], zz[:m], lam[:m], mu[:m]
	u, v, w = u[:3*us+m], v[:3*vs+m], w[:3+m]
	stressDiagRowAVX2(unsafe.SliceData(xx), unsafe.SliceData(yy), unsafe.SliceData(zz), m, dtdx,
		unsafe.SliceData(lam), unsafe.SliceData(mu),
		unsafe.SliceData(u), uintptr(us)*4, unsafe.SliceData(v), uintptr(vs)*4, unsafe.SliceData(w))
	return m
}

func stressShearRowVec(out []float32, dtdx float32, ra, rb, rc, rd, a []float32, as int, b []float32, bs int) int {
	m := len(out) &^ 7
	if !cpu.AVX2 || m == 0 {
		return 0
	}
	if as <= 0 || bs <= 0 {
		panic("fd: non-positive row stride")
	}
	ra, rb, rc, rd = ra[:m], rb[:m], rc[:m], rd[:m]
	a, b = a[:3*as+m], b[:3*bs+m]
	stressShearRowAVX2(unsafe.SliceData(out), m, dtdx,
		unsafe.SliceData(ra), unsafe.SliceData(rb), unsafe.SliceData(rc), unsafe.SliceData(rd),
		unsafe.SliceData(a), uintptr(as)*4, unsafe.SliceData(b), uintptr(bs)*4)
	return m
}

func attenuationRowVec(gp, gs, xx, yy, zz, xy, xz, yz []float32) int {
	m := len(gp) &^ 7
	if !cpu.AVX2 || m == 0 {
		return 0
	}
	gs, xx, yy, zz, xy, xz, yz = gs[:m], xx[:m], yy[:m], zz[:m], xy[:m], xz[:m], yz[:m]
	attenuationRowAVX2(unsafe.SliceData(gp), unsafe.SliceData(gs),
		unsafe.SliceData(xx), unsafe.SliceData(yy), unsafe.SliceData(zz),
		unsafe.SliceData(xy), unsafe.SliceData(xz), unsafe.SliceData(yz), m)
	return m
}

func scaleRowVec(x, f []float32) int {
	m := len(x) &^ 7
	if !cpu.AVX2 || m == 0 {
		return 0
	}
	f = f[:m]
	scaleRowAVX2(unsafe.SliceData(x), unsafe.SliceData(f), m)
	return m
}
