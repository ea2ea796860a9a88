//go:build !race

package fd

import "unsafe"

// The assembly rows of sweep_amd64.s and the only code that calls them. A
// race build keeps the Go rows (sweep_noasm.go), so the detector still sees
// every access the tile pool's goroutines make to the fields.

//go:noescape
func velocityRowAVX2(out *float32, n int, dtdx float32, r0, r1, a *float32, as uintptr, b *float32, bs uintptr, c *float32)

//go:noescape
func stressDiagRowAVX2(xx, yy, zz *float32, n int, dtdx float32, lam, mu, u *float32, us uintptr, v *float32, vs uintptr, w *float32)

//go:noescape
func stressShearRowAVX2(out *float32, n int, dtdx float32, ra, rb, rc, rd, a *float32, as uintptr, b *float32, bs uintptr)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() uint32

// haveAVX2 reports whether the CPU has AVX2 and the OS saves the YMM state
// across context switches: CPUID.1:ECX OSXSAVE and AVX, XCR0 bits 1 and 2
// (SSE and AVX state enabled), CPUID.7.0:EBX AVX2.
func haveAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv0()&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

// Each *RowVec runs the leading len(out)&^7 cells of a row in assembly and
// returns how many it did (0 when the assembly is not in use); the caller
// hands the rest to the Go row. It cuts every operand to the cells and taps
// the assembly will touch, so the pointers it passes have just been bounds
// checked for exactly that span — a derivative with stride s reads
// f[0 : 3*s+m]. Strides are positive: a zero or negative one would make
// that span a lie, hence the panic.

func velocityRowVec(out []float32, dtdx float32, r0, r1, a []float32, as int, b []float32, bs int, c []float32) int {
	m := len(out) &^ 7
	if !useAVX2 || m == 0 {
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
	if !useAVX2 || m == 0 {
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
	if !useAVX2 || m == 0 {
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
