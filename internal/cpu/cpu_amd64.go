//go:build !race

package cpu

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() uint32

// HaveAVX2 reports whether the CPU has AVX2 and the OS saves the YMM state
// across context switches: CPUID.1:ECX OSXSAVE and AVX, XCR0 bits 1 and 2
// (SSE and AVX state enabled), CPUID.7.0:EBX AVX2. A race build says no: it
// keeps the Go rows, so the detector sees every access the walk's workers
// make to the fields.
func HaveAVX2() bool {
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
