// Package cpu decides, once, whether the sweep kernels run their AVX2
// assembly rows (internal/fd, internal/plasticity and internal/grid each
// keep theirs beside the Go row that defines the bits). The verdict comes
// from what the build and the CPU are — amd64, not a race build, AVX2 with
// the OS saving the YMM state — and from nothing a user can set.
package cpu

// AVX2 selects the assembly rows in every package that has them. Only tests
// write it (cputest.ForEachKernelPath), to run both paths on one host; it is
// false wherever the assembly is not built.
var AVX2 = HaveAVX2()

// KernelPath names the code the row kernels run on this host: "avx2" for
// the assembly rows, "go" for the portable ones.
func KernelPath() string {
	if AVX2 {
		return "avx2"
	}
	return "go"
}
