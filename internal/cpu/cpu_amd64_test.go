//go:build !race

package cpu

import (
	"os"
	"strings"
	"testing"
)

// TestHaveAVX2AgreesWithTheKernel: the CPUID/XGETBV stub reaches the verdict
// the kernel publishes in /proc/cpuinfo (which lists avx2 only when the CPU
// has it and the OS enabled the YMM state).
func TestHaveAVX2AgreesWithTheKernel(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo on this host: %v", err)
	}
	var flags string
	for _, line := range strings.Split(string(info), "\n") {
		if strings.HasPrefix(line, "flags") {
			flags = line
			break
		}
	}
	if flags == "" {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	want := false
	for _, f := range strings.Fields(flags) {
		if f == "avx2" {
			want = true
		}
	}
	if got := HaveAVX2(); got != want {
		t.Fatalf("HaveAVX2() = %v, /proc/cpuinfo lists avx2: %v", got, want)
	}
	if AVX2 != want {
		t.Fatalf("AVX2 = %v at init on a host whose avx2 flag is %v", AVX2, want)
	}
}
