// Package cputest lets the tests of any package run under both row paths and
// holds what the row property tests of fd, plasticity and grid share.
package cputest

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"swquake/internal/cpu"
)

// KernelPaths lists the settings of cpu.AVX2 this build and CPU can run: the
// Go rows always, the assembly rows where they exist.
func KernelPaths() []bool {
	if cpu.HaveAVX2() {
		return []bool{false, true}
	}
	return []bool{false}
}

// ForEachKernelPath runs f as a subtest named "go" and, where the host has
// them, "avx2", so the fallback other hosts run is exercised on this one.
// Not for parallel tests: it sets the process-wide dispatch variable.
func ForEachKernelPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	was := cpu.AVX2
	defer func() { cpu.AVX2 = was }()
	for _, on := range KernelPaths() {
		cpu.AVX2 = on
		t.Run(cpu.KernelPath(), f)
	}
}

// Arena is a float32 buffer whose element Base sits on a 32-byte boundary,
// so a row can be made to start at a chosen offset from that boundary. The
// elements before the boundary and after a row are the canaries: a row test
// compares whole buffers, so a write outside the row shows.
type Arena struct{ Buf []float32 }

// Base is the index of every arena's 32-byte-aligned element.
const Base = 8

// NewArena returns an arena with room for n elements from the boundary plus
// eight, every element drawn from fill.
func NewArena(n int, fill func() float32) Arena {
	raw := make([]float32, Base+n+8+7)
	i := 0
	for uintptr(unsafe.Pointer(&raw[i+Base]))%32 != 0 {
		i++
	}
	a := Arena{Buf: raw[i : i+Base+n+8 : i+Base+n+8]}
	for k := range a.Buf {
		a.Buf[k] = fill()
	}
	return a
}

// At returns the arena from off elements past the boundary on.
func (a Arena) At(off int) []float32 { return a.Buf[Base+off:] }

// Clone copies the arena, boundary included.
func (a Arena) Clone() Arena {
	c := NewArena(len(a.Buf)-Base-8, func() float32 { return 0 })
	copy(c.Buf, a.Buf)
	return c
}

// SameBits reports the first index at which two buffers differ as bit
// patterns; two NaNs are equal whatever their payloads (x86 returns the
// first operand's, and Go's operand order is the compiler's business).
func SameBits(want, got []float32) (int, bool) {
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) && !(want[i] != want[i] && got[i] != got[i]) {
			return i, false
		}
	}
	return 0, true
}

// Denormal draws a positive denormal.
func Denormal(rng *rand.Rand) float32 {
	return math.Float32frombits(uint32(1 + rng.Intn(1<<23-1)))
}

// HardValue draws field values in [-1,1) salted with -0, +0, denormals of
// both signs, ±Inf and NaN.
func HardValue(rng *rand.Rand) float32 {
	switch rng.Intn(24) {
	case 0:
		return float32(math.Copysign(0, -1))
	case 1:
		return 0
	case 2:
		return Denormal(rng)
	case 3:
		return -Denormal(rng)
	case 4:
		return float32(math.Inf(1 - 2*rng.Intn(2)))
	case 5:
		return float32(math.NaN())
	}
	return rng.Float32()*2 - 1
}

// RowLengths are the row lengths the row tests cover: every count of whole
// vectors and tail cells up to two vectors, and the benchmark depths.
func RowLengths() []int {
	lengths := []int{24, 96, 97}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	return lengths
}

// MaxRowOffset is the largest start offset, in floats from a 32-byte
// boundary, the row tests cover (0 through 8).
const MaxRowOffset = 8
