package fd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"swquake/internal/grid"
	"swquake/internal/model"
)

// kernelPaths lists the settings of useAVX2 this build and CPU can run: the
// Go rows always, the assembly rows where they exist.
func kernelPaths() []bool {
	if haveAVX2() {
		return []bool{false, true}
	}
	return []bool{false}
}

// forEachKernelPath runs f on every row path, so the fallback other hosts
// run is exercised on this one. Not for parallel tests: it sets the
// package's dispatch variable.
func forEachKernelPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	was := useAVX2
	defer func() { useAVX2 = was }()
	for _, on := range kernelPaths() {
		useAVX2 = on
		t.Run(KernelPath(), f)
	}
}

// arena is a float32 buffer with a known 32-byte boundary inside it, so a
// row can be made to start at a chosen offset from that boundary. The
// elements before the boundary and after a row are the canaries.
type arena struct {
	buf  []float32
	base int // buf[base] is 32-byte aligned and has 8 elements before it
}

func newArena(n int, fill func() float32) arena {
	a := arena{buf: make([]float32, n+24)}
	for a.base = 8; uintptr(unsafe.Pointer(&a.buf[a.base]))%32 != 0; a.base++ {
	}
	for i := range a.buf {
		a.buf[i] = fill()
	}
	return a
}

// at returns the arena from off elements past the boundary on.
func (a arena) at(off int) []float32 { return a.buf[a.base+off:] }

func (a arena) clone() arena {
	return arena{buf: append([]float32(nil), a.buf...), base: a.base}
}

// sameBits reports the first index at which two buffers differ as bit
// patterns; two NaNs are equal whatever their payloads (x86 returns the
// first operand's, and Go's operand order is the compiler's business).
func sameBits(want, got []float32) (int, bool) {
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) && !(want[i] != want[i] && got[i] != got[i]) {
			return i, false
		}
	}
	return 0, true
}

// hardValue draws field values in [-1,1) salted with -0, +0, denormals of
// both signs, ±Inf and NaN.
func hardValue(rng *rand.Rand) float32 {
	switch rng.Intn(24) {
	case 0:
		return float32(math.Copysign(0, -1))
	case 1:
		return 0
	case 2:
		return denormal(rng)
	case 3:
		return -denormal(rng)
	case 4:
		return float32(math.Inf(1 - 2*rng.Intn(2)))
	case 5:
		return float32(math.NaN())
	}
	return rng.Float32()*2 - 1
}

// hardRecipMu draws reciprocal shear moduli: rock, fluid (1/0 = +Inf) and
// denormal-mu cells, whose reciprocal is huge or overflows to +Inf.
func hardRecipMu(rng *rand.Rand) float32 {
	switch rng.Intn(8) {
	case 0:
		return float32(math.Inf(1))
	case 1:
		return 1 / denormal(rng)
	}
	return 1 / (1e9 + 4e10*rng.Float32())
}

// rowShapes calls f for every row length, every start offset from a 32-byte
// boundary and every pair of derivative strides (z, a quickstart-sized sy
// and sx) the row tests cover.
func rowShapes(f func(n, off, as, bs int)) {
	lengths := []int{24, 96, 97}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	strides := []int{1, 28, 28 * 36}
	for _, n := range lengths {
		for off := 0; off <= 8; off++ {
			for _, as := range strides {
				for _, bs := range strides {
					f(n, off, as, bs)
				}
			}
		}
	}
}

const rowArenaLen = 3*28*36 + 97 + 16

// TestRowsMatchGoRows holds each *RowAt function — the assembly for the
// whole vectors of a row plus the Go row for its tail, or the Go row alone —
// to the Go row called on the same taps, bit for bit, including the cells
// around the row that must not be written.
func TestRowsMatchGoRows(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(17))
		field := func() float32 { return hardValue(rng) }
		var in [6]arena
		for i := range in {
			in[i] = newArena(rowArenaLen, field)
		}
		// densities: rock in r0, hard values in r1, so that the averaged
		// density is also zero, denormal, infinite and NaN in some lanes
		r0 := newArena(rowArenaLen, func() float32 { return 2000 * rng.Float32() })
		r1 := newArena(rowArenaLen, field)
		var rm [4]arena
		for i := range rm {
			rm[i] = newArena(rowArenaLen, func() float32 { return hardRecipMu(rng) })
		}
		lam := newArena(rowArenaLen, func() float32 { return 5e10 * rng.Float32() })
		mu := newArena(rowArenaLen, func() float32 {
			if rng.Intn(8) == 0 {
				return denormal(rng)
			}
			return 4e10 * rng.Float32()
		})
		// dt/dx sized so that an update is of the order of the value it is
		// added to: the final add then rounds, and a fused multiply-add or
		// a reordered product shows
		const dtdxV, dtdxS = float32(1e3), float32(2e-11)
		check := func(kernel string, n, off, as, bs int, want, got []arena) {
			t.Helper()
			for c := range want {
				if i, ok := sameBits(want[c].buf, got[c].buf); !ok {
					t.Fatalf("%s n=%d off=%d strides %d,%d: output %d differs at arena index %d (boundary at %d): %g (%#08x), Go row %g (%#08x)",
						kernel, n, off, as, bs, c, i, want[c].base, got[c].buf[i], math.Float32bits(got[c].buf[i]),
						want[c].buf[i], math.Float32bits(want[c].buf[i]))
				}
			}
		}

		rowShapes(func(n, off, as, bs int) {
			// operands start at different offsets from their boundaries
			o := func(k int) int { return (off + 3*k) % 9 }

			want, got := []arena{in[0].clone()}, []arena{in[0].clone()}
			a, b, c := in[1].at(o(1)), in[2].at(o(2)), in[3].at(o(3))
			velocityRow(want[0].at(off)[:n], dtdxV, r0.at(o(4)), r1.at(o(5)),
				a[2*as:], a[as:], a[3*as:], a, b[2*bs:], b[bs:], b[3*bs:], b, c[2:], c[1:], c[3:], c)
			velocityRowAt(got[0].at(off)[:n], dtdxV, r0.at(o(4)), r1.at(o(5)), a, as, b, bs, c)
			check("velocity", n, off, as, bs, want, got)

			want, got = []arena{in[0].clone()}, []arena{in[0].clone()}
			stressShearRow(want[0].at(off)[:n], dtdxS, rm[0].at(o(4)), rm[1].at(o(5)), rm[2].at(o(6)), rm[3].at(o(7)),
				a[2*as:], a[as:], a[3*as:], a, b[2*bs:], b[bs:], b[3*bs:], b)
			stressShearRowAt(got[0].at(off)[:n], dtdxS, rm[0].at(o(4)), rm[1].at(o(5)), rm[2].at(o(6)), rm[3].at(o(7)), a, as, b, bs)
			check("shear", n, off, as, bs, want, got)

			want = []arena{in[0].clone(), in[4].clone(), in[5].clone()}
			got = []arena{in[0].clone(), in[4].clone(), in[5].clone()}
			stressDiagRow(want[0].at(off)[:n], want[1].at(o(8)), want[2].at(o(9)), dtdxS, lam.at(o(4)), mu.at(o(5)),
				a[2*as:], a[as:], a[3*as:], a, b[2*bs:], b[bs:], b[3*bs:], b, c[2:], c[1:], c[3:], c)
			stressDiagRowAt(got[0].at(off)[:n], got[1].at(o(8)), got[2].at(o(9)), dtdxS, lam.at(o(4)), mu.at(o(5)), a, as, b, bs, c)
			check("diagonal", n, off, as, bs, want, got)
		})
	})
}

// TestRowOperandsAreBoundsChecked: a row whose operand is too short for the
// taps it names panics in Go's slice checks on either path, before any
// assembly runs.
func TestRowOperandsAreBoundsChecked(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		full := func() []float32 { return make([]float32, 3*5+16) }
		out := make([]float32, 16)
		short := make([]float32, 3*5+15)
		mustPanic(t, "velocity row with a short derivative", func() {
			velocityRowAt(out, 1, full(), full(), short, 5, full(), 5, full())
		})
		mustPanic(t, "velocity row with a short density", func() {
			velocityRowAt(out, 1, full()[:15:15], full(), full(), 5, full(), 5, full())
		})
		mustPanic(t, "shear row with a short reciprocal", func() {
			stressShearRowAt(out, 1, full(), full(), full(), full()[:15:15], full(), 5, full(), 5)
		})
		mustPanic(t, "diagonal row with a short z derivative", func() {
			stressDiagRowAt(out, full(), full(), 1, full(), full(), full(), 5, full(), 5, make([]float32, 18))
		})
	})
}

// BenchmarkSweepRows times the velocity and stress sweeps per grid point on
// the L2-resident service-job grid and the DRAM-resident solver grid, once
// per row path this host can run; -benchmem shows the row dispatch
// allocates nothing.
func BenchmarkSweepRows(b *testing.B) {
	was := useAVX2
	defer func() { useAVX2 = was }()
	for _, d := range []grid.Dims{{Nx: 32, Ny: 32, Nz: 24}, {Nx: 192, Ny: 192, Nz: 96}} {
		med := homogeneousMedium(d, model.Material{Vp: 5000, Vs: 2887, Rho: 2700})
		wf := NewWavefield(d)
		randomizeWavefield(wf, 1)
		box := grid.Box(d)
		for _, k := range []struct {
			name string
			run  func()
		}{
			{"velocity", func() { UpdateVelocityRegion(wf, med, 1e-3, box) }},
			{"stress", func() { UpdateStressRegion(wf, med, 1e-3, box) }},
		} {
			for _, on := range kernelPaths() {
				useAVX2 = on
				b.Run(fmt.Sprintf("%s/%dx%dx%d/%s", k.name, d.Nx, d.Ny, d.Nz, KernelPath()), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						k.run()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(d.Points()), "ns/point")
				})
			}
		}
	}
}
