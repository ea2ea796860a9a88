package fd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"swquake/internal/cpu"
	"swquake/internal/cpu/cputest"
	"swquake/internal/grid"
	"swquake/internal/model"
)

// forEachKernelPath runs f on every row path this build and CPU can run.
var forEachKernelPath = cputest.ForEachKernelPath

// hardRecipMu draws reciprocal shear moduli: rock, fluid (1/0 = +Inf) and
// denormal-mu cells, whose reciprocal is huge or overflows to +Inf.
func hardRecipMu(rng *rand.Rand) float32 {
	switch rng.Intn(8) {
	case 0:
		return float32(math.Inf(1))
	case 1:
		return 1 / cputest.Denormal(rng)
	}
	return 1 / (1e9 + 4e10*rng.Float32())
}

// rowShapes calls f for every row length, every start offset from a 32-byte
// boundary and every pair of derivative strides (z, a quickstart-sized sy
// and sx) the row tests cover.
func rowShapes(f func(n, off, as, bs int)) {
	strides := []int{1, 28, 28 * 36}
	for _, n := range cputest.RowLengths() {
		for off := 0; off <= cputest.MaxRowOffset; off++ {
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
		field := func() float32 { return cputest.HardValue(rng) }
		var in [6]cputest.Arena
		for i := range in {
			in[i] = cputest.NewArena(rowArenaLen, field)
		}
		// densities: rock in r0, hard values in r1, so that the averaged
		// density is also zero, denormal, infinite and NaN in some lanes
		r0 := cputest.NewArena(rowArenaLen, func() float32 { return 2000 * rng.Float32() })
		r1 := cputest.NewArena(rowArenaLen, field)
		var rm [4]cputest.Arena
		for i := range rm {
			rm[i] = cputest.NewArena(rowArenaLen, func() float32 { return hardRecipMu(rng) })
		}
		lam := cputest.NewArena(rowArenaLen, func() float32 { return 5e10 * rng.Float32() })
		mu := cputest.NewArena(rowArenaLen, func() float32 {
			if rng.Intn(8) == 0 {
				return cputest.Denormal(rng)
			}
			return 4e10 * rng.Float32()
		})
		// dt/dx sized so that an update is of the order of the value it is
		// added to: the final add then rounds, and a fused multiply-add or
		// a reordered product shows
		const dtdxV, dtdxS = float32(1e3), float32(2e-11)
		check := func(kernel string, n, off, as, bs int, want, got []cputest.Arena) {
			t.Helper()
			for c := range want {
				if i, ok := cputest.SameBits(want[c].Buf, got[c].Buf); !ok {
					t.Fatalf("%s n=%d off=%d strides %d,%d: output %d differs at arena index %d (boundary at %d): %g (%#08x), Go row %g (%#08x)",
						kernel, n, off, as, bs, c, i, cputest.Base, got[c].Buf[i], math.Float32bits(got[c].Buf[i]),
						want[c].Buf[i], math.Float32bits(want[c].Buf[i]))
				}
			}
		}

		rowShapes(func(n, off, as, bs int) {
			// operands start at different offsets from their boundaries
			o := func(k int) int { return (off + 3*k) % 9 }

			want, got := []cputest.Arena{in[0].Clone()}, []cputest.Arena{in[0].Clone()}
			a, b, c := in[1].At(o(1)), in[2].At(o(2)), in[3].At(o(3))
			velocityRow(want[0].At(off)[:n], dtdxV, r0.At(o(4)), r1.At(o(5)),
				a[2*as:], a[as:], a[3*as:], a, b[2*bs:], b[bs:], b[3*bs:], b, c[2:], c[1:], c[3:], c)
			velocityRowAt(got[0].At(off)[:n], dtdxV, r0.At(o(4)), r1.At(o(5)), a, as, b, bs, c)
			check("velocity", n, off, as, bs, want, got)

			want, got = []cputest.Arena{in[0].Clone()}, []cputest.Arena{in[0].Clone()}
			stressShearRow(want[0].At(off)[:n], dtdxS, rm[0].At(o(4)), rm[1].At(o(5)), rm[2].At(o(6)), rm[3].At(o(7)),
				a[2*as:], a[as:], a[3*as:], a, b[2*bs:], b[bs:], b[3*bs:], b)
			stressShearRowAt(got[0].At(off)[:n], dtdxS, rm[0].At(o(4)), rm[1].At(o(5)), rm[2].At(o(6)), rm[3].At(o(7)), a, as, b, bs)
			check("shear", n, off, as, bs, want, got)

			want = []cputest.Arena{in[0].Clone(), in[4].Clone(), in[5].Clone()}
			got = []cputest.Arena{in[0].Clone(), in[4].Clone(), in[5].Clone()}
			stressDiagRow(want[0].At(off)[:n], want[1].At(o(8)), want[2].At(o(9)), dtdxS, lam.At(o(4)), mu.At(o(5)),
				a[2*as:], a[as:], a[3*as:], a, b[2*bs:], b[bs:], b[3*bs:], b, c[2:], c[1:], c[3:], c)
			stressDiagRowAt(got[0].At(off)[:n], got[1].At(o(8)), got[2].At(o(9)), dtdxS, lam.At(o(4)), mu.At(o(5)), a, as, b, bs, c)
			check("diagonal", n, off, as, bs, want, got)

			if as != 1 || bs != 1 {
				return // the rows below take no stride: once per length and offset
			}
			// factors are hard values too: a damping factor of -0, a
			// denormal, ±Inf or NaN must give the Go row's product
			six := func() []cputest.Arena {
				var c []cputest.Arena
				for _, a := range in {
					c = append(c, a.Clone())
				}
				return c
			}
			want, got = six(), six()
			attenuationRow(r1.At(o(4))[:n], rm[0].At(o(5)), want[0].At(off), want[1].At(o(1)), want[2].At(o(2)),
				want[3].At(o(3)), want[4].At(o(6)), want[5].At(o(7)))
			attenuationRowAt(r1.At(o(4))[:n], rm[0].At(o(5)), got[0].At(off), got[1].At(o(1)), got[2].At(o(2)),
				got[3].At(o(3)), got[4].At(o(6)), got[5].At(o(7)))
			check("attenuation", n, off, as, bs, want, got)

			// both factor operands one shared row: what factors stored below
			// full rank hand the row, for every column
			want, got = six(), six()
			g := r1.At(o(4))
			attenuationRow(g[:n], g, want[0].At(off), want[1].At(o(1)), want[2].At(o(2)),
				want[3].At(o(3)), want[4].At(o(6)), want[5].At(o(7)))
			attenuationRowAt(g[:n], g, got[0].At(off), got[1].At(o(1)), got[2].At(o(2)),
				got[3].At(o(3)), got[4].At(o(6)), got[5].At(o(7)))
			check("attenuation, shared factor row", n, off, as, bs, want, got)

			want, got = []cputest.Arena{in[0].Clone()}, []cputest.Arena{in[0].Clone()}
			scaleRow(want[0].At(off)[:n], r1.At(o(4)))
			scaleRowAt(got[0].At(off)[:n], r1.At(o(4)))
			check("scale", n, off, as, bs, want, got)
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
		mustPanic(t, "attenuation row with a short stress", func() {
			attenuationRowAt(out, full(), full(), full(), full(), full(), full(), full()[:15:15])
		})
		mustPanic(t, "scale row with a short factor", func() {
			scaleRowAt(out, full()[:15:15])
		})
	})
}

// BenchmarkSweepRows times the fd sweeps per grid point on the L2-resident
// service-job grid and the DRAM-resident solver grid, once per row path this
// host can run; -benchmem shows the row dispatch allocates nothing. The
// plasticity and max-abs rows have the same benchmark in their own packages.
func BenchmarkSweepRows(b *testing.B) {
	was := cpu.AVX2
	defer func() { cpu.AVX2 = was }()
	for _, d := range []grid.Dims{{Nx: 32, Ny: 32, Nz: 24}, {Nx: 192, Ny: 192, Nz: 96}} {
		med := homogeneousMedium(d, model.Material{Vp: 5000, Vs: 2887, Rho: 2700})
		att := NewAttenuation(d, ConstantQ{Qp: 100, Qs: 50}, 2, 1e-3)
		sponge := NewSponge(d.Nx, d.Ny, d.Nz, 5, 0.08)
		wf := NewWavefield(d)
		randomizeWavefield(wf, 1)
		fields, fresh := wf.AllFields(), wf.Clone().AllFields()
		box := grid.Box(d)
		for _, k := range []struct {
			name string
			run  func()
			// decays: repeated sweeps drive the fields into denormals, whose
			// arithmetic is many times slower — start again from fresh values
			// every 32nd sweep (inside the timer: a few percent of a sweep)
			decays bool
		}{
			{"velocity", func() { UpdateVelocityRegion(wf, med, 1e-3, box) }, false},
			{"stress", func() { UpdateStressRegion(wf, med, 1e-3, box) }, false},
			{"attenuation", func() { att.ApplyRegion(wf, box) }, false},
			{"sponge", func() { sponge.ApplyRegion(wf, box) }, true},
		} {
			for _, on := range cputest.KernelPaths() {
				cpu.AVX2 = on
				b.Run(fmt.Sprintf("%s/%dx%dx%d/%s", k.name, d.Nx, d.Ny, d.Nz, cpu.KernelPath()), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if k.decays && i%32 == 0 {
							for c, f := range fields {
								f.CopyFrom(fresh[c])
							}
						}
						k.run()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(d.Points()), "ns/point")
				})
			}
		}
	}
}
