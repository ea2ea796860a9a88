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
// boundary, one column and three, and every pair of derivative strides (z,
// a quickstart-sized sy and sx) the row tests cover. Three columns sit
// n+3 cells apart, so the cells between them are canaries too.
func rowShapes(f func(pl plane, off, as, bs int)) {
	strides := []int{1, 28, 28 * 36}
	for _, n := range cputest.RowLengths() {
		for off := 0; off <= cputest.MaxRowOffset; off++ {
			for _, cols := range []int{1, 3} {
				for _, as := range strides {
					for _, bs := range strides {
						f(plane{n: n, cols: cols, cs: n + 3}, off, as, bs)
					}
				}
			}
		}
	}
}

const rowArenaLen = 3*28*36 + 3*(97+3) + 16

// goRows runs row on each column of a plane: the Go row alone, column by
// column, which is what the plane functions must reproduce bit for bit.
func goRows(pl plane, row func(q int)) {
	for j := 0; j < pl.cols; j++ {
		row(j * pl.cs)
	}
}

// TestRowsMatchGoRows holds each plane function — the assembly for the
// whole vectors of every column plus the Go row for each column's tail, or
// the Go rows alone — to the Go row called column by column on the same
// taps, bit for bit, including the cells around and between the columns
// that must not be written.
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
		check := func(kernel string, pl plane, off, as, bs int, want, got []cputest.Arena) {
			t.Helper()
			for c := range want {
				if i, ok := cputest.SameBits(want[c].Buf, got[c].Buf); !ok {
					t.Fatalf("%s %+v off=%d strides %d,%d: output %d differs at arena index %d (boundary at %d): %g (%#08x), Go row %g (%#08x)",
						kernel, pl, off, as, bs, c, i, cputest.Base, got[c].Buf[i], math.Float32bits(got[c].Buf[i]),
						want[c].Buf[i], math.Float32bits(want[c].Buf[i]))
				}
			}
		}

		rowShapes(func(pl plane, off, as, bs int) {
			n := pl.n
			// operands start at different offsets from their boundaries
			o := func(k int) int { return (off + 3*k) % 9 }

			want, got := []cputest.Arena{in[0].Clone()}, []cputest.Arena{in[0].Clone()}
			a, b, c := in[1].At(o(1)), in[2].At(o(2)), in[3].At(o(3))
			goRows(pl, func(q int) {
				velocityRow(want[0].At(off)[q:][:n], dtdxV, r0.At(o(4))[q:], r1.At(o(5))[q:],
					a[q+2*as:], a[q+as:], a[q+3*as:], a[q:], b[q+2*bs:], b[q+bs:], b[q+3*bs:], b[q:], c[q+2:], c[q+1:], c[q+3:], c[q:])
			})
			velocityPlane(pl, got[0].At(off), dtdxV, r0.At(o(4)), r1.At(o(5)), a, as, b, bs, c)
			check("velocity", pl, off, as, bs, want, got)

			want, got = []cputest.Arena{in[0].Clone()}, []cputest.Arena{in[0].Clone()}
			goRows(pl, func(q int) {
				stressShearRow(want[0].At(off)[q:][:n], dtdxS, rm[0].At(o(4))[q:], rm[1].At(o(5))[q:], rm[2].At(o(6))[q:], rm[3].At(o(7))[q:],
					a[q+2*as:], a[q+as:], a[q+3*as:], a[q:], b[q+2*bs:], b[q+bs:], b[q+3*bs:], b[q:])
			})
			stressShearPlane(pl, got[0].At(off), dtdxS, rm[0].At(o(4)), rm[1].At(o(5)), rm[2].At(o(6)), rm[3].At(o(7)), a, as, b, bs)
			check("shear", pl, off, as, bs, want, got)

			want = []cputest.Arena{in[0].Clone(), in[4].Clone(), in[5].Clone()}
			got = []cputest.Arena{in[0].Clone(), in[4].Clone(), in[5].Clone()}
			goRows(pl, func(q int) {
				stressDiagRow(want[0].At(off)[q:][:n], want[1].At(o(8))[q:], want[2].At(o(9))[q:], dtdxS, lam.At(o(4))[q:], mu.At(o(5))[q:],
					a[q+2*as:], a[q+as:], a[q+3*as:], a[q:], b[q+2*bs:], b[q+bs:], b[q+3*bs:], b[q:], c[q+2:], c[q+1:], c[q+3:], c[q:])
			})
			stressDiagPlane(pl, got[0].At(off), got[1].At(o(8)), got[2].At(o(9)), dtdxS, lam.At(o(4)), mu.At(o(5)), a, as, b, bs, c)
			check("diagonal", pl, off, as, bs, want, got)

			if as != 1 || bs != 1 {
				return // the planes below take no tap stride: once per shape and offset
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
			// factor column strides: the stresses' (full fields) and 0 (both,
			// or one of them, stored as a profile: one shared row)
			for _, fs := range [][2]int{{pl.cs, pl.cs}, {0, 0}, {pl.cs, 0}, {0, pl.cs}} {
				gp, gs := r1.At(o(4)), rm[0].At(o(5))
				want, got = six(), six()
				goRows(pl, func(q int) {
					j := q / pl.cs
					attenuationRow(gp[j*fs[0]:][:n], gs[j*fs[1]:], want[0].At(off)[q:], want[1].At(o(1))[q:], want[2].At(o(2))[q:],
						want[3].At(o(3))[q:], want[4].At(o(6))[q:], want[5].At(o(7))[q:])
				})
				attenuationPlane(pl, gp, fs[0], gs, fs[1], got[0].At(off), got[1].At(o(1)), got[2].At(o(2)),
					got[3].At(o(3)), got[4].At(o(6)), got[5].At(o(7)))
				check(fmt.Sprintf("attenuation, factor strides %v", fs), pl, off, as, bs, want, got)

				f := r1.At(o(4))
				want, got = []cputest.Arena{in[0].Clone()}, []cputest.Arena{in[0].Clone()}
				goRows(pl, func(q int) { scaleRow(want[0].At(off)[q:][:n], f[q/pl.cs*fs[0]:]) })
				scalePlane(pl, got[0].At(off), f, fs[0])
				check(fmt.Sprintf("scale, factor stride %d", fs[0]), pl, off, as, bs, want, got)
			}
		})
	})
}

// TestRowOperandsAreBoundsChecked: a plane whose operand is too short for
// the taps its last column names panics in Go's slice checks on either path,
// before any assembly runs — for every plane function, a derivative, a
// plain operand, a factor shared by every column (stride 0), and a column
// that ends in a masked tail.
func TestRowOperandsAreBoundsChecked(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		pl := plane{n: 16, cols: 3, cs: 20}
		span := (pl.cols-1)*pl.cs + pl.n
		full := func() []float32 { return make([]float32, 3*5+span) }
		out := make([]float32, span)
		short := make([]float32, 3*5+span-1)
		mustPanic(t, "velocity plane with a short derivative", func() {
			velocityPlane(pl, out, 1, full(), full(), short, 5, full(), 5, full())
		})
		mustPanic(t, "velocity plane with a short density", func() {
			velocityPlane(pl, out, 1, make([]float32, span-1), full(), full(), 5, full(), 5, full())
		})
		mustPanic(t, "shear plane with a short reciprocal", func() {
			stressShearPlane(pl, out, 1, full(), full(), full(), make([]float32, span-1), full(), 5, full(), 5)
		})
		mustPanic(t, "diagonal plane with a short z derivative", func() {
			stressDiagPlane(pl, out, full(), full(), 1, full(), full(), full(), 5, full(), 5, make([]float32, 3+span-1))
		})
		mustPanic(t, "diagonal plane with a short output", func() {
			stressDiagPlane(pl, out, make([]float32, span-1), full(), 1, full(), full(), full(), 5, full(), 5, full())
		})
		mustPanic(t, "attenuation plane with a short stress", func() {
			attenuationPlane(pl, full(), pl.cs, full(), pl.cs, out, full(), full(), full(), full(), make([]float32, span-1))
		})
		mustPanic(t, "attenuation plane with a short shared factor row", func() {
			attenuationPlane(pl, full(), 0, make([]float32, pl.n-1), 0, out, full(), full(), full(), full(), full())
		})
		mustPanic(t, "scale plane with a short factor", func() {
			scalePlane(pl, out, make([]float32, span-1), pl.cs)
		})
		mustPanic(t, "scale plane with a short shared factor row", func() {
			scalePlane(pl, out, make([]float32, pl.n-1), 0)
		})
		tail := plane{n: 13, cols: 3, cs: 20} // one vector and a 5-cell masked tail
		mustPanic(t, "scale plane with a short field in the masked tail", func() {
			scalePlane(tail, make([]float32, 2*20+13-1), full(), 0)
		})
	})
}

// sameBitsNaN compares every value of every field, halos included, as bit
// patterns, except that two NaNs are equal whatever their payloads (see
// cputest.SameBits).
func sameBitsNaN(a, b *Wavefield) error {
	for c, fa := range a.AllFields() {
		if i, ok := cputest.SameBits(fa.Data, b.AllFields()[c].Data); !ok {
			return fmt.Errorf("field %d differs at flat index %d: %g (%#08x) vs %g (%#08x)", c, i,
				fa.Data[i], math.Float32bits(fa.Data[i]), b.AllFields()[c].Data[i], math.Float32bits(b.AllFields()[c].Data[i]))
		}
	}
	return nil
}

// randomSubRegions draws sub-regions of d: every depth from 1 cell to all
// of them (so every depth modulo 8, whole vectors with and without a tail)
// at a random K0, each over random x and y ranges — one column in a
// quarter of them — that start anywhere, J0 != 0 included.
func randomSubRegions(d grid.Dims, rng *rand.Rand) []grid.Region {
	span := func(n int) (int, int) {
		a, b := rng.Intn(n), rng.Intn(n)
		if a > b {
			a, b = b, a
		}
		return a, b + 1
	}
	var regs []grid.Region
	for n := 1; n <= d.Nz; n++ {
		for rep := 0; rep < 2; rep++ {
			var r grid.Region
			r.K0 = rng.Intn(d.Nz - n + 1)
			r.K1 = r.K0 + n
			r.I0, r.I1 = span(d.Nx)
			r.J0, r.J1 = span(d.Ny)
			if rng.Intn(4) == 0 {
				r.J1 = r.J0 + 1
			}
			regs = append(regs, r)
		}
	}
	return regs
}

// TestPlaneEntriesMatchGoRows holds every fd plane entry — the assembly —
// to the Go rows, bit for bit: each kernel runs over random sub-regions
// (randomSubRegions) with cpu.AVX2 on and off, on fields holding -0,
// denormals, ±Inf and NaN and a medium with fluid and denormal-mu cells.
// The Q factors are stored as profiles (column stride 0), at full rank and
// one of each; the sponge is a whole block's and a decomposed block's, at
// widths 3 and 5 — bottom-zone rows shorter than a vector, finished with
// masked lanes — so both its runs outside the x and y zones (a shared row)
// and inside them (rows formed per column) are cut every way. Where the
// build or host has no assembly (a race build), both runs are the Go rows:
// the plane functions' fallback over the same regions, under the detector.
func TestPlaneEntriesMatchGoRows(t *testing.T) {
	paths := cputest.KernelPaths()
	fast := paths[len(paths)-1]
	defer func(was bool) { cpu.AVX2 = was }(cpu.AVX2)
	d := grid.Dims{Nx: 9, Ny: 13, Nz: 27}
	rng := rand.New(rand.NewSource(61))
	med := hardMedium(d, rng)
	constQ := NewAttenuation(d, ConstantQ{Qp: 100, Qs: 50}, 2, 1e-3)
	fullQ := NewAttenuation(d, VsScaledQ{Med: med}, 2, 0.004)
	const dtdxV, dtdxS = float32(1e3), float32(2e-11)
	type kernel struct {
		name string
		run  func(wf *Wavefield, r grid.Region)
	}
	kernels := []kernel{
		{"velocity", func(wf *Wavefield, r grid.Region) { UpdateVelocityRegion(wf, med, dtdxV, r) }},
		{"stress", func(wf *Wavefield, r grid.Region) { UpdateStressRegion(wf, med, dtdxS, r) }},
		{"attenuation, profiles", func(wf *Wavefield, r grid.Region) { constQ.ApplyRegion(wf, r) }},
		{"attenuation, full fields", func(wf *Wavefield, r grid.Region) { fullQ.ApplyRegion(wf, r) }},
		{"attenuation, mixed", func(wf *Wavefield, r grid.Region) {
			(&Attenuation{GP: fullQ.GP, GS: constQ.GS}).ApplyRegion(wf, r)
		}},
	}
	for _, width := range []int{3, 5} {
		whole := NewSponge(d.Nx, d.Ny, d.Nz, width, 0.08)
		block := NewSpongeGlobal(3*d.Nx, 2*d.Ny, d.Nz, width, 0.08, d.Nx, d.Ny, d.Nx, d.Ny, d.Nz)
		kernels = append(kernels,
			kernel{fmt.Sprintf("sponge w=%d", width), whole.ApplyRegion},
			kernel{fmt.Sprintf("sponge w=%d, decomposed block, velocity half", width), block.ApplyVelocityRegion})
	}
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	for _, k := range kernels {
		for _, reg := range append(randomSubRegions(d, rng), grid.Box(d)) {
			want := hardWavefield(d, rng, inf, -inf, nan)
			got := want.Clone()
			cpu.AVX2 = false
			k.run(want, reg)
			cpu.AVX2 = fast
			k.run(got, reg)
			if err := sameBitsNaN(want, got); err != nil {
				t.Fatalf("%s over %v: %v", k.name, reg, err)
			}
		}
	}
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
								copy(f.Data, fresh[c].Data)
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
