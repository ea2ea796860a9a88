package grid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"swquake/internal/cpu"
	"swquake/internal/cpu/cputest"
)

// TestMaxAbsBitsMatchesGoLoop holds maxAbsBits — the assembly for the whole
// vectors of a row plus the Go loop for its tail, or the Go loop alone — to
// the Go loop, over every row length and start offset the row tests cover,
// on rows of hard values (-0, denormals, ±Inf, NaN) and on rows without
// NaN, whose maximum is then an ordinary |v|; the row is only read.
func TestMaxAbsBitsMatchesGoLoop(t *testing.T) {
	cputest.ForEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		fills := map[string]func() float32{
			"hard": func() float32 { return cputest.HardValue(rng) },
			"finite": func() float32 {
				for {
					if v := cputest.HardValue(rng); v == v && !math.IsInf(float64(v), 0) {
						return v
					}
				}
			},
			"zeros":  func() float32 { return 0 },
			"-zeros": func() float32 { return float32(math.Copysign(0, -1)) },
		}
		for name, fill := range fills {
			a := cputest.NewArena(97+cputest.MaxRowOffset, fill)
			before := a.Clone()
			for _, n := range cputest.RowLengths() {
				for off := 0; off <= cputest.MaxRowOffset; off++ {
					for _, m := range []uint32{0, math.Float32bits(0.25), math.Float32bits(float32(math.Inf(1)))} {
						row := a.At(off)[:n]
						want, got := maxAbsBitsGo(m, row), maxAbsBits(m, row)
						if want != got {
							t.Fatalf("%s n=%d off=%d m=%#08x: %#08x, Go loop %#08x", name, n, off, m, got, want)
						}
						if (name == "zeros" || name == "-zeros") && got != m {
							t.Fatalf("%s n=%d off=%d: a row of zeros raised the maximum %#08x to %#08x", name, n, off, m, got)
						}
					}
				}
			}
			if i, ok := cputest.SameBits(before.Buf, a.Buf); !ok {
				t.Fatalf("%s: the scan wrote arena index %d", name, i)
			}
		}
	})
}

// TestMaxAbsBitsNaNWinsAtEveryLane: in a row of two vectors and a three-cell
// tail holding +Inf everywhere else, a NaN of either sign wins wherever it
// sits — the integer order of the sign-cleared patterns, which a signed
// maximum or a float compare would both get wrong.
func TestMaxAbsBitsNaNWinsAtEveryLane(t *testing.T) {
	cputest.ForEachKernelPath(t, func(t *testing.T) {
		const n = 19
		inf := float32(math.Inf(1))
		for _, nan := range []float32{float32(math.NaN()), -float32(math.NaN()),
			math.Float32frombits(0xffffffff)} {
			for pos := 0; pos < n; pos++ {
				a := cputest.NewArena(n, func() float32 { return inf })
				row := a.At(0)[:n]
				row[pos] = nan
				got := maxAbsBits(0, row)
				if want := math.Float32bits(nan) &^ (1 << 31); got != want {
					t.Fatalf("NaN %#08x at %d: maximum %#08x, want %#08x", math.Float32bits(nan), pos, got, want)
				}
			}
		}
	})
}

// BenchmarkSweepRows times the divergence scan (MaxAbs over three fields)
// per grid point on the L2-resident service-job grid and the DRAM-resident
// solver grid, once per row path this host can run.
func BenchmarkSweepRows(b *testing.B) {
	was := cpu.AVX2
	defer func() { cpu.AVX2 = was }()
	for _, d := range []Dims{{Nx: 32, Ny: 32, Nz: 24}, {Nx: 192, Ny: 192, Nz: 96}} {
		rng := rand.New(rand.NewSource(7))
		var f [3]*Field
		for c := range f {
			f[c] = NewField(d, DefaultHalo)
			for i := range f[c].Data {
				f[c].Data[i] = rng.Float32()*2 - 1
			}
		}
		for _, on := range cputest.KernelPaths() {
			cpu.AVX2 = on
			b.Run(fmt.Sprintf("max-abs/%dx%dx%d/%s", d.Nx, d.Ny, d.Nz, cpu.KernelPath()), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if m := MaxAbs(f[0], f[1], f[2]); !(m > 0.99) {
						b.Fatalf("MaxAbs = %g", m)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(d.Points()), "ns/point")
			})
		}
	}
}
