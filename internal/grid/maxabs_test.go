package grid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"swquake/internal/cpu"
	"swquake/internal/cpu/cputest"
)

// goColumns is maxAbsPlane's definition: the Go loop over each column.
func goColumns(m uint32, a []float32, n, cols, cs int) uint32 {
	for j := 0; j < cols; j++ {
		m = maxAbsBitsGo(m, a[j*cs:][:n])
	}
	return m
}

// TestMaxAbsBitsMatchesGoLoop holds maxAbsPlane — the assembly for the whole
// vectors of every column plus the Go loop for each column's tail, or the
// Go loop alone — to the Go loop run column by column, over every row length
// and start offset the row tests cover, one column and several, columns
// back to back and three cells apart, on rows of hard values (-0,
// denormals, ±Inf, NaN) and on rows without NaN, whose maximum is then an
// ordinary |v|. The cells between columns hold the largest NaN pattern, so
// a scan that strays into them shows; nothing is written.
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
		const maxCols, gap = 5, 3
		stray := math.Float32frombits(0xffffffff)
		for name, fill := range fills {
			a := cputest.NewArena(maxCols*(97+gap)+cputest.MaxRowOffset, fill)
			for _, n := range cputest.RowLengths() {
				for _, cols := range []int{1, 2, maxCols} {
					for _, cs := range []int{n, n + gap} {
						for off := 0; off <= cputest.MaxRowOffset; off++ {
							plane := a.Clone()
							p := plane.At(off)
							for j := 0; j < cols-1; j++ {
								for q := j*cs + n; q < (j+1)*cs; q++ {
									p[q] = stray
								}
							}
							before := plane.Clone()
							for _, m := range []uint32{0, math.Float32bits(0.25), math.Float32bits(float32(math.Inf(1)))} {
								want, got := goColumns(m, p, n, cols, cs), maxAbsPlane(m, p, n, cols, cs)
								if want != got {
									t.Fatalf("%s n=%d cols=%d cs=%d off=%d m=%#08x: %#08x, Go loop %#08x", name, n, cols, cs, off, m, got, want)
								}
								if (name == "zeros" || name == "-zeros") && got != m {
									t.Fatalf("%s n=%d cols=%d cs=%d off=%d: a plane of zeros raised the maximum %#08x to %#08x",
										name, n, cols, cs, off, m, got)
								}
							}
							if i, ok := cputest.SameBits(before.Buf, plane.Buf); !ok {
								t.Fatalf("%s n=%d cols=%d: the scan wrote arena index %d", name, n, cols, i)
							}
						}
					}
				}
			}
		}
	})
}

// TestMaxAbsBitsNaNWinsAtEveryLane: in a plane of three columns, each two
// vectors and a three-cell tail, holding +Inf everywhere else, a NaN of
// either sign wins wherever it sits — the integer order of the sign-cleared
// patterns, which a signed maximum or a float compare would both get wrong.
func TestMaxAbsBitsNaNWinsAtEveryLane(t *testing.T) {
	cputest.ForEachKernelPath(t, func(t *testing.T) {
		const n, cols = 19, 3
		inf := float32(math.Inf(1))
		for _, nan := range []float32{float32(math.NaN()), -float32(math.NaN()),
			math.Float32frombits(0xffffffff)} {
			for pos := 0; pos < n*cols; pos++ {
				a := cputest.NewArena(n*cols, func() float32 { return inf })
				p := a.At(0)
				p[pos] = nan
				got := maxAbsPlane(0, p, n, cols, n)
				if want := math.Float32bits(nan) &^ (1 << 31); got != want {
					t.Fatalf("NaN %#08x at %d: maximum %#08x, want %#08x", math.Float32bits(nan), pos, got, want)
				}
			}
		}
	})
}

// TestRowOperandsAreBoundsChecked: a plane too short for the cells its last
// column names panics in Go's slice checks on either path, before the
// assembly runs.
func TestRowOperandsAreBoundsChecked(t *testing.T) {
	cputest.ForEachKernelPath(t, func(t *testing.T) {
		const n, cols, cs = 16, 3, 20
		defer func() {
			if recover() == nil {
				t.Fatal("a short plane did not panic")
			}
		}()
		maxAbsPlane(0, make([]float32, (cols-1)*cs+n-1), n, cols, cs)
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
