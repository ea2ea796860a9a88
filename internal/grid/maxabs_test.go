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

// TestMaxAbsRegionScansItsCellsAlone: over random sub-regions of three
// fields whose halos hold the largest NaN pattern, MaxAbsRegion is the Go
// loop over the region's cells — with a NaN planted inside the region or
// not, at every depth mod 8 — and the maxima of a partition's parts, folded
// as bit patterns, are MaxAbs of the whole.
func TestMaxAbsRegionScansItsCellsAlone(t *testing.T) {
	cputest.ForEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		for nz := 9; nz <= 16; nz++ {
			d := Dims{Nx: 7, Ny: 6, Nz: nz}
			var fs [3]*Field
			for c := range fs {
				fs[c] = NewField(d, DefaultHalo)
				fs[c].Fill(math.Float32frombits(0xffffffff))
				for i := 0; i < d.Nx; i++ {
					for j := 0; j < d.Ny; j++ {
						for k := 0; k < d.Nz; k++ {
							v := cputest.HardValue(rng)
							for v != v {
								v = cputest.HardValue(rng)
							}
							fs[c].Set(i, j, k, v)
						}
					}
				}
			}
			for n := 0; n < 40; n++ {
				r := Region{rng.Intn(d.Nx), 0, rng.Intn(d.Ny), 0, rng.Intn(d.Nz), 0}
				r.I1, r.J1, r.K1 = r.I0+1+rng.Intn(d.Nx-r.I0), r.J0+1+rng.Intn(d.Ny-r.J0), r.K0+1+rng.Intn(d.Nz-r.K0)
				f, i, j, k := fs[rng.Intn(3)], r.I0+rng.Intn(r.Ni()), r.J0+rng.Intn(r.Nj()), r.K0+rng.Intn(r.Nk())
				was := f.At(i, j, k)
				if n%2 == 1 {
					f.Set(i, j, k, -float32(math.NaN()))
				}
				var want uint32
				for _, f := range fs {
					for i := r.I0; i < r.I1; i++ {
						for j := r.J0; j < r.J1; j++ {
							want = maxAbsBitsGo(want, f.Row(i, j)[r.K0:r.K1])
						}
					}
				}
				if got := math.Float32bits(MaxAbsRegion(r, fs[0], fs[1], fs[2])); got != want {
					t.Fatalf("%v of %v: %#08x, Go loop %#08x", r, d, got, want)
				}
				f.Set(i, j, k, was)
			}
			box, cut := Box(d), Region{1, 4, 2, 5, 3, 8}
			var folded uint32
			for _, p := range append(box.Minus(cut), cut) {
				folded = max(folded, math.Float32bits(MaxAbsRegion(p, fs[0], fs[1], fs[2])))
			}
			if whole := math.Float32bits(MaxAbs(fs[0], fs[1], fs[2])); folded != whole {
				t.Fatalf("%v: parts fold to %#08x, the whole's is %#08x", d, folded, whole)
			}
		}
		if m := MaxAbsRegion(Region{I0: 2, I1: 2, J1: 3, K1: 3}, NewField(Dims{3, 3, 3}, 1)); m != 0 {
			t.Fatalf("an empty region's maximum is %g", m)
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
