package plasticity

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"swquake/internal/cpu"
	"swquake/internal/cpu/cputest"
	"swquake/internal/fd"
	"swquake/internal/grid"
)

// rowState is the eleven operand arenas of returnMapRow: six stresses and
// five parameters.
type rowState [operands]cputest.Arena

// rowArenaLen holds three columns of the longest row the tests cover, three
// cells apart, past the largest start offset.
const rowArenaLen = 3*(97+3) + cputest.MaxRowOffset

// newRowState builds rows whose cells are elastic (stresses of a few kPa
// against a cohesion near 1 MPa) except where hard says otherwise.
func newRowState(rng *rand.Rand, hard func(c int) (float32, bool)) rowState {
	var s rowState
	for c := range s {
		c := c
		s[c] = cputest.NewArena(rowArenaLen, func() float32 {
			if v, ok := hard(c); ok {
				return v
			}
			switch {
			case c < 6: // stresses
				return (rng.Float32()*2 - 1) * 3e3
			case c == 6: // cohesion
				return 1e6 + rng.Float32()*1e6
			case c == 7: // sin phi
				return float32(math.Sin(rng.Float64() * 0.7))
			case c == 8: // cos phi
				return float32(math.Cos(rng.Float64() * 0.7))
			case c == 9: // fluid pressure
				return rng.Float32() * 1e5
			}
			return -rng.Float32() * 5e6 // lithostatic mean stress
		})
	}
	return s
}

func (s rowState) clone() rowState {
	var c rowState
	for i := range s {
		c[i] = s[i].Clone()
	}
	return c
}

// plane is the plane of cols columns of n cells, n+3 apart, whose operands
// start off floats past each arena's boundary (every operand at its own
// offset). With shared, the five parameter operands are one row — the
// cohesion arena at column stride 0 — as parameters stored below full rank
// hand the same memory to several operands and every column.
func (s rowState) plane(n, cols, off int, shared bool) *plane {
	pl := &plane{n: n, cols: cols}
	for c := range s {
		a, stride := c, n+3
		if shared && c >= 6 {
			a, stride = 6, 0
		}
		pl.op[c] = s[a].At((off + 3*a) % (cputest.MaxRowOffset + 1))
		pl.stride[c] = stride
	}
	return pl
}

// goRows runs the Go row on each column of a plane, column by column: what
// returnMapPlane must reproduce bit for bit.
func goRows(pl *plane, relax float32) int {
	yielded := 0
	for j := 0; j < pl.cols; j++ {
		var o [operands][]float32
		for c := range o {
			o[c] = pl.op[c][j*pl.stride[c]:]
		}
		yielded += returnMapRow(o[0][:pl.n], o[1], o[2], o[3], o[4], o[5], o[6], o[7], o[8], o[9], o[10], relax)
	}
	return yielded
}

// requireSameRows compares every arena of two states, canaries included.
func requireSameRows(t *testing.T, what string, want, got rowState) {
	t.Helper()
	names := []string{"xx", "yy", "zz", "xy", "xz", "yz", "cohes", "sphi", "cphi", "pf", "sig2"}
	for c := range want {
		if i, ok := cputest.SameBits(want[c].Buf, got[c].Buf); !ok {
			t.Fatalf("%s: %s differs at arena index %d (boundary at %d): %g (%#08x), Go row %g (%#08x)",
				what, names[c], i, cputest.Base, got[c].Buf[i], math.Float32bits(got[c].Buf[i]),
				want[c].Buf[i], math.Float32bits(want[c].Buf[i]))
		}
	}
}

// TestReturnMapRowMatchesGoRow holds returnMapPlane — the assembly yield
// check for the elastic groups of eight of every column plus the Go row for
// the rest, or the Go row alone — to the Go row run column by column over
// the same cells: stresses, the cells around and between the columns that
// must not be written, and the yielded count; one column and three, with
// the parameters in arenas of their own or one row shared by every column.
func TestReturnMapRowMatchesGoRow(t *testing.T) {
	cputest.ForEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		states := map[string]rowState{
			// every group of eight is elastic: the assembly does all of them
			"elastic": newRowState(rng, func(int) (float32, bool) { return 0, false }),
			// stresses salted with MPa values (cells that yield), zeros,
			// -0, denormals, ±Inf and NaN; cohesion sometimes negative (y
			// clamped to 0) and sometimes NaN
			"hard": newRowState(rng, func(c int) (float32, bool) {
				switch {
				case c < 6 && rng.Intn(16) == 0:
					return (rng.Float32()*2 - 1) * 3e6, true
				case c < 6 && rng.Intn(8) == 0:
					return cputest.HardValue(rng), true
				case c == 6 && rng.Intn(16) == 0:
					return -1e6, true
				case c == 6 && rng.Intn(32) == 0:
					return float32(math.NaN()), true
				}
				return 0, false
			}),
			// no deviator anywhere: tau == 0, elastic whatever y is
			"tau=0": newRowState(rng, func(c int) (float32, bool) {
				switch {
				case c < 3:
					return 2e3, true
				case c < 6:
					return 0, true
				case c == 6:
					return -1e6, true // y < 0
				case c == 10:
					return -3e6, true
				}
				return 0, false
			}),
		}
		for name, st := range states {
			yieldedSomewhere := false
			for _, relax := range []float32{0, 0.7} { // Tv = 0 and Tv > 0
				for _, n := range cputest.RowLengths() {
					for off := 0; off <= cputest.MaxRowOffset; off++ {
						for _, cols := range []int{1, 3} {
							for _, shared := range []bool{false, true} {
								want, got := st.clone(), st.clone()
								wantN := goRows(want.plane(n, cols, off, shared), relax)
								gotN := returnMapPlane(got.plane(n, cols, off, shared), relax)
								what := fmt.Sprintf("%s relax=%g n=%d off=%d cols=%d shared=%v", name, relax, n, off, cols, shared)
								if wantN != gotN {
									t.Fatalf("%s: %d yielded cells, Go row %d", what, gotN, wantN)
								}
								requireSameRows(t, what, want, got)
								yieldedSomewhere = yieldedSomewhere || (wantN > 0 && !shared)
							}
						}
					}
				}
			}
			if yieldedSomewhere != (name == "hard") {
				t.Fatalf("%s rows: yielded somewhere = %v", name, yieldedSomewhere)
			}
		}
	})
}

// TestOneYieldingCellAtEveryLane: in a plane of three columns, each two
// vectors and a four-cell tail, that is elastic but for one cell, that cell
// alone is returned to the yield surface wherever it sits — each lane of
// either vector of every column, and the tails — and the result is the Go
// row's: every other cell keeps its stresses, and the yielding cell's shear
// stress shrinks. The same with a NaN in place of the yielding stress: the
// group must not be passed as elastic. And the same with the parameters as
// profiles (column stride 0) followed by values that would pass any cell as
// elastic, which a profile moved by the stresses' column stride reads.
func TestOneYieldingCellAtEveryLane(t *testing.T) {
	cputest.ForEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(29))
		const n, cols = 20, 3
		full := newRowState(rng, func(int) (float32, bool) { return 0, false })
		profiles := full.clone()
		// y = cohes*cphi - (sm+pf)*sphi is huge past the row, with sm < 0
		for c, poison := range map[int]float32{6: 1e30, 7: 1e30, 8: 1e30, 9: -1e30, 10: -1e30} {
			row := profiles[c].At(3 * c % 9)
			for q := n; q < len(row); q++ {
				row[q] = poison
			}
		}
		plane := func(st rowState, profile bool) *plane {
			pl := st.plane(n, cols, 0, false)
			for c := 6; profile && c < operands; c++ {
				pl.stride[c] = 0
			}
			return pl
		}
		for _, bad := range []float32{5e6, float32(math.NaN())} {
			for j := 0; j < cols; j++ {
				for k := 0; k < n; k++ {
					for _, profile := range []bool{false, true} {
						base := full
						if profile {
							base = profiles
						}
						pos := j*(n+3) + k
						want := base.clone()
						want[3].At(3 * 3 % 9)[pos] = bad // xy, at the offset plane gives it for off = 0
						got := want.clone()
						wantN := goRows(plane(want, profile), 0)
						gotN := returnMapPlane(plane(got, profile), 0)
						what := fmt.Sprintf("xy[%d] of column %d = %g, profiles %v", k, j, bad, profile)
						if bad == bad && wantN != 1 {
							t.Fatalf("%s: the Go row yields %d cells, the test wants exactly one", what, wantN)
						}
						if gotN != wantN {
							t.Fatalf("%s: %d yielded cells, Go row %d", what, gotN, wantN)
						}
						requireSameRows(t, what, want, got)
						for c := 0; c < 6; c++ {
							stress, before := got[c].At(3*c%9), base[c].At(3*c%9)
							for q := range stress[:cols*(n+3)] {
								if q != pos && math.Float32bits(stress[q]) != math.Float32bits(before[q]) {
									t.Fatalf("%s: stress %d of elastic cell %d moved: %g -> %g", what, c, q, before[q], stress[q])
								}
							}
						}
						if xy := got[3].At(0)[pos]; bad == bad && !(math.Abs(float64(xy)) < 5e6) {
							t.Fatalf("%s: the yielding cell's shear stress is %g, not returned toward the surface", what, xy)
						}
					}
				}
			}
		}
	})
}

// TestYieldCheckIsExactAtTheYieldSurface: a group of eight is passed as
// elastic only on the Go row's own tau and y, to the last bit. Every group
// of these columns has seven comfortably elastic lanes and one whose yield
// stress is the float32 just below its tau (it yields, by one ulp) or tau
// itself (it does not): a root or a sum rounded any other way than the Go
// row's — a fused multiply-add, a reciprocal-root estimate — moves some of
// those taus by an ulp and lets a yielding cell through.
func TestYieldCheckIsExactAtTheYieldSurface(t *testing.T) {
	cputest.ForEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(37))
		const groups, cellsPerColumn = 4096, 64
		const n = 8 * groups
		row := func() []float32 { return make([]float32, n) }
		xx, yy, zz, xy, xz, yz := row(), row(), row(), row(), row(), row()
		cohes, sphi, cphi, pf, sig2 := row(), row(), row(), row(), row()
		yielding := 0
		for k := 0; k < n; k++ {
			for _, f := range [][]float32{xx, yy, zz, xy, xz, yz} {
				f[k] = (rng.Float32()*2 - 1) * 3e3
			}
			sig2[k] = -rng.Float32() * 5e6
			pf[k] = rng.Float32() * 1e5
			cohes[k], sphi[k], cphi[k] = 1e6, 0.5, 0.8
		}
		for g := 0; g < groups; g++ {
			k := 8*g + rng.Intn(8)
			// tau exactly as returnMapRow computes it
			txx, tyy, tzz := xx[k]+sig2[k], yy[k]+sig2[k], zz[k]+sig2[k]
			sm := (txx + tyy + tzz) * (1.0 / 3.0)
			dxx, dyy, dzz := txx-sm, tyy-sm, tzz-sm
			j2 := 0.5*(dxx*dxx+dyy*dyy+dzz*dzz) + xy[k]*xy[k] + xz[k]*xz[k] + yz[k]*yz[k]
			tau := float32(math.Sqrt(float64(j2)))
			// y = cohes*1 - (sm+pf)*0 = cohes
			sphi[k], cphi[k], cohes[k] = 0, 1, tau
			if g%2 == 0 {
				cohes[k] = math.Nextafter32(tau, 0)
				yielding++
			}
		}
		clone := func(f []float32) []float32 { return append([]float32(nil), f...) }
		// the cells as a plane of contiguous columns
		run := func(planeFn func(*plane, float32) int) (int, [][]float32) {
			out := [][]float32{clone(xx), clone(yy), clone(zz), clone(xy), clone(xz), clone(yz)}
			pl := &plane{n: cellsPerColumn, cols: n / cellsPerColumn}
			for c, f := range append(out, cohes, sphi, cphi, pf, sig2) {
				pl.op[c], pl.stride[c] = f, cellsPerColumn
			}
			return planeFn(pl, 0), out
		}
		wantN, want := run(goRows)
		gotN, got := run(returnMapPlane)
		if wantN != yielding {
			t.Fatalf("the Go row yields %d cells, the test built %d", wantN, yielding)
		}
		if gotN != wantN {
			t.Fatalf("%d yielded cells, Go row %d", gotN, wantN)
		}
		for c := range want {
			if i, ok := cputest.SameBits(want[c], got[c]); !ok {
				t.Fatalf("output %d differs at cell %d: %g, Go row %g", c, i, got[c][i], want[c][i])
			}
		}
	})
}

// TestRowOperandsAreBoundsChecked: a plane whose operand is too short for
// the cells its last column names — a stress, a full-rank parameter, a
// profile parameter at column stride 0 — panics in Go's slice checks on
// either path, before any assembly runs.
func TestRowOperandsAreBoundsChecked(t *testing.T) {
	cputest.ForEachKernelPath(t, func(t *testing.T) {
		const n, cols, cs = 16, 3, 20
		span := (cols-1)*cs + n
		for _, tc := range []struct {
			what   string
			c, len int
			stride int
		}{
			{"a short stress", 4, span - 1, cs},
			{"a short parameter", 8, span - 1, cs},
			{"a short profile row", 10, n - 1, 0},
		} {
			pl := &plane{n: n, cols: cols}
			for c := range pl.op {
				pl.op[c], pl.stride[c] = make([]float32, span), cs
			}
			pl.op[tc.c], pl.stride[tc.c] = make([]float32, tc.len), tc.stride
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("a plane with %s did not panic", tc.what)
					}
				}()
				returnMapPlane(pl, 0)
			}()
		}
	})
}

// BenchmarkSweepRows times the return map per grid point on the L2-resident
// service-job grid and the DRAM-resident solver grid on a state that yields
// nowhere — what nearly every cell of a run is — once per row path.
func BenchmarkSweepRows(b *testing.B) {
	was := cpu.AVX2
	defer func() { cpu.AVX2 = was }()
	for _, d := range []grid.Dims{{Nx: 32, Ny: 32, Nz: 24}, {Nx: 192, Ny: 192, Nz: 96}} {
		wf := fd.NewWavefield(d)
		rng := rand.New(rand.NewSource(5))
		for _, f := range wf.StressFields() {
			for idx := range f.Data {
				f.Data[idx] = (rng.Float32()*2 - 1) * 3e3
			}
		}
		p := NewParams(d)
		p.SetUniform(1e6, 0.5, 0)
		p.SetLithostatic(100, 2500)
		box := grid.Box(d)
		for _, on := range cputest.KernelPaths() {
			cpu.AVX2 = on
			b.Run(fmt.Sprintf("plasticity/%dx%dx%d/%s", d.Nx, d.Ny, d.Nz, cpu.KernelPath()), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if ApplyRegion(wf, p, 1e-3, box) != 0 {
						b.Fatal("the benchmark state yields")
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(d.Points()), "ns/point")
			})
		}
	}
}
