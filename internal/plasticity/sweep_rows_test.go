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

// rowState is the twelve operand rows of returnMapRow, each in its own
// arena: six stresses, five parameters and the yield factor.
type rowState [12]cputest.Arena

const rowArenaLen = 97 + cputest.MaxRowOffset

// newRowState builds rows whose cells are elastic (stresses of a few kPa
// against a cohesion near 1 MPa) except where hard says otherwise; yld holds
// stale factors the row must overwrite.
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
			case c == 10: // lithostatic mean stress
				return -rng.Float32() * 5e6
			}
			return rng.Float32()
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

// run calls row on the n cells that start off floats past each arena's
// boundary (every operand at its own offset). With shared, the five
// parameter operands are one row — the cohesion arena — as parameters stored
// below full rank hand the same memory to several operands and every column.
func (s rowState) run(n, off int, relax float32, shared bool, row func(xx, yy, zz, xy, xz, yz, cohes, sphi, cphi, pf, sig2, yld []float32, relax float32) int) int {
	o := func(c int) []float32 {
		if shared && c >= 6 && c <= 10 {
			c = 6
		}
		return s[c].At((off + 3*c) % (cputest.MaxRowOffset + 1))
	}
	return row(o(0)[:n], o(1), o(2), o(3), o(4), o(5), o(6), o(7), o(8), o(9), o(10), o(11), relax)
}

// requireSameRows compares every arena of two states, canaries included.
func requireSameRows(t *testing.T, what string, want, got rowState) {
	t.Helper()
	names := []string{"xx", "yy", "zz", "xy", "xz", "yz", "cohes", "sphi", "cphi", "pf", "sig2", "yld"}
	for c := range want {
		if i, ok := cputest.SameBits(want[c].Buf, got[c].Buf); !ok {
			t.Fatalf("%s: %s differs at arena index %d (boundary at %d): %g (%#08x), Go row %g (%#08x)",
				what, names[c], i, cputest.Base, got[c].Buf[i], math.Float32bits(got[c].Buf[i]),
				want[c].Buf[i], math.Float32bits(want[c].Buf[i]))
		}
	}
}

// TestReturnMapRowMatchesGoRow holds returnMapRowAt — the assembly yield
// check for the elastic groups of eight plus the Go row for the rest, or the
// Go row alone — to the Go row over the same cells: stresses, yield factors,
// the cells around the row that must not be written, and the yielded count.
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
						for _, shared := range []bool{false, true} {
							want, got := st.clone(), st.clone()
							wantN := want.run(n, off, relax, shared, returnMapRow)
							gotN := got.run(n, off, relax, shared, returnMapRowAt)
							what := fmt.Sprintf("%s relax=%g n=%d off=%d shared=%v", name, relax, n, off, shared)
							if wantN != gotN {
								t.Fatalf("%s: %d yielded cells, Go row %d", what, gotN, wantN)
							}
							requireSameRows(t, what, want, got)
							yieldedSomewhere = yieldedSomewhere || (wantN > 0 && !shared)
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

// TestOneYieldingCellAtEveryLane: in a row of two vectors and a four-cell
// tail that is elastic but for one cell, that cell alone is returned to the
// yield surface wherever it sits — each lane of either vector, and the tail —
// and the result is the Go row's. The same with a NaN in place of the
// yielding stress: the group must not be passed as elastic.
func TestOneYieldingCellAtEveryLane(t *testing.T) {
	cputest.ForEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(29))
		const n = 20
		base := newRowState(rng, func(int) (float32, bool) { return 0, false })
		for _, bad := range []float32{5e6, float32(math.NaN())} {
			for pos := 0; pos < n; pos++ {
				want := base.clone()
				want[3].At(3 * 3 % 9)[pos] = bad // xy, at the offset run gives it for off = 0
				got := want.clone()
				wantN := want.run(n, 0, 0, false, returnMapRow)
				gotN := got.run(n, 0, 0, false, returnMapRowAt)
				what := fmt.Sprintf("xy[%d] = %g", pos, bad)
				if bad == bad && wantN != 1 {
					t.Fatalf("%s: the Go row yields %d cells, the test wants exactly one", what, wantN)
				}
				if gotN != wantN {
					t.Fatalf("%s: %d yielded cells, Go row %d", what, gotN, wantN)
				}
				requireSameRows(t, what, want, got)
				yld := got[11].At(3 * 11 % 9)[:n]
				for k, r := range yld {
					if k != pos && r != 1 {
						t.Fatalf("%s: yield factor %g at elastic cell %d", what, r, k)
					}
				}
				if bad == bad && !(yld[pos] < 1) {
					t.Fatalf("%s: yield factor %g at the yielding cell", what, yld[pos])
				}
			}
		}
	})
}

// TestYieldCheckIsExactAtTheYieldSurface: a group of eight is passed as
// elastic only on the Go row's own tau and y, to the last bit. Every group
// of these rows has seven comfortably elastic lanes and one whose yield
// stress is the float32 just below its tau (it yields, by one ulp) or tau
// itself (it does not): a root or a sum rounded any other way than the Go
// row's — a fused multiply-add, a reciprocal-root estimate — moves some of
// those taus by an ulp and lets a yielding cell through.
func TestYieldCheckIsExactAtTheYieldSurface(t *testing.T) {
	cputest.ForEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(37))
		const groups = 4096
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
		run := func(rowFn func(xx, yy, zz, xy, xz, yz, cohes, sphi, cphi, pf, sig2, yld []float32, relax float32) int) (int, [][]float32) {
			out := [][]float32{clone(xx), clone(yy), clone(zz), clone(xy), clone(xz), clone(yz), row()}
			return rowFn(out[0], out[1], out[2], out[3], out[4], out[5], cohes, sphi, cphi, pf, sig2, out[6], 0), out
		}
		wantN, want := run(returnMapRow)
		gotN, got := run(returnMapRowAt)
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
