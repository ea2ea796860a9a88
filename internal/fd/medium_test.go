package fd

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"swquake/internal/grid"
	"swquake/internal/model"
)

// validateOracle is the interior scan Validate made before the sampling pass
// recorded its verdict: positive density and non-negative moduli.
func validateOracle(m *Medium) error {
	for i := 0; i < m.D.Nx; i++ {
		for j := 0; j < m.D.Ny; j++ {
			for k := 0; k < m.D.Nz; k++ {
				if m.Rho.At(i, j, k) <= 0 {
					return fmt.Errorf("fd: non-positive density at (%d,%d,%d)", i, j, k)
				}
				if m.Mu.At(i, j, k) < 0 || m.Lam.At(i, j, k) < 0 {
					return fmt.Errorf("fd: negative modulus at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
	return nil
}

// maxVpSquaredOracle is the row-wise interior scan the CFL bound came from
// before the sampling pass recorded it.
func maxVpSquaredOracle(m *Medium) float64 {
	var v float64
	for i := 0; i < m.D.Nx; i++ {
		for j := 0; j < m.D.Ny; j++ {
			lam, mu, rho := m.Lam.Row(i, j), m.Mu.Row(i, j), m.Rho.Row(i, j)
			for k := range lam {
				if q := (float64(lam[k]) + 2*float64(mu[k])) / float64(rho[k]); q > v {
					v = q
				}
			}
		}
	}
	return v
}

// withCells is base with other materials at some grid points, keyed by
// global index (i, j, k) on spacing dx; depths clamp as the medium's do.
type withCells struct {
	base  model.Model
	dx    float64
	cells map[[3]int]model.Material
}

func (w withCells) Sample(x, y, z float64) model.Material {
	at := [3]int{int(math.Round(x / w.dx)), int(math.Round(y / w.dx)), int(math.Round(z / w.dx))}
	if m, ok := w.cells[at]; ok {
		return m
	}
	return w.base.Sample(x, y, z)
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// verdictCase is one model of TestSamplingPassVerdictMatchesOracles: other
// materials at some cells of the scaled basin, and the whole domain's
// verdict.
type verdictCase struct {
	name      string
	cells     map[[3]int]model.Material
	want      string // the whole domain's verdict
	oracleNil bool   // the old scan let the offending cell through
}

// TestSamplingPassVerdictMatchesOracles: the verdict NewMediumFromModel
// records is the old interior scan's — the first offending interior cell in
// (i, j, k) order, with its message — wherever that scan rejects; it also
// rejects the non-finite cells that scan let through; offending cells in the
// halo alone pass; and the recorded CFL bound is the row-wise scan's, bit
// for bit, halo cells faster than any interior one notwithstanding. For the
// whole domain and for the blocks of a 2x2 decomposition; and for a domain
// sampled in four slabs of i-planes (-2..14, 15..31, 32..48, 49..65), with
// offending or fast cells in two of them.
func TestSamplingPassVerdictMatchesOracles(t *testing.T) {
	rock := model.Material{Vp: 6000, Vs: 3400, Rho: 2700}
	noRho := model.Material{Vp: 6000, Vs: 3400}
	negLam := model.Material{Vp: 3000, Vs: 3000, Rho: 2700}
	fast := model.Material{Vp: 9e4, Vs: 3e4, Rho: 2700}
	infVp := model.Material{Vp: math.Inf(1), Vs: 3400, Rho: 2700}
	nanRho := model.Material{Vp: 6000, Vs: 3400, Rho: math.NaN()}
	checkVerdicts(t, grid.Dims{Nx: 8, Ny: 6, Nz: 7}, 1, []verdictCase{
		{"clean", nil, "<nil>", false},
		{"zero density", map[[3]int]model.Material{{3, 2, 4}: noRho}, "fd: non-positive density at (3,2,4)", false},
		{"negative lambda", map[[3]int]model.Material{{0, 5, 6}: negLam}, "fd: negative modulus at (0,5,6)", false},
		{"first of two in (i, j, k) order", map[[3]int]model.Material{{5, 0, 0}: noRho, {2, 5, 3}: negLam, {2, 5, 4}: noRho},
			"fd: negative modulus at (2,5,3)", false},
		{"+Inf Vp", map[[3]int]model.Material{{1, 1, 1}: infVp},
			"fd: non-finite material at (1,1,1): rho 2700, lambda +Inf, mu 3.1212e+10", true},
		{"NaN density", map[[3]int]model.Material{{4, 3, 2}: nanRho},
			"fd: non-finite material at (4,3,2): rho NaN, lambda NaN, mu NaN", true},
		{"halo only", map[[3]int]model.Material{{-1, 3, 2}: noRho, {8, 0, 0}: infVp, {2, -2, 1}: negLam,
			{3, 6, 0}: nanRho, {-2, -1, 3}: fast, {4, 7, 6}: fast}, "<nil>", false},
		{"fast cell inside", map[[3]int]model.Material{{7, 5, 6}: fast, {0, 0, 0}: rock}, "<nil>", false},
	})
	checkVerdicts(t, grid.Dims{Nx: 64, Ny: 64, Nz: 32}, 4, []verdictCase{
		{"clean, in slabs", nil, "<nil>", false},
		{"first slab's cell first", map[[3]int]model.Material{{40, 3, 5}: noRho, {10, 60, 30}: negLam},
			"fd: negative modulus at (10,60,30)", false},
		{"second slab's cell before the last's", map[[3]int]model.Material{{60, 0, 0}: negLam, {20, 1, 1}: noRho},
			"fd: non-positive density at (20,1,1)", false},
		{"fast cells in two slabs", map[[3]int]model.Material{{55, 10, 10}: fast, {3, 3, 3}: rock}, "<nil>", false},
	})
}

// checkVerdicts runs TestSamplingPassVerdictMatchesOracles' cases on the
// domain d and the four blocks of its 2x2 decomposition, at GOMAXPROCS procs.
func checkVerdicts(t *testing.T, d grid.Dims, procs int, cases []verdictCase) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	if n := min(procs, int(d.Points()/grid.MinWorkerPoints)); grid.Workers(d.Points()) != max(n, 1) {
		t.Fatalf("%v at GOMAXPROCS %d: %d slabs, want %d", d, procs, grid.Workers(d.Points()), max(n, 1))
	}
	const dx = 100.0
	base := model.ScaledTangshan(float64(d.Nx)*dx, float64(d.Ny)*dx, float64(d.Nz)*dx)
	half := grid.Dims{Nx: d.Nx / 2, Ny: d.Ny / 2, Nz: d.Nz}
	for _, c := range cases {
		m := withCells{base, dx, c.cells}
		for _, blk := range []struct {
			b      grid.Dims
			i0, j0 int
		}{{d, 0, 0}, {half, 0, 0}, {half, half.Nx, 0}, {half, 0, half.Ny}, {half, half.Nx, half.Ny}} {
			what := fmt.Sprintf("%s, %v block at (%d,%d)", c.name, blk.b, blk.i0, blk.j0)
			med := NewMediumFromModel(blk.b, dx, m, float64(blk.i0)*dx, float64(blk.j0)*dx)
			got, oracle := med.Validate(), validateOracle(med)
			if blk.b == d && errText(got) != c.want {
				t.Errorf("%s: verdict %q, want %q", what, errText(got), c.want)
			}
			if oracle != nil && errText(got) != errText(oracle) {
				t.Errorf("%s: verdict %q, the old scan's %q", what, errText(got), errText(oracle))
			}
			if oracle == nil && got != nil && !c.oracleNil {
				t.Errorf("%s: verdict %q where the old scan passes", what, errText(got))
			}
			if got == nil {
				if v, want := med.MaxVpSquared(), maxVpSquaredOracle(med); math.Float64bits(v) != math.Float64bits(want) {
					t.Errorf("%s: CFL bound %g, row-wise scan %g", what, v, want)
				}
			}
		}
	}
}

// TestValidateChecksHandFilledMedium: a medium filled by hand gets the same
// per-column check — the old scan's messages, and the non-finite moduli and
// density it let through.
func TestValidateChecksHandFilledMedium(t *testing.T) {
	d := grid.Dims{Nx: 3, Ny: 4, Nz: 5}
	for _, c := range []struct {
		rho, lam, mu float32 // of cell (1,2,k)
		k            int
		want         string
	}{
		{0, 3e10, 3e10, 3, "fd: non-positive density at (1,2,3)"},
		{0, 0, 0, 0, "fd: non-positive density at (1,2,0)"},
		{2700, 3e10, -1, 3, "fd: negative modulus at (1,2,3)"},
		{2700, float32(math.NaN()), 3e10, 3, "fd: non-finite material at (1,2,3): rho 2700, lambda NaN, mu 3e+10"},
		{float32(math.Inf(1)), 3e10, 3e10, 4, "fd: non-finite material at (1,2,4): rho +Inf, lambda 3e+10, mu 3e+10"},
	} {
		med := NewMedium(d)
		med.Rho.Fill(2700)
		med.Lam.Fill(3e10)
		med.Mu.Fill(3e10)
		if err := med.Validate(); err != nil {
			t.Fatal(err)
		}
		med.Rho.Set(1, 2, c.k, c.rho)
		med.Lam.Set(1, 2, c.k, c.lam)
		med.Mu.Set(1, 2, c.k, c.mu)
		if got := errText(med.Validate()); got != c.want {
			t.Errorf("verdict %q, want %q", got, c.want)
		}
	}
}

// BenchmarkNewMediumFromModel times the set-up's one pass over the medium:
// the scaled Tangshan basin at the benchmark's large grid, and the
// quickstart job's 5 % heterogeneous half-space.
func BenchmarkNewMediumFromModel(b *testing.B) {
	large := grid.Dims{Nx: 192, Ny: 192, Nz: 96}
	small := grid.Dims{Nx: 32, Ny: 32, Nz: 24}
	for _, c := range []struct {
		name string
		d    grid.Dims
		dx   float64
		m    func(lx, ly, lz float64) model.Model
	}{
		{"tangshan-192x192x96", large, 500, func(lx, ly, lz float64) model.Model { return model.ScaledTangshan(lx, ly, lz) }},
		{"het-halfspace-32x32x24", small, 100, func(lx, ly, lz float64) model.Model {
			return model.NewHeterogeneous(model.Homogeneous{M: model.Material{Vp: 4000, Vs: 2310, Rho: 2500}},
				0.05, 800, lx, ly, lz, 1)
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			lx, ly, lz := float64(c.d.Nx)*c.dx, float64(c.d.Ny)*c.dx, float64(c.d.Nz)*c.dx
			for i := 0; i < b.N; i++ {
				// a new model each time: the heterogeneous lattice is built
				// by the first sample, as each job builds its own
				if err := NewMediumFromModel(c.d, c.dx, c.m(lx, ly, lz), 0, 0).Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
