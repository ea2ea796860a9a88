package fd

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"swquake/internal/grid"
	"swquake/internal/model"
)

// setUp is what the set-up builds for a block through fd: the wavefield, the
// medium sampled from a model, and the Vs-scaled attenuation operators of
// both kinds over that medium.
type setUp struct {
	wf    *Wavefield
	med   *Medium
	atten *Attenuation
	sls   *SLS
}

func buildSetUp(d grid.Dims, dx float64, m model.Model, i0, j0 int) setUp {
	med := NewMediumFromModel(d, dx, m, float64(i0)*dx, float64(j0)*dx)
	q := VsScaledQ{Med: med}
	return setUp{wf: NewWavefield(d), med: med, atten: NewAttenuation(d, q, 2, 1e-3), sls: NewSLS(d, q, 2)}
}

// fields lists every array of the set-up, halos included.
func (s setUp) fields() map[string]*grid.Field {
	f := map[string]*grid.Field{"rho": s.med.Rho, "lambda": s.med.Lam, "mu": s.med.Mu, "1/mu": s.med.recipMu(),
		"gp": s.atten.GP, "gs": s.atten.GS, "phi": s.sls.Phi}
	for c, r := range s.sls.R {
		f[fmt.Sprintf("r%d", c)] = r
	}
	for c, w := range s.wf.AllFields() {
		f[fmt.Sprintf("wavefield %d", c)] = w
	}
	return f
}

// TestSetUpSplitIsTheOneSlabResult: above the split threshold the set-up
// gives the one-slab result bit for bit — the medium's four arrays with
// their halos, its verdict and CFL bound, the Vs-scaled attenuation's two
// and the SLS's seven arrays, and the wavefield's nine zero fields — in 2, 3
// and 4 slabs, for the scaled basin and the heterogeneous job's model (a new
// one each time, so the slabs race to build its lattice), over the whole
// domain and for a 2x2 rank block at its offset.
func TestSetUpSplitIsTheOneSlabResult(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const dx = 100.0
	whole := grid.Dims{Nx: 128, Ny: 128, Nz: 32}
	block := grid.Dims{Nx: 64, Ny: 64, Nz: 32} // 4 << 15 cells
	lx, ly, lz := float64(whole.Nx)*dx, float64(whole.Ny)*dx, float64(whole.Nz)*dx
	models := map[string]func() model.Model{
		"basin": func() model.Model { return model.ScaledTangshan(lx, ly, lz) },
		"heterogeneous": func() model.Model {
			return model.NewHeterogeneous(model.ScaledTangshan(lx, ly, lz), 0.05, 8*dx, lx, ly, lz, 3)
		},
	}
	for name, m := range models {
		for _, blk := range []struct {
			d      grid.Dims
			i0, j0 int
		}{{whole, 0, 0}, {block, block.Nx, block.Ny}} {
			runtime.GOMAXPROCS(1)
			want := buildSetUp(blk.d, dx, m(), blk.i0, blk.j0)
			for _, procs := range []int{2, 3, 4} {
				runtime.GOMAXPROCS(procs)
				what := fmt.Sprintf("%s, %v block at (%d,%d), %d slabs", name, blk.d, blk.i0, blk.j0, procs)
				if n := grid.Workers(blk.d.Points()); n != procs {
					t.Fatalf("%s: split in %d", what, n)
				}
				got := buildSetUp(blk.d, dx, m(), blk.i0, blk.j0)
				if errText(got.med.Validate()) != errText(want.med.Validate()) ||
					math.Float64bits(got.med.MaxVpSquared()) != math.Float64bits(want.med.MaxVpSquared()) {
					t.Errorf("%s: verdict %v and bound %g, one slab's %v and %g", what,
						got.med.Validate(), got.med.MaxVpSquared(), want.med.Validate(), want.med.MaxVpSquared())
				}
				wantFields := want.fields()
				for f, g := range got.fields() {
					w := wantFields[f]
					if len(g.Data) != len(w.Data) {
						t.Fatalf("%s: %s has %d values, one slab's %d", what, f, len(g.Data), len(w.Data))
					}
					for p := range g.Data {
						if math.Float32bits(g.Data[p]) != math.Float32bits(w.Data[p]) {
							t.Errorf("%s: %s[%d] = %g, one slab's %g", what, f, p, g.Data[p], w.Data[p])
							break
						}
					}
				}
			}
		}
	}
}

// goroutineID is the calling goroutine's number, from its stack's header.
func goroutineID() string {
	var b [64]byte
	return strings.Fields(string(b[:runtime.Stack(b[:], false)]))[1]
}

// callers records the goroutines that call it.
type callers struct {
	mu  sync.Mutex
	ids map[string]bool
}

func (c *callers) note() {
	c.mu.Lock()
	c.ids[goroutineID()] = true
	c.mu.Unlock()
}

// countingModel and countingQ are a model and a Q model that note the
// callers of each column.
type countingModel struct {
	model.Model
	c *callers
}

func (m countingModel) SampleColumn(x, y float64, zs []float64, out []model.Material) {
	m.c.note()
	model.SampleColumn(m.Model, x, y, zs, out)
}

type countingQ struct {
	QModel
	c *callers
}

func (q countingQ) Q(i, j, k int) (float64, float64) {
	if k == 0 {
		q.c.note()
	}
	return q.QModel.Q(i, j, k)
}

// TestSetUpSplitsOnlyAboveTheThreshold: at GOMAXPROCS 4 the medium, the
// Vs-scaled attenuation and the SLS sample a 32x32x24 block (the service's
// job) on the caller's goroutine alone, and a 64x64x32 one on four
// goroutines, the caller's among them.
func TestSetUpSplitsOnlyAboveTheThreshold(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	self := goroutineID()
	for _, c := range []struct {
		d    grid.Dims
		want int
	}{{grid.Dims{Nx: 32, Ny: 32, Nz: 24}, 1}, {grid.Dims{Nx: 64, Ny: 64, Nz: 32}, 4}} {
		m := model.ScaledTangshan(float64(c.d.Nx)*100, float64(c.d.Ny)*100, float64(c.d.Nz)*100)
		med := NewMediumFromModel(c.d, 100, m, 0, 0)
		for _, b := range []struct {
			name  string
			build func(*callers)
		}{
			{"medium", func(cs *callers) { NewMediumFromModel(c.d, 100, countingModel{m, cs}, 0, 0) }},
			{"attenuation", func(cs *callers) { NewAttenuation(c.d, countingQ{VsScaledQ{Med: med}, cs}, 2, 1e-3) }},
			{"SLS", func(cs *callers) { NewSLS(c.d, countingQ{VsScaledQ{Med: med}, cs}, 2) }},
		} {
			cs := &callers{ids: map[string]bool{}}
			b.build(cs)
			if len(cs.ids) != c.want || !cs.ids[self] {
				t.Errorf("%v %s: sampled on %d goroutines (the caller's among them: %v), want %d", c.d, b.name,
					len(cs.ids), cs.ids[self], c.want)
			}
		}
	}
}
