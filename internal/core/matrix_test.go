package core

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"testing"

	"swquake/internal/checkpoint"
	"swquake/internal/compress"
	"swquake/internal/cpu/cputest"
	"swquake/internal/fd"
	"swquake/internal/source"
)

// fullMatrix runs every cell of TestModeMatrix; without it the test runs
// every seventh, which still takes each value of each axis (make check sets
// it: go test ./internal/core -run TestModeMatrix -matrix.full).
var fullMatrix = flag.Bool("matrix.full", false, "run every cell of TestModeMatrix")

// matrixCell is one way of running a configuration.
type matrixCell struct {
	mx, my  int
	tiles   int // workers
	overlap bool
	half    bool // compress.Half storage
	physics string
	strips  bool // 1-plane slabs in 4-column strips, else one slab
}

func (c matrixCell) String() string {
	geom := "one slab"
	if c.strips {
		geom = "1x4 strips"
	}
	storage := "plain"
	if c.half {
		storage = "half"
	}
	return fmt.Sprintf("%dx%d/tiles=%d/overlap=%v/%s/%s/%s", c.mx, c.my, c.tiles, c.overlap, storage, c.physics, geom)
}

// matrixCells enumerates grid x tiles x overlap x storage x physics x walk
// geometry.
func matrixCells() []matrixCell {
	var cells []matrixCell
	for _, g := range [][2]int{{1, 1}, {2, 1}, {2, 2}} {
		for _, tiles := range []int{1, 3} {
			for _, overlap := range []bool{false, true} {
				for _, half := range []bool{false, true} {
					for _, physics := range []string{"linear", "nonlinear+Q", "SLS"} {
						for _, strips := range []bool{false, true} {
							cells = append(cells, matrixCell{g[0], g[1], tiles, overlap, half, physics, strips})
						}
					}
				}
			}
		}
	}
	return cells
}

// matrixConfig is a run small enough for a hundred and forty cells and weak
// enough for half-precision storage (IEEE half overflows above 65504 Pa),
// with a cohesion low enough that it yields, and co-located sources of very
// different size on the planes and columns the strips and rank seams of
// the table cut at.
func matrixConfig(c matrixCell) Config {
	cfg := heterogeneousConfig()
	cfg.Steps = 24
	cfg.Sources = nil
	for _, at := range [][2]int{{12, 11}, {4, 11}, {11, 12}, {7, 3}, {16, 20}, {0, 23}} {
		cfg.Sources = append(cfg.Sources,
			source.PointSource{I: at[0], J: at[1], K: 5, M: source.Explosion(), S: source.Ricker{F0: 4, T0: 0.2, M0: 3e10}},
			source.PointSource{I: at[0], J: at[1], K: 5, M: source.StrikeSlipXY(), S: source.Ricker{F0: 5, T0: 0.22, M0: 7e6}},
			source.PointSource{I: at[0], J: at[1], K: 5, M: source.Explosion(), S: source.Ricker{F0: 3, T0: 0.21, M0: -2.9e10}})
	}
	switch c.physics {
	case "nonlinear+Q":
		cfg.Nonlinear = true
		cfg.Plasticity = PlasticityConfig{Cohesion: 5, FrictionAngle: 30 * math.Pi / 180}
		cfg.Attenuation = AttenuationConfig{Enabled: true, F0: 3, Qp: 60, Qs: 30}
	case "SLS":
		cfg.Nonlinear = true
		cfg.Plasticity = PlasticityConfig{Cohesion: 5, FrictionAngle: 30 * math.Pi / 180}
		cfg.Attenuation = AttenuationConfig{Enabled: true, UseSLS: true, F0: 3, Qp: 60, Qs: 30}
	}
	if c.half {
		cfg.Compression = compress.Half
	}
	cfg.Tiles, cfg.Overlap = c.tiles, c.overlap
	return cfg
}

// matrixRun is what a cell's run ends with: its result, the dump of its
// last step — the whole wavefield gathered from the ranks, and the resume
// state (traces, PGV map, yield count) — and the max |v| of every step, as the
// observer heard it.
type matrixRun struct {
	res   *Result
	wf    *fd.Wavefield
	aux   []byte
	maxes []float64
}

// runCell runs the cell with a dump of its last step.
func runCell(t *testing.T, c matrixCell) matrixRun {
	t.Helper()
	if c.strips {
		defer SetWalkGeometry(1, 4)()
	} else {
		defer SetWalkGeometry(1<<30, 1<<30)()
	}
	cfg := matrixConfig(c)
	cfg.Checkpoint = &checkpoint.Controller{Dir: t.TempDir(), Interval: cfg.Steps, Keep: 1}
	var maxes []float64
	cfg.Observer = func(ev StepEvent) { maxes = append(maxes, ev.MaxVelocity) }
	var res *Result
	var err error
	if c.mx*c.my == 1 {
		var sim *Simulator
		if sim, err = New(cfg); err == nil {
			res, err = sim.Run()
		}
	} else {
		res, err = RunParallel(cfg, c.mx, c.my)
	}
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	_, _, wf, aux, err := checkpoint.LoadAux(cfg.Checkpoint.Latest())
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	return matrixRun{res, wf, aux, maxes}
}

// requireSameRun fails unless got ran as want did: the same max |v| after
// every step, and at the end the same traces, PGV map, yield count, steps,
// flops and resume state, and the same bits in every cell of the nine
// fields: the dump's wavefield, which is the ranks' owned cells gathered,
// ghost layers left out.
func requireSameRun(t *testing.T, label string, want, got matrixRun, cfg Config) {
	t.Helper()
	if fmt.Sprint(got.maxes) != fmt.Sprint(want.maxes) || len(want.maxes) != cfg.Steps {
		t.Fatalf("%s: max |v| by step %v, the serial run's %v", label, got.maxes, want.maxes)
	}
	requireIdenticalResults(t, label, want.res, got.res, cfg)
	if !bytes.Equal(want.aux, got.aux) {
		t.Fatalf("%s: the last dump's resume state differs from the serial run's", label)
	}
	for c, f := range want.wf.AllFields() {
		g := got.wf.AllFields()[c]
		for i := 0; i < f.Nx; i++ {
			for j := 0; j < f.Ny; j++ {
				p, n := f.Idx(i, j, 0), f.Nz
				if _, same := cputest.SameBits(f.Data[p:p+n], g.Data[p:p+n]); !same {
					t.Fatalf("%s: field %s differs from the serial run's in column (%d,%d)", label, FieldNames[c], i, j)
				}
			}
		}
	}
}

// TestModeMatrix: every way of running a configuration — on 1x1, 2x1 and
// 2x2 ranks, on one worker or three (which walk the strips at once in the
// strip cells; a one-slab block is one strip), with the velocity exchange
// overlapped or not, on plain or half-precision storage, linear, nonlinear
// with constant Q or with SLS, walked as one slab or in 1-plane slabs and
// 4-column strips — ends with the whole wavefield, the traces and the PGV
// map bit-identical to the serial one-slab run of the same storage and
// physics.
func TestModeMatrix(t *testing.T) {
	refs := map[[2]string]matrixRun{}
	for n, c := range matrixCells() {
		storage := fmt.Sprint(c.half)
		key := [2]string{storage, c.physics}
		ref := c.mx*c.my == 1 && c.tiles == 1 && !c.overlap && !c.strips
		if !ref && !*fullMatrix && n%7 != 0 {
			continue
		}
		if refs[key].res == nil {
			rc := matrixCell{1, 1, 1, false, c.half, c.physics, false}
			r := runCell(t, rc)
			if c.physics != "linear" && r.res.YieldedPointSteps == 0 {
				t.Fatalf("%v: the reference run never yields", rc)
			}
			refs[key] = r
		}
		if ref {
			continue
		}
		got := runCell(t, c)
		requireSameRun(t, c.String(), refs[key], got, matrixConfig(c))
	}
}
