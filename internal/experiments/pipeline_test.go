package experiments

import (
	"testing"

	"swquake/internal/compress"
	"swquake/internal/core"
	"swquake/internal/fd"
	"swquake/internal/grid"
	"swquake/internal/model"
	"swquake/internal/rupture"
	"swquake/internal/scenario"
	"swquake/internal/seismo"
)

// TestCompleteCycle is the capstone integration test: the paper's full
// workflow (Fig. 3) — dynamic rupture source generation, source remapping,
// nonlinear ground motion with on-the-fly compressed storage, and hazard
// extraction — runs end to end and produces physically coherent output.
func TestCompleteCycle(t *testing.T) {
	// stage 1: dynamic rupture on the non-planar Tangshan-like fault
	rupDims := grid.Dims{Nx: 48, Ny: 24, Nz: 24}
	rupDx := 100.0
	mat := model.Material{Vp: 5000, Vs: 2887, Rho: 2700}
	med := fd.NewMedium(rupDims)
	lam, mu := mat.Lame()
	med.Rho.Fill(float32(mat.Rho))
	med.Lam.Fill(float32(lam))
	med.Mu.Fill(float32(mu))

	rcfg := rupture.TangshanConfig(rupDims, rupDx)
	dt := 0.8 * model.CFLTimeStep(rupDx, mat.Vp)
	rres, err := rupture.Simulate(rcfg, med, rupDx, dt, 200)
	if err != nil {
		t.Fatal(err)
	}
	if rres.RupturedFraction() < 0.3 {
		t.Fatalf("rupture failed: %g", rres.RupturedFraction())
	}

	// stage 2: remap the dynamic sources onto the regional mesh
	sc := scenario.Tangshan{
		Dims: grid.Dims{Nx: 40, Ny: 39, Nz: 16}, Dx: 800, Steps: 100, Nonlinear: true,
	}
	cfg, err := sc.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sources = rres.SourcesOnGrid(med, 2, cfg.Dims, cfg.Dx)
	if len(cfg.Sources) == 0 {
		t.Fatal("no remapped sources")
	}

	// stage 3: compressed nonlinear ground motion
	cfg.Compression = compress.Normalized
	sim, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}

	// stage 4: hazard coherence — the basin station shakes hardest, the
	// map has structure, and the products are finite
	nin := res.Recorder.Trace("Ninghe").PeakVelocity()
	can := res.Recorder.Trace("Cangzhou").PeakVelocity()
	if !(nin > 0 && can > 0) {
		t.Fatal("stations silent")
	}
	if !(nin > can) {
		t.Fatalf("near-fault basin station %g not above distant %g", nin, can)
	}
	if res.PGV.Max() <= 0 || seismo.Intensity(res.PGV.Max()) <= 1 {
		t.Fatal("degenerate hazard map")
	}
	rs := res.Recorder.Trace("Ninghe").ComputeResponseSpectrum([]float64{0.5, 1, 2}, 0.05)
	for i, v := range rs.PSA {
		if v <= 0 || v != v {
			t.Fatalf("PSA[%d] = %g", i, v)
		}
	}
}
