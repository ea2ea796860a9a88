package rupture

import (
	"testing"

	"swquake/internal/grid"
	"swquake/internal/model"
)

// patched is base with its shear load scaled by factor over the fault cells
// [i0,i1) x [k0,k1): an asperity (factor > 1) or a barrier (factor < 1), the
// structure real faults carry and the paper's Tangshan source is built from.
func patched(base func(i, k int) float64, i0, i1, k0, k1 int, factor float64) func(i, k int) float64 {
	return func(i, k int) float64 {
		if i >= i0 && i < i1 && k >= k0 && k < k1 {
			return factor * base(i, k)
		}
		return base(i, k)
	}
}

func TestBarrierArrestsRupture(t *testing.T) {
	// a strong barrier across the strike must stop the front: cells beyond
	// it stay unbroken while the near side ruptures
	d := grid.Dims{Nx: 48, Ny: 16, Nz: 20}
	med := testMedium(d)
	dx := 50.0
	dt := 0.8 * model.CFLTimeStep(dx, 4000)

	// the whole NE half of the fault is destressed: the front must arrest
	// there (a narrow barrier alone can be jumped — the radiated stress
	// re-nucleates slip on a critically loaded far side, which is the
	// physical "rupture jumping" phenomenon)
	cfg := smallConfig(d)
	barrierI := cfg.HypoI + 8
	cfg.Tau0 = patched(cfg.Tau0, barrierI, cfg.I1, cfg.K0, cfg.K1, 0.3)
	res, err := Simulate(cfg, med, dx, dt, 200)
	if err != nil {
		t.Fatal(err)
	}
	// near side (toward I0) ruptured
	if res.RuptureTime[res.Cell(cfg.HypoI-6, cfg.HypoK)] < 0 {
		t.Fatal("near side did not rupture")
	}
	// the destressed half stays mostly unbroken
	broken, total := 0, 0
	for i := barrierI + 2; i < cfg.I1; i++ {
		for k := cfg.K0; k < cfg.K1; k++ {
			total++
			if res.RuptureTime[res.Cell(i, k)] >= 0 {
				broken++
			}
		}
	}
	if frac := float64(broken) / float64(total); frac > 0.3 {
		t.Fatalf("barrier failed: %.0f%% broke beyond it", 100*frac)
	}
}

func TestAsperityAcceleratesFront(t *testing.T) {
	d := grid.Dims{Nx: 48, Ny: 16, Nz: 20}
	med := testMedium(d)
	dx := 50.0
	dt := 0.8 * model.CFLTimeStep(dx, 4000)

	plain := smallConfig(d)
	resPlain, err := Simulate(plain, med, dx, dt, 160)
	if err != nil {
		t.Fatal(err)
	}

	asp := smallConfig(d)
	asp.Tau0 = patched(asp.Tau0, asp.HypoI+4, asp.HypoI+12, asp.K0, asp.K1, 1.08)
	resAsp, err := Simulate(asp, med, dx, dt, 160)
	if err != nil {
		t.Fatal(err)
	}
	// the asperity side breaks no later than in the plain run
	target := asp.HypoI + 14
	ta := resAsp.RuptureTime[resAsp.Cell(target, asp.HypoK)]
	tp := resPlain.RuptureTime[resPlain.Cell(target, plain.HypoK)]
	if ta < 0 {
		t.Fatal("asperity run did not reach the target")
	}
	if tp >= 0 && ta > tp+dt {
		t.Fatalf("asperity slowed the front: %g vs %g", ta, tp)
	}
}
