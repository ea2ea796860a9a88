package rupture

import (
	"testing"

	"swquake/internal/grid"
	"swquake/internal/model"
)

func TestWithPatches(t *testing.T) {
	base := func(_, _ int) float64 { return 10 }
	f, err := WithPatches(base, []Patch{
		{I0: 2, I1: 4, K0: 0, K1: 10, Factor: 1.5},
		{I0: 3, I1: 6, K0: 0, K1: 10, Factor: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f(0, 0) != 10 {
		t.Fatal("outside patches changed")
	}
	if f(2, 5) != 15 {
		t.Fatalf("asperity got %g", f(2, 5))
	}
	if f(5, 5) != 5 {
		t.Fatalf("barrier got %g", f(5, 5))
	}
	if f(3, 5) != 7.5 { // overlap multiplies
		t.Fatalf("overlap got %g", f(3, 5))
	}
	if _, err := WithPatches(base, []Patch{{I0: 4, I1: 4, K0: 0, K1: 1, Factor: 1}}); err == nil {
		t.Fatal("empty patch accepted")
	}
	if _, err := WithPatches(base, []Patch{{I0: 0, I1: 1, K0: 0, K1: 1, Factor: 0}}); err == nil {
		t.Fatal("zero factor accepted")
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
	var err error
	cfg.Tau0, err = WithPatches(cfg.Tau0, []Patch{
		{I0: barrierI, I1: cfg.I1, K0: cfg.K0, K1: cfg.K1, Factor: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
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
	asp.Tau0, err = WithPatches(asp.Tau0, []Patch{
		{I0: asp.HypoI + 4, I1: asp.HypoI + 12, K0: asp.K0, K1: asp.K1, Factor: 1.08},
	})
	if err != nil {
		t.Fatal(err)
	}
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
