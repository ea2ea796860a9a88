package scenario

import (
	"math"
	"testing"

	"swquake/internal/core"
	"swquake/internal/grid"
	"swquake/internal/model"
	"swquake/internal/source"
)

func TestQuickstartValidates(t *testing.T) {
	cfg := Quickstart()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Sources) == 0 || len(cfg.Stations) == 0 {
		t.Fatal("quickstart incomplete")
	}
}

func TestTangshanStationsInBounds(t *testing.T) {
	for _, dims := range []grid.Dims{
		{Nx: 20, Ny: 20, Nz: 10},
		{Nx: 40, Ny: 39, Nz: 16},
		{Nx: 128, Ny: 124, Nz: 48},
	} {
		s := Tangshan{Dims: dims, Dx: 500, Steps: 10}
		for _, st := range s.Stations() {
			if st.I < 0 || st.I >= dims.Nx || st.J < 0 || st.J >= dims.Ny || st.K != 0 {
				t.Fatalf("dims %v: station %q at (%d,%d,%d) out of bounds", dims, st.Name, st.I, st.J, st.K)
			}
		}
		cfg, err := s.Config()
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("dims %v: %v", dims, err)
		}
	}
}

func TestKinematicFaultProperties(t *testing.T) {
	s := Tangshan{Dims: grid.Dims{Nx: 40, Ny: 39, Nz: 16}, Dx: 800, Steps: 10}
	srcs := s.kinematicFault()
	if len(srcs) == 0 {
		t.Fatal("no sources")
	}
	var total float64
	minT0, maxT0 := math.Inf(1), math.Inf(-1)
	hypo := s.Dims.Nx * 40 / 100
	for _, src := range srcs {
		if src.I < 0 || src.I >= s.Dims.Nx || src.K < 0 || src.K >= s.Dims.Nz {
			t.Fatalf("source out of bounds: %+v", src)
		}
		r := src.S.(source.Ricker)
		total += r.M0
		minT0 = math.Min(minT0, r.T0)
		maxT0 = math.Max(maxT0, r.T0)
		// onset delay grows with distance from the hypocentre
		if src.I == hypo && r.T0 != minT0 {
			t.Fatal("hypocentre source not the earliest")
		}
	}
	if math.Abs(total-TotalMoment)/TotalMoment > 1e-9 {
		t.Fatalf("moment budget %g != %g", total, TotalMoment)
	}
	if !(maxT0 > minT0) {
		t.Fatal("no rupture propagation delays")
	}
	// rupture traversal time consistent with vr = 2800 m/s over the span
	span := float64(s.Dims.Nx*(70-40)/100) * s.Dx
	if math.Abs((maxT0-minT0)-span/2800) > 0.3 {
		t.Fatalf("delay span %g inconsistent with rupture speed", maxT0-minT0)
	}
}

func TestTangshanNonlinearConfig(t *testing.T) {
	s := Tangshan{Dims: grid.Dims{Nx: 24, Ny: 24, Nz: 10}, Dx: 1200, Steps: 5, Nonlinear: true}
	cfg, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Nonlinear || !cfg.Plasticity.Lithostatic {
		t.Fatal("nonlinear setup incomplete")
	}
	// the configuration actually runs
	sim, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTangshanRejectsInvalid(t *testing.T) {
	if _, err := (Tangshan{}).Config(); err == nil {
		t.Fatal("zero scenario accepted")
	}
	if _, err := (Tangshan{Dims: grid.Dims{Nx: 10, Ny: 10, Nz: 10}, Dx: -1, Steps: 5}).Config(); err == nil {
		t.Fatal("negative dx accepted")
	}
}

func TestBuildHeterogeneityOverrides(t *testing.T) {
	for _, name := range Names() {
		base, err := Build(name, Overrides{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		het, err := Build(name, Overrides{HetAmplitude: 0.05, Seed: 7})
		if err != nil {
			t.Fatalf("%s het: %v", name, err)
		}
		h, ok := het.Model.(*model.Heterogeneous)
		if !ok {
			t.Fatalf("%s: model is %T, not *model.Heterogeneous", name, het.Model)
		}
		if h.Amplitude != 0.05 || h.Seed != 7 || h.CorrLen != 8*het.Dx {
			t.Fatalf("%s: wrapper misconfigured: %+v", name, h)
		}
		// the perturbed model must differ somewhere but stay valid
		differs := false
		for i := 0; i < het.Dims.Nx; i += 4 {
			x := float64(i) * het.Dx
			mb := base.Model.Sample(x, 0, 0)
			mh := h.Sample(x, 0, 0)
			if mh.Vp != mb.Vp {
				differs = true
			}
			if !mh.Valid() {
				t.Fatalf("%s: perturbed material invalid at x=%g: %+v", name, x, mh)
			}
		}
		if !differs {
			t.Fatalf("%s: heterogeneity had no effect", name)
		}
		if err := het.Validate(); err != nil {
			t.Fatalf("%s: het config invalid: %v", name, err)
		}
	}
}

func TestBuildHeterogeneitySeedsDiffer(t *testing.T) {
	a, err := Build("quickstart", Overrides{HetAmplitude: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build("quickstart", Overrides{HetAmplitude: 0.05, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ma := a.Model.Sample(800, 800, 400)
	mb := b.Model.Sample(800, 800, 400)
	if ma.Vp == mb.Vp {
		t.Fatal("different seeds sampled identical perturbations")
	}
	// same seed reproduces the realization exactly
	a2, err := Build("quickstart", Overrides{HetAmplitude: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := a2.Model.Sample(800, 800, 400); got != ma {
		t.Fatalf("seed 1 not reproducible: %+v vs %+v", got, ma)
	}
}

func TestBuildCorrLenOverride(t *testing.T) {
	cfg, err := Build("tangshan", Overrides{HetAmplitude: 0.03, HetCorrLen: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if h := cfg.Model.(*model.Heterogeneous); h.CorrLen != 2000 {
		t.Fatalf("corr len override ignored: %g", h.CorrLen)
	}
}

func TestBuildSeedWithoutAmplitudeRejected(t *testing.T) {
	if _, err := Build("quickstart", Overrides{Seed: 3}); err == nil {
		t.Fatal("seed without het_amplitude accepted (silent no-op)")
	}
}

// TestBuildAllocatesNothingByInput: a scenario arrives over HTTP, and Build
// runs before admission prices the job — so describing one must not allocate
// by what the request says. A correlation length below the grid spacing (a
// lattice finer than the grid, out of range at 1e-9 m) is refused, and a grid
// no machine holds builds at once: its lattice waits for the first sample,
// which a job the budget rejects never takes.
func TestBuildAllocatesNothingByInput(t *testing.T) {
	if _, err := Build("tangshan", Overrides{HetAmplitude: 0.05, HetCorrLen: 1e-9}); err == nil {
		t.Fatal("a correlation length of a nanometre accepted")
	}
	cfg, err := Build("tangshan", Overrides{Nx: 1 << 20, Ny: 1 << 20, Nz: 1 << 20, HetAmplitude: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cfg.Model.(*model.Heterogeneous); !ok {
		t.Fatalf("model is %T", cfg.Model)
	}
}

// TestBuildNamedScenarios: a named scenario takes the overrides it has room
// for, and refuses the rest and unknown names — the rules quakesim's flags and
// quaked's job specs share.
func TestBuildNamedScenarios(t *testing.T) {
	cfg, err := Build("quickstart", Overrides{Steps: 50})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Steps != 50 {
		t.Fatalf("steps %d", cfg.Steps)
	}
	if _, err := Build("quickstart", Overrides{Nx: 10}); err == nil {
		t.Fatal("custom grid on quickstart accepted")
	}
	if _, err := Build("quickstart", Overrides{Nonlinear: true}); err == nil {
		t.Fatal("nonlinear quickstart accepted")
	}
	cfg, err = Build("tangshan", Overrides{
		Nx: 48, Ny: 46, Nz: 20, Dx: 600, Steps: 100, Nonlinear: true})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Dims.Nx != 48 || cfg.Dx != 600 || !cfg.Nonlinear {
		t.Fatalf("tangshan config wrong: %+v", cfg.Dims)
	}
	if _, err := Build("tangshan", Overrides{Qs: 50}); err != nil {
		t.Fatal(err)
	}
	if _, err := Build("loma-prieta", Overrides{}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}
