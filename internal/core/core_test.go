package core

import (
	"math"
	"strings"
	"testing"

	"swquake/internal/compress"
	"swquake/internal/decomp"
	"swquake/internal/fd"
	"swquake/internal/grid"
	"swquake/internal/model"
	"swquake/internal/plasticity"
	"swquake/internal/seismo"
	"swquake/internal/source"
)

func baseConfig() Config {
	return Config{
		Dims:  grid.Dims{Nx: 24, Ny: 24, Nz: 20},
		Dx:    100,
		Steps: 40,
		Model: model.Homogeneous{M: model.Material{Vp: 4000, Vs: 2310, Rho: 2500}},
		Sources: []source.PointSource{{
			I: 12, J: 12, K: 10,
			M: source.Explosion(),
			S: source.Ricker{F0: 4, T0: 0.25, M0: 1e13},
		}},
		Stations:    []seismo.Station{{Name: "S1", I: 18, J: 12, K: 0}},
		SpongeWidth: 4,
		RecordPGV:   true,
	}
}

func TestConfigValidation(t *testing.T) {
	good := baseConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Dims.Nx = 0 },
		func(c *Config) { c.Dx = 0 },
		func(c *Config) { c.Dx = math.NaN() },
		func(c *Config) { c.Dx = math.Inf(1) },
		func(c *Config) { c.Steps = 0 },
		func(c *Config) { c.Model = nil },
		func(c *Config) { c.SpongeWidth = 12 },
		func(c *Config) { c.Stations = []seismo.Station{{Name: "bad", I: 99}} },
		func(c *Config) { c.Nonlinear = true },
	}
	for i, mut := range cases {
		c := baseConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestRunProducesWaves(t *testing.T) {
	sim, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sim.Dt() <= 0 || sim.Dt() > 0.9*100/4000 {
		t.Fatalf("auto dt %g outside CFL", sim.Dt())
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Recorder.Trace("S1")
	if tr == nil || len(tr.U) != 40 {
		t.Fatal("missing trace")
	}
	if tr.PeakVelocity() <= 0 {
		t.Fatal("no signal at the station")
	}
	if res.PGV.Max() <= 0 {
		t.Fatal("no PGV recorded")
	}
	if res.Steps != 40 || res.YieldedPointSteps != 0 {
		t.Fatalf("steps %d yielded %d", res.Steps, res.YieldedPointSteps)
	}
}

func TestExplicitDtChecked(t *testing.T) {
	cfg := baseConfig()
	cfg.Dt = 1.0 // way beyond CFL
	if _, err := New(cfg); err == nil {
		t.Fatal("super-CFL dt accepted")
	}
	cfg.Dt = 1e-4
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Dt() != 1e-4 {
		t.Fatal("explicit dt ignored")
	}
}

// rowWiseDt is the time step the engine derived before the sampling pass
// recorded its CFL bound: a row-wise scan of the block's interior.
func rowWiseDt(med *fd.Medium, dx float64) float64 {
	var m float64
	for i := 0; i < med.D.Nx; i++ {
		for j := 0; j < med.D.Ny; j++ {
			lam, mu, rho := med.Lam.Row(i, j), med.Mu.Row(i, j), med.Rho.Row(i, j)
			for k := range lam {
				if v := (float64(lam[k]) + 2*float64(mu[k])) / float64(rho[k]); v > m {
					m = v
				}
			}
		}
	}
	return 0.9 * model.CFLTimeStep(dx, math.Sqrt(m))
}

// modelFunc is a model given by a function.
type modelFunc func(x, y, z float64) model.Material

func (f modelFunc) Sample(x, y, z float64) model.Material { return f(x, y, z) }

// TestDerivedDtMatchesRowWiseScan: the time step derived from the sampling
// pass's bound is the row-wise scan's bit for bit — serially, and over 2x2
// ranks, whose blocks each bound their own interior and agree on the
// minimum — for the scaled basin, the heterogeneous job's model, and a model
// faster outside the domain, where the halo samples it and no interior does.
func TestDerivedDtMatchesRowWiseScan(t *testing.T) {
	cfg := baseConfig()
	cfg.Steps = 1
	lx, ly, lz := float64(cfg.Dims.Nx)*cfg.Dx, float64(cfg.Dims.Ny)*cfg.Dx, float64(cfg.Dims.Nz)*cfg.Dx
	basin := model.ScaledTangshan(lx, ly, lz)
	for name, m := range map[string]model.Model{
		"basin":         basin,
		"heterogeneous": model.NewHeterogeneous(cfg.Model, 0.05, 8*cfg.Dx, lx, ly, lz, 3),
		"faster outside": modelFunc(func(x, y, z float64) model.Material {
			if x < 0 || y >= ly {
				return model.Material{Vp: 9000, Vs: 5000, Rho: 2000}
			}
			return basin.Sample(x, y, z)
		}),
	} {
		cfg.Model = m
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := rowWiseDt(sim.Med, cfg.Dx)
		if math.Float64bits(sim.Dt()) != math.Float64bits(want) {
			t.Errorf("%s serial: dt %.17g, row-wise scan %.17g", name, sim.Dt(), want)
		}
		res, err := RunParallel(cfg, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.Dt) != math.Float64bits(want) {
			t.Errorf("%s 2x2: dt %.17g, row-wise scan %.17g", name, res.Dt, want)
		}
	}
}

// TestNewRejectsNonFiniteMaterial: one interior cell of infinite P speed
// fails set-up, naming the cell, instead of running at dt = 0 until the
// wavefield diverges; and a medium too slow for a finite time step fails
// instead of running at dt = +Inf. Serially and over 2x2 ranks.
func TestNewRejectsNonFiniteMaterial(t *testing.T) {
	cfg := baseConfig()
	base := cfg.Model
	for _, c := range []struct {
		m    model.Model
		want string
	}{
		{modelFunc(func(x, y, z float64) model.Material {
			if x == 500 && y == 700 && z == 300 {
				return model.Material{Vp: math.Inf(1), Vs: 2310, Rho: 2500}
			}
			return base.Sample(x, y, z)
		}), "non-finite material at (5,7,3)"},
		// valid, but its moduli round to 0 in float32
		{model.Homogeneous{M: model.Material{Vp: 1e-200, Vs: 0, Rho: 2500}}, "CFL time step +Inf is not finite and positive"},
	} {
		cfg.Model = c.m
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("New: got %v, want %q", err, c.want)
		}
		if _, err := RunParallel(cfg, 2, 2); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("2x2 ranks: got %v, want %q", err, c.want)
		}
	}
}

func TestNonlinearRunYields(t *testing.T) {
	cfg := baseConfig()
	cfg.Nonlinear = true
	cfg.Plasticity = PlasticityConfig{
		Cohesion:      2e4, // very weak material so the pulse yields
		FrictionAngle: 30 * math.Pi / 180,
	}
	cfg.Sources[0].S = source.Ricker{F0: 4, T0: 0.25, M0: 1e15}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.YieldedPointSteps == 0 {
		t.Fatal("nonlinear run never yielded")
	}

	// plasticity dissipates energy near the source, so the radiated peak
	// ground velocity must fall below the linear run's
	linCfg := baseConfig()
	linCfg.Sources[0].S = source.Ricker{F0: 4, T0: 0.25, M0: 1e15}
	linSim, _ := New(linCfg)
	linRes, err := linSim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if linRes.Recorder.Trace("S1").PeakVelocity() <= res.Recorder.Trace("S1").PeakVelocity() {
		t.Fatal("plasticity did not reduce radiated motion")
	}
}

func TestCalibrateCompressionProducesStats(t *testing.T) {
	cfg := baseConfig()
	cfg.Compression = compress.Off
	if codecs, err := calibrate(cfg); codecs != nil || err != nil {
		t.Fatalf("off: calibrated %v, %v; want no codecs", codecs, err)
	}
	for _, m := range []compress.Method{compress.Half, compress.Normalized} {
		cfg.Compression = m
		codecs, err := calibrate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(codecs) != len(FieldNames) {
			t.Fatalf("%v: %d codecs", m, len(codecs))
		}
		if m == compress.Half {
			continue // no calibration run: the half codec's range is fixed
		}
		// a codec over a degenerate range decodes every code to one value:
		// the coarse run must have seen motion and stress
		for _, i := range []int{0, 3} {
			if c := codecs[i]; c.Decode(0) >= c.Decode(0xffff) {
				t.Fatalf("%v: field %s codec covers [%g, %g]", m, FieldNames[i], c.Decode(0), c.Decode(0xffff))
			}
		}
	}
}

// runPair runs the same configuration with and without compression and
// returns both results (Fig. 6's comparison).
func runPair(t *testing.T, method compress.Method) (plain, comp *Result) {
	t.Helper()
	cfg := baseConfig()
	cfg.Steps = 60

	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err = sim.Run()
	if err != nil {
		t.Fatal(err)
	}

	ccfg := cfg
	ccfg.Compression = method
	csim, err := New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	comp, err = csim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return plain, comp
}

func TestCompressedRunMatchesReference(t *testing.T) {
	// Fig. 6: the compressed run reproduces the uncompressed seismogram
	// with a small misfit (sharp onset preserved, coda slightly off)
	for _, m := range []compress.Method{compress.Normalized, compress.Adaptive} {
		plain, comp := runPair(t, m)
		a := plain.Recorder.Trace("S1")
		b := comp.Recorder.Trace("S1")
		mis, err := a.RMSMisfit(b)
		if err != nil {
			t.Fatal(err)
		}
		if mis > 0.25 {
			t.Fatalf("%v: misfit %g too large", m, mis)
		}
		if mis == 0 {
			t.Fatalf("%v: zero misfit is implausible for lossy storage", m)
		}
		// amplitudes comparable
		pa, pb := a.PeakVelocity(), b.PeakVelocity()
		if math.Abs(pa-pb)/pa > 0.15 {
			t.Fatalf("%v: peak velocity %g vs %g", m, pb, pa)
		}
	}
}

func TestHalfDynamicRangeLimitation(t *testing.T) {
	// the paper's stated weakness of method 1 (IEEE half): stresses beyond
	// 65504 Pa overflow the 5-bit exponent and destabilize the run. Our
	// base scenario reaches ~1.4e5 Pa, so the half-compressed run must
	// either diverge or lose the reference badly...
	cfg := baseConfig()
	cfg.Steps = 60
	cfg.Compression = compress.Half
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := sim.Run()
	if runErr == nil {
		t.Fatal("half-precision run should diverge at ~1.4e5 Pa stresses (method 1's documented weakness)")
	}

	// ...while a small-amplitude scenario stays within half range and works
	small := baseConfig()
	small.Steps = 60
	small.Sources[0].S = source.Ricker{F0: 4, T0: 0.25, M0: 1e12}
	ssim, err := New(small)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ssim.Run()
	if err != nil {
		t.Fatal(err)
	}
	small.Compression = compress.Half
	csim, err := New(small)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := csim.Run()
	if err != nil {
		t.Fatal(err)
	}
	mis, err := plain.Recorder.Trace("S1").RMSMisfit(comp.Recorder.Trace("S1"))
	if err != nil {
		t.Fatal(err)
	}
	if mis > 0.3 {
		t.Fatalf("in-range half run misfit %g", mis)
	}
}

func TestCompressedNonlinearRuns(t *testing.T) {
	cfg := baseConfig()
	cfg.Steps = 30
	cfg.Nonlinear = true
	cfg.Plasticity = PlasticityConfig{Cohesion: 1e6, FrictionAngle: math.Pi / 6, Lithostatic: true}
	cfg.Compression = compress.Normalized
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPerfAccounting: a run's flops are its configuration's per-step count —
// velocity and stress on every point, plasticity on every point of a
// nonlinear run, the sponge on the cells it damps — times its steps, and the
// blocks of a decomposition damp exactly the serial cells.
func TestPerfAccounting(t *testing.T) {
	cfg := baseConfig()
	cfg.Steps = 10
	p := runSerial(t, cfg).Perf
	if p.Steps != 10 || p.Ran != 10 {
		t.Fatalf("perf steps %d, ran %d, want 10", p.Steps, p.Ran)
	}
	// the sponge counts only the cells it changes: everything outside the
	// undamped core [w,Nx-w) x [w,Ny-w) x [0,Nz-w)
	d, w := cfg.Dims, cfg.SpongeWidth
	pts := d.Points()
	damped := pts - int64(d.Nx-2*w)*int64(d.Ny-2*w)*int64(d.Nz-w)
	want := 10 * (pts*(fd.VelocityFlopsPerPoint+fd.StressFlopsPerPoint) + damped*fd.SpongeFlopsPerPoint)
	if p.Flops() != want {
		t.Fatalf("flops %d, want %d", p.Flops(), want)
	}
	pg, err := decomp.NewProcessGrid(d.Nx, d.Ny, d.Nz, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var blocks int64
	for id := 0; id < pg.Size(); id++ {
		i0, j0 := pg.Offset(id)
		b := pg.BlockDims()
		blocks += fd.NewSpongeGlobal(d.Nx, d.Ny, d.Nz, w, SpongeAlpha, i0, j0, b.Nx, b.Ny, b.Nz).DampedPoints()
	}
	if blocks != damped {
		t.Fatalf("2x2 blocks damp %d cells, the domain %d", blocks, damped)
	}
	par, err := RunParallel(cfg, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if par.Perf.Flops() != want || par.Perf.Ran != 10 {
		t.Fatalf("2x2 flops %d over %d steps, serial %d over 10", par.Perf.Flops(), par.Perf.Ran, want)
	}
	if p.Gflops() <= 0 || p.PointsPerSecond() <= 0 {
		t.Fatalf("degenerate perf: %v", p)
	}
	// nonlinear adds plasticity flops on every point
	nl := cfg
	nl.Nonlinear = true
	nl.Plasticity = PlasticityConfig{Cohesion: 1e6, FrictionAngle: 0.5}
	if got := runSerial(t, nl).Perf.Flops(); got != want+10*pts*plasticity.FlopsPerPoint {
		t.Fatalf("nonlinear flops %d, want %d", got, want+10*pts*plasticity.FlopsPerPoint)
	}
}

func TestDivergenceDetection(t *testing.T) {
	// force instability by bypassing the CFL guard after construction: the
	// runner must detect the blow-up and return an error, not NaNs
	cfg := baseConfig()
	cfg.Steps = 200
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Cfg.Dt *= 3 // well beyond the CFL limit
	if _, err := sim.Run(); err == nil {
		t.Fatal("diverging run not detected")
	}
}
