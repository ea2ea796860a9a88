package core

import (
	"math"
	"runtime"
	"testing"

	"swquake/internal/checkpoint"
	"swquake/internal/compress"
	"swquake/internal/cpu/cputest"
	"swquake/internal/fd"
	"swquake/internal/grid"
	"swquake/internal/telemetry"
)

// rankedConfig is the benchmark's physics at test size: plasticity with a
// lithostatic profile — kept weak enough that the cells around the sources
// still yield — and the constant-Q damper, twenty steps.
func rankedConfig() Config {
	cfg := chainConfig()
	cfg.Plasticity = PlasticityConfig{Cohesion: 5e3, FrictionAngle: 30 * math.Pi / 180, Lithostatic: true, LithoDensity: 1}
	cfg.Steps = 20
	return cfg
}

// expanded returns the full field that holds f's values: what a parameter
// stored at a lower rank stands for.
func expanded(f *grid.Field) *grid.Field {
	full := grid.NewField(f.Dims, f.H)
	n := f.Nz + 2*f.H // a z-row with its halos
	for i := -f.H; i < f.Nx+f.H; i++ {
		for j := -f.H; j < f.Ny+f.H; j++ {
			copy(full.Data[full.Idx(i, j, -f.H):][:n], f.Data[f.Idx(i, j, -f.H):][:n])
		}
	}
	return full
}

// runFullFields runs cfg on a simulator whose rank-stored parameters have
// been replaced by full 3D fields of the same values: the storage the engine
// had before parameters were stored at their rank.
func runFullFields(t *testing.T, cfg Config) *Result {
	t.Helper()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, a := sim.Plas, sim.atten
	for _, f := range []**grid.Field{&p.Cohes, &p.SinPhi, &p.CosPhi, &p.FluidPres, &p.Sigma2, &a.GP, &a.GS} {
		if len((*f).Data) != cfg.Dims.Nz+2*fd.Halo {
			t.Fatalf("the engine built a parameter of %d floats, want one z-row", len((*f).Data))
		}
		*f = expanded(*f)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRankedParametersMatchFullFields: parameters stored at their rank —
// constant rows for cohesion, friction, fluid pressure and the Q factors, a
// z-profile for the lithostatic stress, no yield-factor array — give the
// traces, PGV and yield count of the same values held in eight full fields:
// serial, on two tiles, restarted mid-run and on compressed storage against
// the same mode on full fields, and on 2x2 ranks against the serial
// full-field run; on both row paths.
func TestRankedParametersMatchFullFields(t *testing.T) {
	cputest.ForEachKernelPath(t, func(t *testing.T) {
		cfg := rankedConfig()
		modes := []struct {
			name string
			mut  func(t *testing.T, cfg *Config)
		}{
			{"serial", func(_ *testing.T, c *Config) { c.Tiles = 1 }},
			{"tiles=2", func(_ *testing.T, c *Config) { c.Tiles = 2 }},
			{"restarted mid-run", func(t *testing.T, c *Config) {
				first := *c
				first.Steps = c.Steps / 2
				first.Checkpoint = &checkpoint.Controller{Dir: t.TempDir(), Interval: first.Steps, Keep: 1}
				runSerial(t, first)
				c.RestartFrom = first.Checkpoint.Latest()
			}},
			{"compressed", func(_ *testing.T, c *Config) { c.Compression = compress.Normalized }},
		}
		var serial *Result
		for _, m := range modes {
			c := cfg
			m.mut(t, &c)
			want, got := runFullFields(t, c), runSerial(t, c)
			if want.YieldedPointSteps == 0 {
				t.Fatalf("%s: the full-field run never yields", m.name)
			}
			requireIdenticalResults(t, m.name, want, got, c)
			if serial == nil {
				serial = want
			}
		}
		got, err := RunParallel(cfg, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalResults(t, "2x2 ranks", serial, got, cfg)
	})
}

// TestNewAllocatesFieldsAtTheirRank: core.New of the nonlinear constant-Q
// configuration allocates 13 padded float32 fields — nine wavefield, four
// medium — and rows: nothing the configuration declares uniform or
// depth-only, and no yield-factor record, is a 3D array; and Storage, which
// the admission estimate is built on, says the same. Vs-scaled Q adds its
// two factor fields.
func TestNewAllocatesFieldsAtTheirRank(t *testing.T) {
	cfg := rankedConfig()
	cfg.Dims = grid.Dims{Nx: 48, Ny: 48, Nz: 32}
	cfg.Sources, cfg.Stations = cfg.Sources[:1], nil
	d := cfg.Dims
	field := float64(4 * (d.Nx + 2*fd.Halo) * (d.Ny + 2*fd.Halo) * (d.Nz + 2*fd.Halo))
	for _, tc := range []struct {
		name     string
		vsScaled bool
		fields   int
	}{{"constant Q", false, 13}, {"Vs-scaled Q", true, 15}} {
		cfg.Attenuation.VsScaled = tc.vsScaled
		if got := cfg.Storage().FullFields32; got != tc.fields {
			t.Errorf("%s: Storage counts %d full fields, want %d", tc.name, got, tc.fields)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(sim)
		got := float64(after.TotalAlloc-before.TotalAlloc) / field
		if got < float64(tc.fields) || got > float64(tc.fields)+0.5 {
			t.Errorf("%s: New allocated %.2f padded fields, want %d and rows", tc.name, got, tc.fields)
		}
	}
}

// TestBytesPerPointStepTable pins the byte accounting: what each sweep stage
// touches per point and step, with every array at the rank it is stored at.
func TestBytesPerPointStepTable(t *testing.T) {
	linear := baseConfig()
	linear.Dims = grid.Dims{Nx: 192, Ny: 192, Nz: 96}
	linear.SpongeWidth = 5
	// the share of the block the sponge damps: everything outside the box
	// that keeps 5 cells from the four sides and the bottom
	sponge := 24 * (1 - 182.0*182*91/(192*192*96))
	with := func(mut func(*Config)) Config {
		c := linear
		mut(&c)
		return c
	}
	const (
		vel, str, div = telemetry.StageVelocity, telemetry.StageStress, telemetry.StageDivergence
		pla, att, spo = telemetry.StagePlasticity, telemetry.StageAttenuation, telemetry.StageSponge
	)
	for _, tc := range []struct {
		name  string
		cfg   Config
		want  []StageBytes
		total float64
	}{
		{"linear", linear,
			[]StageBytes{{vel, 52}, {str, 72}, {spo, sponge}, {div, 12}}, 136 + sponge},
		{"linear, no sponge", with(func(c *Config) { c.SpongeWidth = 0 }),
			[]StageBytes{{vel, 52}, {str, 72}, {div, 12}}, 136},
		{"nonlinear", with(func(c *Config) { c.Nonlinear = true }),
			[]StageBytes{{vel, 52}, {str, 72}, {pla, 0}, {spo, sponge}, {div, 12}}, 136 + sponge},
		{"nonlinear, constant Q", with(func(c *Config) {
			c.Nonlinear = true
			c.Attenuation = AttenuationConfig{Enabled: true, Qp: 100, Qs: 50}
		}), []StageBytes{{vel, 52}, {str, 72}, {pla, 0}, {att, 0}, {spo, sponge}, {div, 12}}, 136 + sponge},
		{"Vs-scaled Q", with(func(c *Config) {
			c.Attenuation = AttenuationConfig{Enabled: true, VsScaled: true}
		}), []StageBytes{{vel, 52}, {str, 72}, {att, 8}, {spo, sponge}, {div, 12}}, 144 + sponge},
		{"SLS", with(func(c *Config) {
			c.Attenuation = AttenuationConfig{Enabled: true, UseSLS: true, Qp: 100, Qs: 50}
		}), []StageBytes{{vel, 52}, {str, 72}, {att, 52}, {spo, sponge}, {div, 12}}, 188 + sponge},
	} {
		got := tc.cfg.BytesPerPointStep()
		var total float64
		for _, sb := range got {
			total += sb.Bytes
		}
		if len(got) != len(tc.want) || math.Abs(total-tc.total) > 1e-9 {
			t.Errorf("%s: %v (total %g), want %v (total %g)", tc.name, got, total, tc.want, tc.total)
			continue
		}
		for i, sb := range got {
			if sb.Stage != tc.want[i].Stage || math.Abs(sb.Bytes-tc.want[i].Bytes) > 1e-9 {
				t.Errorf("%s: entry %d is %v %g, want %v %g", tc.name, i, sb.Stage, sb.Bytes, tc.want[i].Stage, tc.want[i].Bytes)
			}
		}
	}
}

// TestNonlinearStepAllocatesPerStepNotPerBlock: what a nonlinear constant-Q
// step allocates does not grow with how many blocks its stress chain runs
// on. The walk in strips of four columns runs the chain — plasticity
// included — once per plane-strip, some 150 times a step here, and may
// allocate no more than the one-slab walk, which runs it once: plasticity
// keeps no yield factor, so ApplyRegion allocates no row per call.
func TestNonlinearStepAllocatesPerStepNotPerBlock(t *testing.T) {
	allocs := func(planes, cols int) float64 {
		defer SetWalkGeometry(planes, cols)()
		cfg := rankedConfig()
		cfg.Steps = 100
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim.Step() // the first step builds what is built once (the medium's 1/mu)
		return testing.AllocsPerRun(20, sim.Step)
	}
	oneSlab, strips := allocs(1<<30, 1<<30), allocs(1, 4)
	if strips > oneSlab {
		t.Fatalf("a step allocates %g times in strips, %g times as one slab", strips, oneSlab)
	}
}
