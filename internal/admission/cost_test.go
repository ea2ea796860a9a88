package admission

import (
	"runtime"
	"testing"

	"swquake/internal/checkpoint"
	"swquake/internal/compress"
	"swquake/internal/core"
	"swquake/internal/decomp"
	"swquake/internal/grid"
	"swquake/internal/model"
	"swquake/internal/seismo"
	"swquake/internal/source"
)

func costConfig(nx, ny, nz int) core.Config {
	return core.Config{
		Dims:  grid.Dims{Nx: nx, Ny: ny, Nz: nz},
		Dx:    100,
		Steps: 50,
		Model: model.Homogeneous{M: model.Material{Vp: 4000, Vs: 2310, Rho: 2500}},
		Sources: []source.PointSource{{
			I: nx / 2, J: ny / 2, K: nz / 2,
			M: source.Explosion(),
			S: source.Ricker{F0: 4, T0: 0.25, M0: 1e13},
		}},
		Stations:    []seismo.Station{{Name: "S1", I: nx / 3, J: ny / 2, K: 0}},
		SpongeWidth: 4,
		RecordPGV:   true,
	}
}

// measureLiveAlloc reports the heap bytes kept live by build's result.
func measureLiveAlloc(t *testing.T, build func() any) int64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	obj := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(obj)
	return live
}

// TestEstimateCostTracksMemStats pins the cost model to reality: for
// representative configurations the estimate must stay within
// CostAccuracyFactor of the heap the engine actually keeps live after
// core.New. This is the test that fails if the allocator and
// core.Config.Storage drift apart.
func TestEstimateCostTracksMemStats(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates tens of MB")
	}
	cases := []struct {
		name string
		mut  func(*core.Config)
	}{
		{"elastic", func(c *core.Config) {}},
		{"nonlinear", func(c *core.Config) {
			c.Nonlinear = true
			c.Plasticity = core.PlasticityConfig{Cohesion: 5e6, FrictionAngle: 30}
		}},
		{"compressed+attenuation", func(c *core.Config) {
			c.Compression = compress.Half
			c.Attenuation = core.AttenuationConfig{Enabled: true, Qp: 100, Qs: 50}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := costConfig(64, 64, 48) // ~17MB base: well above GC noise
			tc.mut(&cfg)
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			est := EstimateCost(cfg, 1, 1).Bytes
			measured := measureLiveAlloc(t, func() any {
				sim, err := core.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return sim
			})
			t.Logf("estimate %s, measured %s", FormatBytes(est), FormatBytes(measured))
			if measured <= 0 {
				t.Fatalf("implausible measurement %d", measured)
			}
			if float64(est) > float64(measured)*CostAccuracyFactor ||
				float64(measured) > float64(est)*CostAccuracyFactor {
				t.Fatalf("estimate %d vs measured %d outside factor %g",
					est, measured, CostAccuracyFactor)
			}
		})
	}
}

// TestEstimateCostIsTightForTheSolverWorkload: for the job shape the repo
// benchmark's solver workload runs — nonlinear, lithostatic, constant Q,
// sponge and PGV map, here at 96x96x48 — the estimate is within 10% of the
// heap core.New keeps, not merely inside the CostAccuracyFactor envelope:
// Storage counts every array at the rank the engine stores it at, so eight
// parameter arrays that hold a number or a depth profile are not budgeted
// as 3D fields.
func TestEstimateCostIsTightForTheSolverWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates tens of MB")
	}
	cfg := costConfig(96, 96, 48)
	cfg.Nonlinear = true
	cfg.Plasticity = core.PlasticityConfig{Cohesion: 5e4, FrictionAngle: 0.5236, Lithostatic: true}
	cfg.Attenuation = core.AttenuationConfig{Enabled: true, Qp: 100, Qs: 50}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := cfg.Storage().FullFields32; got != 13 {
		t.Fatalf("Storage counts %d full fields, want the 9 + 4 of wavefield and medium", got)
	}
	est := EstimateCost(cfg, 1, 1).Bytes
	measured := measureLiveAlloc(t, func() any {
		sim, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sim
	})
	t.Logf("estimate %s, measured %s", FormatBytes(est), FormatBytes(measured))
	if r := float64(est) / float64(measured); r < 0.9 || r > 1.1 {
		t.Fatalf("estimate %d vs measured %d: ratio %.3f outside 10%%", est, measured, r)
	}
}

// TestEstimateCostCountsTheExchangedFieldsOnly: the halo buffers of a
// decomposed run hold the nine wavefield fields, whatever else the
// configuration allocates — medium and parameter arrays are never exchanged.
func TestEstimateCostCountsTheExchangedFieldsOnly(t *testing.T) {
	cfg := costConfig(64, 64, 48)
	cfg.Attenuation = core.AttenuationConfig{Enabled: true, UseSLS: true, Qp: 100, Qs: 50}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	pg, err := decomp.NewProcessGrid(64, 64, 48, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var halo int64
	for r := 0; r < pg.Size(); r++ {
		halo += pg.HaloBytesPerStep(r, len(core.FieldNames), grid.DefaultHalo)
	}
	b := pg.BlockDims()
	padded := int64(b.Nx+4) * int64(b.Ny+4) * int64(b.Nz+4)
	arrays := 4 * padded * 4 * int64(cfg.Storage().FullFields32)
	maps := 4*int64(b.Nx*b.Ny)*8 + 64*64*8
	traces := int64(len(cfg.Stations)) * int64(cfg.Steps+1) * 3 * 4
	if got, want := EstimateCost(cfg, 2, 2).Bytes, arrays+maps+traces+halo; got != want {
		t.Fatalf("2x2 estimate %d B, want %d B: arrays %d + maps %d + traces %d + halo buffers of nine fields %d",
			got, want, arrays, maps, traces, halo)
	}
}

func TestEstimateCostParallelGeometry(t *testing.T) {
	cfg := costConfig(64, 64, 48)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	serial := EstimateCost(cfg, 1, 1)
	par := EstimateCost(cfg, 2, 2)
	if par.Bytes <= serial.Bytes {
		t.Fatalf("4 ranks (%d B) must cost more than serial (%d B): halo duplication",
			par.Bytes, serial.Bytes)
	}
	// An invalid layout (64 not divisible by 3) falls back to the serial
	// shape rather than returning garbage.
	if got := EstimateCost(cfg, 3, 1); got.Bytes != serial.Bytes {
		t.Fatalf("invalid layout estimate %d, want serial fallback %d", got.Bytes, serial.Bytes)
	}
}

func TestEstimateCostMonotoneInVolume(t *testing.T) {
	for _, base := range [][3]int{{16, 16, 12}, {32, 24, 16}, {48, 48, 32}} {
		cfg := costConfig(base[0], base[1], base[2])
		small := EstimateCost(cfg, 1, 1)
		for axis := 0; axis < 3; axis++ {
			grown := base
			grown[axis] *= 2
			big := EstimateCost(costConfig(grown[0], grown[1], grown[2]), 1, 1)
			if big.Bytes < small.Bytes {
				t.Fatalf("doubling axis %d of %v shrank the estimate: %+v -> %+v",
					axis, base, small, big)
			}
		}
	}
}

// FuzzEstimateCost is the property check the issue calls for: across
// arbitrary configurations the estimate is non-negative and monotone in
// grid volume.
func FuzzEstimateCost(f *testing.F) {
	f.Add(16, 16, 12, 100, true, false, false, false, 1, 1)
	f.Add(64, 64, 48, 2000, false, true, true, true, 2, 2)
	f.Add(7, 3, 1, 1, false, false, false, false, 4, 4)
	f.Fuzz(func(t *testing.T, nx, ny, nz, steps int, nonlinear, atten, sls, comp bool, mx, my int) {
		clamp := func(v, lo, hi int) int {
			if v < lo {
				return lo
			}
			if v > hi {
				return hi
			}
			return v
		}
		nx, ny, nz = clamp(nx, 1, 96), clamp(ny, 1, 96), clamp(nz, 1, 96)
		steps = clamp(steps, 1, 1<<20)
		mx, my = clamp(mx, 1, 8), clamp(my, 1, 8)

		cfg := costConfig(nx, ny, nz)
		cfg.Steps = steps
		cfg.SpongeWidth = 0
		cfg.Nonlinear = nonlinear
		if nonlinear {
			cfg.Plasticity = core.PlasticityConfig{Cohesion: 5e6, FrictionAngle: 30}
		}
		cfg.Attenuation = core.AttenuationConfig{Enabled: atten, UseSLS: sls, Qp: 100, Qs: 50}
		if comp {
			cfg.Compression = compress.Half
		}

		c := EstimateCost(cfg, mx, my)
		if c.Bytes < 0 {
			t.Fatalf("negative cost %+v for %dx%dx%d on %dx%d", c, nx, ny, nz, mx, my)
		}
		if c.Bytes == 0 {
			t.Fatalf("zero byte estimate for a valid grid %dx%dx%d", nx, ny, nz)
		}
		// Monotone in volume: growing z (which never changes the x/y rank
		// layout) must not shrink either component.
		big := cfg
		big.Dims.Nz = clamp(nz*2, nz+1, 192)
		bc := EstimateCost(big, mx, my)
		if bc.Bytes < c.Bytes {
			t.Fatalf("growing nz %d->%d shrank cost: %+v -> %+v", nz, big.Dims.Nz, c, bc)
		}
		// More steps never cost fewer bytes (the seismograms grow).
		longer := cfg
		longer.Steps = steps + 1
		if lc := EstimateCost(longer, mx, my); lc.Bytes < c.Bytes {
			t.Fatalf("adding a step shrank the estimate: %v -> %v", c.Bytes, lc.Bytes)
		}
	})
}

// TestEstimateCostCountsTheCheckpointLane pins the checkpoint term to a live
// run: a checkpointing job is priced one global padded wavefield above the
// same job without, on any layout (the serial snapshot, or rank 0's gather
// buffer); mid-run the whole estimate stays within CostAccuracyFactor of the
// live heap; and what the run's final Close releases — the snapshot and the
// codec scratch — is at least that term and not much more, so the term is
// neither missing nor pinned by a finished job.
func TestEstimateCostCountsTheCheckpointLane(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates tens of MB")
	}
	cfg := costConfig(64, 64, 48)
	cfg.Steps = 4
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	plain := cfg
	cfg.Checkpoint = &checkpoint.Controller{Dir: t.TempDir(), Interval: 2}
	h := int64(grid.DefaultHalo)
	lane := (64 + 2*h) * (64 + 2*h) * (48 + 2*h) * 9 * 4
	for _, layout := range [][2]int{{1, 1}, {2, 2}} {
		with := EstimateCost(cfg, layout[0], layout[1]).Bytes
		without := EstimateCost(plain, layout[0], layout[1]).Bytes
		if with-without != lane {
			t.Fatalf("%dx%d: checkpointing adds %d bytes, want one global wavefield (%d)",
				layout[0], layout[1], with-without, lane)
		}
	}
	off := cfg
	off.Checkpoint = &checkpoint.Controller{} // no interval: never dumps
	if EstimateCost(off, 1, 1).Bytes != EstimateCost(plain, 1, 1).Bytes {
		t.Fatal("a controller that never dumps was priced")
	}

	var before, during, after runtime.MemStats
	cfg.Observer = func(ev core.StepEvent) {
		if ev.Step == 3 { // the step-2 dump has been snapshotted
			runtime.GC()
			runtime.ReadMemStats(&during)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&before)
	sim, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sim)

	est := EstimateCost(cfg, 1, 1).Bytes
	measured := int64(during.HeapAlloc) - int64(before.HeapAlloc)
	released := int64(during.HeapAlloc) - int64(after.HeapAlloc)
	t.Logf("estimate %s, mid-run %s, released at Close %s (lane term %s)",
		FormatBytes(est), FormatBytes(measured), FormatBytes(released), FormatBytes(lane))
	if float64(est) > float64(measured)*CostAccuracyFactor ||
		float64(measured) > float64(est)*CostAccuracyFactor {
		t.Fatalf("estimate %d vs mid-run heap %d outside factor %g", est, measured, CostAccuracyFactor)
	}
	if released < lane || float64(released) > 1.5*float64(lane) {
		t.Fatalf("the run's Close released %d bytes, want the lane's %d (+ codec scratch)", released, lane)
	}
}

// TestEstimateCostChargesCompressedStorageAsPlain: compressed storage keeps
// the float32 wavefield as its one copy and round trips it in place, so a
// compressed run costs what the plain run does, serial and on ranks.
func TestEstimateCostChargesCompressedStorageAsPlain(t *testing.T) {
	plain := costConfig(32, 32, 24)
	for _, m := range []compress.Method{compress.Half, compress.Adaptive, compress.Normalized} {
		comp := plain
		comp.Compression = m
		for _, pg := range [][2]int{{1, 1}, {2, 2}} {
			if got, want := EstimateCost(comp, pg[0], pg[1]), EstimateCost(plain, pg[0], pg[1]); got != want {
				t.Fatalf("%v on %dx%d: estimate %+v, plain run %+v", m, pg[0], pg[1], got, want)
			}
		}
	}
}
