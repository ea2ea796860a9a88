package core

import (
	"fmt"
	"math"
	"testing"

	"swquake/internal/checkpoint"
	"swquake/internal/compress"
	"swquake/internal/cpu"
	"swquake/internal/cpu/cputest"
	"swquake/internal/decomp"
	"swquake/internal/fd"
	"swquake/internal/grid"
	"swquake/internal/plasticity"
	"swquake/internal/source"
)

// chainConfig is the nonlinear heterogeneous run with constant-Q attenuation
// the block-size tests use. Besides the scenario's source it has pairs of
// co-located sources of very different size — whose sum depends on the order
// they are added in — on the planes that open and close a three-plane block
// (i = 3 and 5), open the second tile of two (i = 12) and close the block,
// and on the columns that open and close a three-column strip of the skewed
// pass, the lagging strip of the stress chain behind it (j = 12 and 10), the
// first strip and the last, whose lagging ranges are clamped to the block's
// edge (j = 0 and Ny-1).
func chainConfig() Config {
	cfg := heterogeneousConfig()
	cfg.Nonlinear = true
	// no lithostatic confinement: the cells around the sources yield
	cfg.Plasticity = PlasticityConfig{Cohesion: 5e4, FrictionAngle: 30 * math.Pi / 180}
	cfg.Attenuation = AttenuationConfig{Enabled: true, F0: 3, Qp: 60, Qs: 30}
	for _, i := range []int{3, 5, 12, cfg.Dims.Nx - 1} {
		cfg.Sources = append(cfg.Sources,
			source.PointSource{I: i, J: 11, K: 9, M: source.Explosion(), S: source.Ricker{F0: 4, T0: 0.2, M0: 3e12}},
			source.PointSource{I: i, J: 11, K: 9, M: source.StrikeSlipXY(), S: source.Ricker{F0: 5, T0: 0.22, M0: 7e8}},
			source.PointSource{I: i, J: 11, K: 9, M: source.Explosion(), S: source.Ricker{F0: 3, T0: 0.21, M0: -2.9e12}})
	}
	for _, j := range []int{0, 10, 12, cfg.Dims.Ny - 1} {
		cfg.Sources = append(cfg.Sources,
			source.PointSource{I: 7, J: j, K: 9, M: source.Explosion(), S: source.Ricker{F0: 4, T0: 0.2, M0: 3e12}},
			source.PointSource{I: 7, J: j, K: 9, M: source.StrikeSlipXY(), S: source.Ricker{F0: 5, T0: 0.22, M0: 7e8}},
			source.PointSource{I: 7, J: j, K: 9, M: source.Explosion(), S: source.Ricker{F0: 3, T0: 0.21, M0: -2.9e12}})
	}
	return cfg
}

// chainModes are the ways of running a configuration whose results must
// not depend on the block size; each returns the run's result.
var chainModes = []struct {
	name string
	// own marks a mode whose physics differs from the plain serial run
	// (lossy storage, another attenuation operator): it is compared with
	// its own run at the derived block size, not with the plain reference
	own bool
	// skews marks a mode whose block one worker owns alone: the only ones a
	// strip width of the skewed pass changes anything for
	skews bool
	run   func(t *testing.T, cfg Config) *Result
}{
	{"serial", false, true, func(t *testing.T, cfg Config) *Result { return runSerial(t, cfg) }},
	{"tiles=2", false, false, func(t *testing.T, cfg Config) *Result {
		cfg.Tiles = 2
		return runSerial(t, cfg)
	}},
	{"2x1 ranks, overlapped", false, false, func(t *testing.T, cfg Config) *Result {
		cfg.Overlap = true
		return runRanks(t, cfg)
	}},
	{"restarted mid-run", false, true, func(t *testing.T, cfg Config) *Result {
		first := cfg
		first.Steps = cfg.Steps / 2
		first.Checkpoint = &checkpoint.Controller{Dir: t.TempDir(), Interval: first.Steps, Keep: 1}
		runSerial(t, first)
		cfg.RestartFrom = first.Checkpoint.Latest()
		return runSerial(t, cfg)
	}},
	{"compressed", true, false, func(t *testing.T, cfg Config) *Result {
		stats, err := CalibrateCompression(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Compression = CompressionConfig{Method: compress.Normalized, Stats: stats}
		return runSerial(t, cfg)
	}},
	{"SLS", true, false, func(t *testing.T, cfg Config) *Result {
		cfg.Attenuation.UseSLS = true
		return runSerial(t, cfg)
	}},
}

// TestStressChainIsBitIdenticalAtEveryBlockSize: walking the stress-side
// chain in blocks of one i-plane, of three, of the derived size and of the
// whole region gives the same traces, PGV and yield count — serial, on two
// tiles, on 2x1 ranks with overlapped exchange, restarted mid-run, on
// compressed storage and with the SLS operator, under the Go rows and the
// assembly rows alike. So does the skewed velocity→stress pass, where one
// worker owns the block alone, in strips of one column, of three (which
// leave a narrower last strip) and of whole planes.
func TestStressChainIsBitIdenticalAtEveryBlockSize(t *testing.T) {
	cfg := chainConfig()
	var ref *Result
	own := map[string]*Result{}
	cputest.ForEachKernelPath(t, func(t *testing.T) {
		for _, walk := range []struct{ planes, cols int }{
			{0, 0}, {1, 0}, {3, 0}, {1 << 30, 0}, {0, 1}, {0, 3}, {0, 1 << 30},
		} {
			restorePlanes, restoreCols := SetChainBlockPlanes(walk.planes), SetSkewStripCols(walk.cols)
			for _, m := range chainModes {
				if walk.cols != 0 && !m.skews {
					continue
				}
				res := m.run(t, cfg)
				want := ref
				if m.own {
					want = own[m.name]
				}
				if want == nil { // the first run of its kind: derived size, Go rows
					if res.YieldedPointSteps == 0 {
						t.Fatalf("%s: the reference run never yields", m.name)
					}
					if m.own {
						own[m.name] = res
					} else {
						ref = res
					}
					continue
				}
				requireIdenticalResults(t, fmt.Sprintf("%s, blocks of %d planes, strips of %d columns", m.name, walk.planes, walk.cols), want, res, cfg)
			}
			restorePlanes()
			restoreCols()
		}
	})
}

// TestStepMatchesWholeRegionStageSequence holds the engine's step — blocked
// chain, split sponge, free surface imaged three fields at a time — to the
// sequence it replaced, spelled here with the whole-region kernels: every
// stage sweeps the block before the next starts, both free-surface passes
// image all six fields and the sponge damps all nine at the end. After every
// step the nine fields hold the same bits, ghost layers included (what a
// checkpoint stores), and the yield counts agree — so a stage out of order
// in the chain shows here.
func TestStepMatchesWholeRegionStageSequence(t *testing.T) {
	cputest.ForEachKernelPath(t, func(t *testing.T) {
		for _, cols := range []int{0, 1, 3, 5, 1 << 30} {
			t.Run(fmt.Sprintf("strips of %d columns", cols), func(t *testing.T) {
				defer SetSkewStripCols(cols)()
				stepMatchesWholeRegionStageSequence(t)
			})
		}
	})
}

func stepMatchesWholeRegionStageSequence(t *testing.T) {
	{
		cfg := chainConfig()
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		box := grid.Box(cfg.Dims)
		dt, dtdx := ref.Cfg.Dt, float32(ref.Cfg.Dt/ref.Cfg.Dx)
		var yielded int64
		for step := 1; step <= cfg.Steps; step++ {
			sim.Step()

			fd.ApplyFreeSurface(ref.WF)
			fd.UpdateVelocityRegion(ref.WF, ref.Med, dtdx, box)
			fd.ApplyFreeSurface(ref.WF)
			fd.UpdateStressRegion(ref.WF, ref.Med, dtdx, box)
			ref.srcs.InjectRegion(ref.WF, ref.simTime, dt, ref.Cfg.Dx, box)
			yielded += int64(plasticity.ApplyRegion(ref.WF, ref.Plas, dt, box))
			ref.atten.ApplyRegion(ref.WF, box)
			ref.sponge.ApplyRegion(ref.WF, box)
			ref.simTime += dt

			for c, f := range ref.WF.AllFields() {
				got := sim.WF.AllFields()[c]
				for idx, v := range f.Data {
					if math.Float32bits(v) != math.Float32bits(got.Data[idx]) {
						t.Fatalf("step %d: field %s differs at flat index %d: %g, whole-region sequence %g",
							step, FieldNames[c], idx, got.Data[idx], v)
					}
				}
			}
		}
		if yielded == 0 || yielded != sim.yielded {
			t.Fatalf("%d yielded point-steps, whole-region sequence %d", sim.yielded, yielded)
		}
	}
}

// TestStressPhaseObservesEachStageOncePerCall: however many blocks and
// workers share a stressPhase call, the stage clock gets one observation per
// stage of the chain per call, and their sum is the wall time of the call.
func TestStressPhaseObservesEachStageOncePerCall(t *testing.T) {
	defer SetChainBlockPlanes(1)()
	for _, tiles := range []int{1, 2} {
		cfg := chainConfig()
		cfg.Tiles = tiles
		cfg.Steps = 7
		seen := stageCounts(runSerial(t, cfg))
		for _, name := range []string{"stress", "source", "plasticity", "attenuation"} {
			if seen[name] != int64(cfg.Steps) {
				t.Errorf("tiles=%d: stage %s observed %d times in %d steps", tiles, name, seen[name], cfg.Steps)
			}
		}
		// the sponge is observed for its stress half (in the chain) and for
		// its velocity half (after it)
		if seen["sponge"] != 2*int64(cfg.Steps) {
			t.Errorf("tiles=%d: sponge observed %d times in %d steps", tiles, seen["sponge"], cfg.Steps)
		}
	}
}

func stageCounts(res *Result) map[string]int64 {
	seen := map[string]int64{}
	for _, st := range res.Stages.Report().Stages {
		seen[st.Name] = st.Count
	}
	return seen
}

// TestSkewedPassObservesStagesAsTwoPassDoes: the skewed pass interleaves
// seven stages over hundreds of strip-planes a step, and the stage clock
// still gets what the two-pass order gives it — every stage observed the same
// number of times, the sponge once for each half — summing to the run's wall
// time.
func TestSkewedPassObservesStagesAsTwoPassDoes(t *testing.T) {
	cfg := chainConfig()
	cfg.Steps = 7
	want := stageCounts(runSerial(t, cfg))
	defer SetSkewStripCols(3)()
	res := runSerial(t, cfg)
	got := stageCounts(res)
	if want["velocity"] != int64(cfg.Steps) || want["sponge"] != 2*int64(cfg.Steps) || want["free_surface"] != 3*int64(cfg.Steps) {
		t.Fatalf("two-pass observations: %v", want)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("skewed pass observed %v, two-pass %v", got, want)
	}
	total, wall := res.Stages.Report().TotalSeconds(), res.Perf.Elapsed.Seconds()
	if total < 0.9*wall || total > 1.05*wall {
		t.Errorf("stage total %.4f s vs wall %.4f s", total, wall)
	}
}

// TestSkewedPassIsForABlockOneWorkerOwns: the step runs skewed only on a
// plain-storage host-kernel block with no neighbour, no tile pool, no shells
// and no SLS snapshot, and only where the block is more than one chain
// block; the strips hold skewStripPoints cells.
func TestSkewedPassIsForABlockOneWorkerOwns(t *testing.T) {
	big := chainConfig()
	big.Dims = grid.Dims{Nx: 48, Ny: 64, Nz: 16} // 49152 cells: more than chainBlockPoints
	big.Sources = big.Sources[:1]
	strip := func(cfg Config) int {
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sim.skewStrip()
	}
	with := func(mut func(*Config)) Config {
		c := big
		mut(&c)
		return c
	}
	if got, want := strip(big), skewStripPoints/16; got != want {
		t.Errorf("a lone %v block walks strips of %d columns, want %d", big.Dims, got, want)
	}
	stats, err := CalibrateCompression(big, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]Config{
		"cache-resident block": chainConfig(),
		"tiles":                with(func(c *Config) { c.Tiles = 2 }),
		"overlap shells":       with(func(c *Config) { c.Overlap = true }),
		"SLS":                  with(func(c *Config) { c.Attenuation.UseSLS = true }),
		"core-group executor":  with(func(c *Config) { c.SunwaySim = true; c.Dims.Nx, c.Dims.Ny = 32, 32 }),
		"compressed": with(func(c *Config) {
			c.Compression = CompressionConfig{Method: compress.Normalized, Stats: stats}
		}),
	} {
		if got := strip(cfg); got != 0 {
			t.Errorf("%s: skewed in strips of %d columns, want two-pass", name, got)
		}
	}
	pg, err := decomp.NewProcessGrid(big.Dims.Nx, big.Dims.Ny, big.Dims.Nz, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := big.Validate(); err != nil {
		t.Fatal(err)
	}
	rank := &Simulator{Cfg: big, pg: pg, tiles: 1}
	rank.Cfg.Dims = pg.BlockDims()
	if got := rank.skewStrip(); got != 0 {
		t.Errorf("a rank with a neighbour skews in strips of %d columns, want two-pass", got)
	}
}

// BenchmarkStressChain is the ladder behind the blocked chain: six steps of
// the nonlinear + Q pipeline on a fresh DRAM-resident block (what one
// repetition of the repo benchmark's solver workload times), with the
// stress-side chain walked whole-region — every stage sweeps the block
// before the next starts, as the unblocked chain did — and in the derived
// x-blocks, on each row path this host can run.
func BenchmarkStressChain(b *testing.B) {
	cfg := chainConfig()
	cfg.Dims = grid.Dims{Nx: 192, Ny: 192, Nz: 96}
	cfg.Sources, cfg.Stations = cfg.Sources[:1], cfg.Stations[:1]
	cfg.RecordPGV = false
	const steps = 6
	was := cpu.AVX2
	defer func() { cpu.AVX2 = was }()
	for _, on := range cputest.KernelPaths() {
		for _, arm := range []struct {
			name   string
			planes int
		}{{"whole-region", 1 << 30}, {"blocked", 0}} {
			cpu.AVX2 = on
			b.Run(cpu.KernelPath()+"/"+arm.name, func(b *testing.B) {
				defer SetChainBlockPlanes(arm.planes)()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					sim, err := New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					for n := 0; n < steps; n++ {
						sim.Step()
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/steps/float64(cfg.Dims.Points()), "ns/point-step")
			})
		}
	}
}

// BenchmarkNonlinearStep is six steps of the nonlinear + constant-Q pipeline
// on a fresh block — one repetition of the repo benchmark's solver workload —
// at the DRAM-resident size and at the service job's cache-resident one, on
// the row path the host selects: two-pass (velocity sweep, then the blocked
// stress chain), the skewed pass at the derived strip width, and the ladder
// of strip widths behind that width.
//
//	go test ./internal/core -run '^$' -bench NonlinearStep -benchtime 3x -count 10 -cpu 1
func BenchmarkNonlinearStep(b *testing.B) {
	const steps = 6
	for _, d := range []grid.Dims{{Nx: 192, Ny: 192, Nz: 96}, {Nx: 32, Ny: 32, Nz: 24}} {
		cfg := chainConfig()
		cfg.Dims = d
		cfg.Plasticity.Lithostatic, cfg.Plasticity.LithoDensity = true, 2400
		cfg.SpongeWidth = 5
		cfg.Sources, cfg.Stations = cfg.Sources[:1], cfg.Stations[:1]
		cfg.Steps = steps
		var touched float64
		for _, sb := range cfg.BytesPerPointStep() {
			touched += sb.Bytes
		}
		for _, arm := range []struct {
			name string
			cols int
		}{{"two-pass", -1}, {"skewed", 0}, {"J=16", 16}, {"J=32", 32}, {"J=48", 48}, {"J=64", 64}, {"J=96", 96}, {"J=192", 192}} {
			if arm.cols > d.Ny {
				continue
			}
			b.Run(fmt.Sprintf("%v/%s", d, arm.name), func(b *testing.B) {
				defer SetSkewStripCols(arm.cols)()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					sim, err := New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					for n := 0; n < steps; n++ {
						sim.Step()
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/steps/float64(d.Points()), "ns/point-step")
				b.ReportMetric(touched, "B/point-step")
			})
		}
	}
}
