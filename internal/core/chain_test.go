package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"swquake/internal/checkpoint"
	"swquake/internal/compress"
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
	// its own run at the derived geometry, not with the plain reference
	own bool
	run func(t *testing.T, cfg Config) *Result
}{
	{"serial", false, func(t *testing.T, cfg Config) *Result {
		cfg.Tiles = 1
		return runSerial(t, cfg)
	}},
	{"tiles=2", false, func(t *testing.T, cfg Config) *Result {
		cfg.Tiles = 2
		return runSerial(t, cfg)
	}},
	{"2x1 ranks, overlapped", false, func(t *testing.T, cfg Config) *Result {
		cfg.Overlap = true
		return runRanks(t, cfg)
	}},
	{"restarted mid-run", false, func(t *testing.T, cfg Config) *Result {
		first := cfg
		first.Steps = cfg.Steps / 2
		first.Checkpoint = &checkpoint.Controller{Dir: t.TempDir(), Interval: first.Steps, Keep: 1}
		runSerial(t, first)
		cfg.RestartFrom = first.Checkpoint.Latest()
		return runSerial(t, cfg)
	}},
	{"compressed", true, func(t *testing.T, cfg Config) *Result {
		cfg.Compression = compress.Normalized
		return runSerial(t, cfg)
	}},
	{"SLS", true, func(t *testing.T, cfg Config) *Result {
		cfg.Attenuation.UseSLS = true
		return runSerial(t, cfg)
	}},
}

// TestStressChainIsBitIdenticalAtEveryBlockSize: walking the step in
// slabs of one i-plane, of three, of the derived size and of the whole
// block, in strips of one column, of three (which leave a narrower last
// strip) and of whole planes, gives the same traces, PGV and yield count —
// serial, on two tiles, on 2x1 ranks with overlapped exchange, restarted
// mid-run, on compressed storage and with the SLS operator, under the Go
// rows and the assembly rows alike.
func TestStressChainIsBitIdenticalAtEveryBlockSize(t *testing.T) {
	cfg := chainConfig()
	var ref *Result
	own := map[string]*Result{}
	cputest.ForEachKernelPath(t, func(t *testing.T) {
		for _, g := range []geometry{{0, 0}, {1, 1 << 30}, {3, 3}, {1 << 30, 1 << 30}, {1, 1}, {1, 3}} {
			restore := SetWalkGeometry(g.planes, g.cols)
			for _, m := range chainModes {
				res := m.run(t, cfg)
				want := ref
				if m.own {
					want = own[m.name]
				}
				if want == nil { // the first run of its kind: derived geometry, Go rows
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
				requireIdenticalResults(t, fmt.Sprintf("%s, slabs of %d planes, strips of %d columns", m.name, g.planes, g.cols), want, res, cfg)
			}
			restore()
		}
	})
}

// TestStepMatchesWholeRegionStageSequence holds the engine's step — the walk
// in its derived geometry and in 1-plane slabs and strips of 1, 3 and 5
// columns and of whole planes, split sponge, free surface imaged three
// fields at a time, the SLS snapshot taken a region at a time in the chain —
// to the sequence it replaced, spelled here with the whole-region kernels
// and constant Q or SLS: every stage sweeps the block before the next starts,
// both free-surface passes
// image all six fields and the sponge damps all nine at the end. After every
// step the nine fields hold the same bits, ghost layers included (what a
// checkpoint stores), and the yield counts agree — so a stage out of order
// in the chain shows here.
func TestStepMatchesWholeRegionStageSequence(t *testing.T) {
	cputest.ForEachKernelPath(t, func(t *testing.T) {
		for _, cols := range []int{0, 1, 3, 5, 1 << 30} {
			t.Run(fmt.Sprintf("strips of %d columns", cols), func(t *testing.T) {
				defer SetWalkGeometry(min(cols, 1), cols)() // 0: derived
				stepMatchesWholeRegionStageSequence(t)
			})
		}
	})
}

func stepMatchesWholeRegionStageSequence(t *testing.T) {
	for _, sls := range []bool{false, true} {
		cfg := chainConfig()
		cfg.Attenuation.UseSLS = sls
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
			var prev fd.StressSnapshot
			prev.Take(ref.WF, box)
			fd.UpdateStressRegion(ref.WF, ref.Med, dtdx, box)
			if sls {
				ref.sls.AfterRegion(ref.WF, dt, &prev)
			}
			ref.srcs.InjectRegion(ref.WF, ref.simTime, dt, ref.Cfg.Dx, box)
			yielded += int64(plasticity.ApplyRegion(ref.WF, ref.Plas, dt, box))
			if !sls {
				ref.atten.ApplyRegion(ref.WF, box)
			}
			ref.sponge.ApplyRegion(ref.WF, box)
			ref.simTime += dt

			for c, f := range ref.WF.AllFields() {
				got := sim.WF.AllFields()[c]
				for idx, v := range f.Data {
					if math.Float32bits(v) != math.Float32bits(got.Data[idx]) {
						t.Fatalf("SLS %v, step %d: field %s differs at flat index %d: %g, whole-region sequence %g",
							sls, step, FieldNames[c], idx, got.Data[idx], v)
					}
				}
			}
		}
		if yielded == 0 || yielded != sim.yielded {
			t.Fatalf("SLS %v: %d yielded point-steps, whole-region sequence %d", sls, sim.yielded, yielded)
		}
	}
}

// TestStressPhaseObservesEachStageOncePerCall: however many slabs, strips
// and workers share a walk, the stage clock gets one observation
// per stage per walk — the sponge one for each half — and a lone block
// walks once a step.
func TestStressPhaseObservesEachStageOncePerCall(t *testing.T) {
	defer SetWalkGeometry(1, 3)()
	for _, tiles := range []int{1, 2} {
		cfg := chainConfig()
		cfg.Tiles = tiles
		cfg.Steps = 7
		seen := stageCounts(runSerial(t, cfg))
		for _, name := range []string{"velocity", "stress", "source", "plasticity", "attenuation"} {
			if seen[name] != int64(cfg.Steps) {
				t.Errorf("tiles=%d: stage %s observed %d times in %d steps", tiles, name, seen[name], cfg.Steps)
			}
		}
		// the sponge is observed for its stress half (in the chain) and for
		// its velocity half (behind it)
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

// TestSkewedPassObservesStagesAsTwoPassDoes: the walk in strips interleaves
// seven stages over hundreds of plane-strips a step, and the stage clock
// still gets what the one-slab walk (the two-pass order) gives it — every
// stage observed the same number of times, the sponge once for each half —
// summing to the run's wall time.
func TestSkewedPassObservesStagesAsTwoPassDoes(t *testing.T) {
	cfg := chainConfig()
	cfg.Steps = 7
	restore := SetWalkGeometry(1<<30, 1<<30)
	want := stageCounts(runSerial(t, cfg))
	restore()
	defer SetWalkGeometry(1, 3)()
	res := runSerial(t, cfg)
	got := stageCounts(res)
	if want["velocity"] != int64(cfg.Steps) || want["sponge"] != 2*int64(cfg.Steps) || want["free_surface"] != 2*int64(cfg.Steps) {
		t.Fatalf("one-slab observations: %v", want)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("strips observed %v, one slab %v", got, want)
	}
	total, wall := res.Stages.Report().TotalSeconds(), res.Perf.Elapsed.Seconds()
	if total < 0.9*wall || total > 1.05*wall {
		t.Errorf("stage total %.4f s vs wall %.4f s", total, wall)
	}
}

// TestWalkGeometryFollowsTheBlock: every block walks — on several workers,
// overlapped, SLS, compressed and core-group tallied alike — in 1-plane
// slabs and strips of at most skewStripPoints cells, as many as the workers
// share evenly, where it is larger than chainBlockPoints, as one slab where
// it is not. The serial cases say Tiles: 1; left 0, the block derives its
// two workers under GOMAXPROCS 2 and walks in their strips. What must see
// the finished velocity phase first gets the velocity kernel over the whole
// block before the post; a rank computes stresses before the wait only
// under Overlap, and then only in its interior.
func TestWalkGeometryFollowsTheBlock(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	big := chainConfig()
	big.Dims = grid.Dims{Nx: 96, Ny: 64, Nz: 16} // twice chainBlockPoints and more: so is half of it
	big.Sources = big.Sources[:1]
	big.Tiles = 1
	with := func(mut func(*Config)) Config {
		c := big
		mut(&c)
		return c
	}
	box := grid.Box(big.Dims)
	small := chainConfig()
	smallBox := grid.Box(small.Dims)
	// 64 columns of 16 cells are 1024 a plane-strip: one strip, two for two
	// workers
	strips := geometry{planes: 1, cols: 64}
	lone := [3]pass{{}, {vel: []grid.Region{box}, chain: []grid.Region{box}, sponge: []grid.Region{box}}, {}}
	for name, c := range map[string]struct {
		cfg   Config
		geom  geometry
		walks [3]pass
	}{
		"lone block":            {big, strips, lone},
		"tiles":                 {with(func(c *Config) { c.Tiles = 2 }), geometry{planes: 1, cols: 32}, lone},
		"derived":               {with(func(c *Config) { c.Tiles = 0 }), geometry{planes: 1, cols: 32}, lone},
		"overlap, no neighbour": {with(func(c *Config) { c.Overlap = true }), strips, lone},
		"SLS":                   {with(func(c *Config) { c.Attenuation.UseSLS = true }), strips, lone},
		"compressed":            {with(func(c *Config) { c.Compression = compress.Normalized }), strips, lone},
		"cache-resident block": {small, geometry{}, [3]pass{{},
			{vel: []grid.Region{smallBox}, chain: []grid.Region{smallBox}, sponge: []grid.Region{smallBox}}, {}}},
	} {
		sim, err := New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := sim.geometry(sim.tiles); got != c.geom {
			t.Errorf("%s: walks in %+v, want %+v", name, got, c.geom)
		}
		if fmt.Sprint(sim.walks) != fmt.Sprint(c.walks) {
			t.Errorf("%s: walks %v, want %v", name, sim.walks, c.walks)
		}
	}

	// the left rank of 2x1: a neighbour across its x+ face
	pg, err := decomp.NewProcessGrid(big.Dims.Nx, big.Dims.Ny, big.Dims.Nz, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := grid.Box(pg.BlockDims())
	for _, overlap := range []bool{false, true} {
		rank := &Simulator{Cfg: big, pg: pg}
		rank.Cfg.Dims, rank.Cfg.Overlap = pg.BlockDims(), overlap
		rank.planWalks()
		want := [3]pass{{vel: []grid.Region{b}}, {}, {chain: []grid.Region{b}, sponge: []grid.Region{b}}}
		if overlap {
			in1, in2 := grid.Region{I1: 46, J1: 64, K1: 16}, grid.Region{I1: 44, J1: 64, K1: 16}
			want = [3]pass{{vel: b.Minus(in1)},
				{vel: []grid.Region{in1}, chain: []grid.Region{in1}, sponge: []grid.Region{in2}},
				{chain: b.Minus(in1), sponge: b.Minus(in2)}}
		}
		if got := rank.geometry(1); got != strips {
			t.Errorf("rank, overlap %v: walks in %+v, want %+v", overlap, got, strips)
		}
		if fmt.Sprint(rank.walks) != fmt.Sprint(want) {
			t.Errorf("rank, overlap %v: walks %v, want %v", overlap, rank.walks, want)
		}
	}
}

// BenchmarkNonlinearStep is six steps of the nonlinear + constant-Q pipeline
// on a fresh block — one repetition of the repo benchmark's solver workload —
// at the DRAM-resident size and at the service job's cache-resident one, on
// the row path the host selects: the walk as one slab (each stage over the
// block in turn), in its derived geometry, and in 1-plane slabs at the
// ladder of strip widths behind the derived one.
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
			name         string
			planes, cols int
		}{{"one-slab", 1 << 30, 1 << 30}, {"derived", 0, 0}, {"J=16", 1, 16}, {"J=32", 1, 32}, {"J=48", 1, 48}, {"J=64", 1, 64}, {"J=96", 1, 96}, {"J=192", 1, 192}} {
			if arm.cols > d.Ny && arm.planes == 1 {
				continue
			}
			b.Run(fmt.Sprintf("%v/%s", d, arm.name), func(b *testing.B) {
				defer SetWalkGeometry(arm.planes, arm.cols)()
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
