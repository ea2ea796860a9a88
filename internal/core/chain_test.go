package core

import (
	"fmt"
	"math"
	"testing"

	"swquake/internal/checkpoint"
	"swquake/internal/compress"
	"swquake/internal/cpu"
	"swquake/internal/cpu/cputest"
	"swquake/internal/fd"
	"swquake/internal/grid"
	"swquake/internal/plasticity"
	"swquake/internal/source"
)

// chainConfig is the nonlinear heterogeneous run with constant-Q attenuation
// the block-size tests use. Besides the scenario's source it has pairs of
// co-located sources of very different size — whose sum depends on the order
// they are added in — on the planes that open and close a three-plane block
// (i = 3 and 5), open the second tile of two (i = 12) and close the block.
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
	run func(t *testing.T, cfg Config) *Result
}{
	{"serial", false, func(t *testing.T, cfg Config) *Result { return runSerial(t, cfg) }},
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
	{"compressed slabs", true, func(t *testing.T, cfg Config) *Result {
		stats, err := CalibrateCompression(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Compression = CompressionConfig{Method: compress.Normalized, Stats: stats, SlabHeight: 8}
		return runSerial(t, cfg)
	}},
	{"SLS", true, func(t *testing.T, cfg Config) *Result {
		cfg.Attenuation.UseSLS = true
		return runSerial(t, cfg)
	}},
}

// TestStressChainIsBitIdenticalAtEveryBlockSize: walking the stress-side
// chain in blocks of one i-plane, of three, of the derived size and of the
// whole region gives the same traces, PGV and yield count — serial, on two
// tiles, on 2x1 ranks with overlapped exchange, restarted mid-run, on
// compressed slabs and with the SLS operator, under the Go rows and the
// assembly rows alike.
func TestStressChainIsBitIdenticalAtEveryBlockSize(t *testing.T) {
	cfg := chainConfig()
	var ref *Result
	own := map[string]*Result{}
	cputest.ForEachKernelPath(t, func(t *testing.T) {
		for _, planes := range []int{0, 1, 3, 1 << 30} {
			restore := SetChainBlockPlanes(planes)
			for _, m := range chainModes {
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
				requireIdenticalResults(t, fmt.Sprintf("%s, blocks of %d planes", m.name, planes), want, res, cfg)
			}
			restore()
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
	})
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
		res := runSerial(t, cfg)
		seen := map[string]int64{}
		for _, st := range res.Stages.Report().Stages {
			seen[st.Name] = st.Count
		}
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
