package swquake

// One benchmark per paper table and figure (regenerating the corresponding
// rows/series via internal/experiments), plus microbenchmarks of the
// performance-critical kernels and codecs, and ablation benches for the
// design choices DESIGN.md calls out. Run everything with
//
//	go test -bench=. -benchmem
//
// The Table/Fig benches report paper-relevant metrics (Pflops, speedups,
// misfits) through b.ReportMetric so the bench log doubles as the
// reproduction record.

import (
	"io"
	"math"
	"math/rand"
	"testing"
	"time"

	"swquake/internal/cgexec"
	"swquake/internal/compress"
	"swquake/internal/core"
	"swquake/internal/experiments"
	"swquake/internal/f16"
	"swquake/internal/fd"
	"swquake/internal/grid"
	"swquake/internal/ldm"
	"swquake/internal/lz4"
	"swquake/internal/model"
	"swquake/internal/perfmodel"
	"swquake/internal/plasticity"
	"swquake/internal/scenario"
	"swquake/internal/seismo"
	"swquake/internal/sunway"
)

// --- Tables ---

func BenchmarkTable1Systems(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = experiments.Table1(io.Discard)
	}
	b.ReportMetric(ratio, "titan-vs-taihu-byte/flop")
}

func BenchmarkTable3DMA(b *testing.B) {
	var rows []experiments.Table3Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table3(io.Discard)
	}
	b.ReportMetric(rows[len(rows)-1].Get4, "GB/s-get-2048B-4CG")
	b.ReportMetric(rows[0].Get1, "GB/s-get-32B-1CG")
}

func BenchmarkTable4Utilization(b *testing.B) {
	var rows []perfmodel.Table4Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table4(io.Discard)
	}
	for _, r := range rows {
		if r.Name == "Computing Performance" {
			b.ReportMetric(r.Effective, "Gflops/CG")
			b.ReportMetric(100*r.Effective/r.Peak, "%-of-CG-peak")
		}
	}
}

// --- Figures ---

func BenchmarkFig6CompressionValidation(b *testing.B) {
	var res *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig6(io.Discard, experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.Misfit["Ninghe"], "%-misfit-Ninghe")
	b.ReportMetric(100*res.Misfit["Cangzhou"], "%-misfit-Cangzhou")
}

func BenchmarkFig7Kernels(b *testing.B) {
	var sp map[string]map[string]float64
	for i := 0; i < b.N; i++ {
		sp = experiments.Fig7(io.Discard)
	}
	b.ReportMetric(sp["delcx"]["CMPR"], "x-speedup-delcx")
	b.ReportMetric(sp["dstrqc"]["CMPR"], "x-speedup-dstrqc")
	b.ReportMetric(sp["fstr"]["CMPR"], "x-speedup-fstr")
}

func BenchmarkFig8WeakScaling(b *testing.B) {
	var pts []experiments.Fig8Point
	for i := 0; i < b.N; i++ {
		pts = experiments.Fig8(io.Discard)
	}
	last := pts[len(pts)-1]
	b.ReportMetric(last.Pflops["nonlinear+compress"], "Pflops-nl+c-160K")
	b.ReportMetric(last.Pflops["nonlinear"], "Pflops-nl-160K")
	b.ReportMetric(last.Pflops["linear"], "Pflops-lin-160K")
}

func BenchmarkFig9StrongScaling(b *testing.B) {
	var series []experiments.Fig9Series
	for i := 0; i < b.N; i++ {
		series = experiments.Fig9(io.Discard)
	}
	for _, s := range series {
		if s.Case == "nonlinear" && s.Mesh == "dx=16m" {
			b.ReportMetric(s.Speedups[160000], "x-speedup-dx16m-160K")
		}
	}
}

func BenchmarkFig10Rupture(b *testing.B) {
	var res *experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig10(io.Discard, experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.RupturedFraction, "%-fault-ruptured")
	b.ReportMetric(res.RuptureSpeed, "m/s-rupture-speed")
}

func BenchmarkFig11Resolution(b *testing.B) {
	var res *experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig11(io.Discard, experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.FineRoughness["Ninghe"]/maxF(res.CoarseRoughness["Ninghe"], 1e-30), "x-hf-content-gain")
	b.ReportMetric(100*res.IntensityChanged, "%-intensity-cells-changed")
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// --- Solver kernel microbenchmarks ---

func benchWavefield(d grid.Dims) (*fd.Wavefield, *fd.Medium) {
	wf := fd.NewWavefield(d)
	med := fd.NewMedium(d)
	mat := model.Material{Vp: 5000, Vs: 2887, Rho: 2700}
	lam, mu := mat.Lame()
	med.Rho.Fill(float32(mat.Rho))
	med.Lam.Fill(float32(lam))
	med.Mu.Fill(float32(mu))
	rng := rand.New(rand.NewSource(1))
	for _, f := range wf.AllFields() {
		for i := range f.Data {
			f.Data[i] = rng.Float32()*2 - 1
		}
	}
	return wf, med
}

func BenchmarkKernelVelocity(b *testing.B) {
	d := grid.Dims{Nx: 48, Ny: 48, Nz: 48}
	wf, med := benchWavefield(d)
	b.SetBytes(int64(d.Points()) * 13 * 4) // 10 reads + 3 writes per point
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fd.UpdateVelocity(wf, med, 0.001, 0, d.Nz)
	}
	b.ReportMetric(float64(d.Points())*float64(b.N)*fd.VelocityFlopsPerPoint/b.Elapsed().Seconds()/1e9, "Gflops")
}

func BenchmarkKernelStress(b *testing.B) {
	d := grid.Dims{Nx: 48, Ny: 48, Nz: 48}
	wf, med := benchWavefield(d)
	b.SetBytes(int64(d.Points()) * 17 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fd.UpdateStress(wf, med, 0.001, 0, d.Nz)
	}
	b.ReportMetric(float64(d.Points())*float64(b.N)*fd.StressFlopsPerPoint/b.Elapsed().Seconds()/1e9, "Gflops")
}

func BenchmarkKernelPlasticity(b *testing.B) {
	d := grid.Dims{Nx: 48, Ny: 48, Nz: 48}
	wf, _ := benchWavefield(d)
	p := plasticity.NewParams(d)
	p.SetUniform(1e5, 0.5236, 0)
	p.SetLithostatic(100, 2500)
	b.SetBytes(int64(d.Points()) * 13 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plasticity.ApplyRegion(wf, p, 0.005, grid.Box(d))
	}
}

func BenchmarkKernelFreeSurface(b *testing.B) {
	d := grid.Dims{Nx: 96, Ny: 96, Nz: 24}
	wf, _ := benchWavefield(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fd.ApplyFreeSurface(wf)
	}
}

func BenchmarkFullStepLinear(b *testing.B) {
	d := grid.Dims{Nx: 48, Ny: 48, Nz: 48}
	wf, med := benchWavefield(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fd.ApplyFreeSurface(wf)
		fd.UpdateVelocityRegion(wf, med, 0.0005, grid.Box(wf.D))
		fd.ApplyFreeSurface(wf)
		fd.UpdateStressRegion(wf, med, 0.0005, grid.Box(wf.D))
	}
	pts := float64(d.Points()) * float64(b.N)
	b.ReportMetric(pts/b.Elapsed().Seconds()/1e6, "Mpoints/s")
}

// BenchmarkStepResidency is the ceiling probe of a step that reuses what is
// in cache: the serial tangshan -nonlinear -qs 50 step, bare (Step, no run
// loop, after one warm step), timed as the best of b.N repetitions of six
// steps. What the 192x192x96 block pays per point-step over the 64x64x48
// and 96x96x48 ones bounds what a walk that keeps the block in cache longer
// can win. The best repetition is the earliest: later steps cost more as
// the wavefield fills with denormals and yielding cells.
//
//	go test -run '^$' -bench StepResidency -benchtime 15x -cpu 1 .
func BenchmarkStepResidency(b *testing.B) {
	const steps = 6
	for _, d := range []grid.Dims{{Nx: 64, Ny: 64, Nz: 48}, {Nx: 96, Ny: 96, Nz: 48}, {Nx: 192, Ny: 192, Nz: 96}} {
		b.Run(d.String(), func(b *testing.B) {
			cfg, err := scenario.Build("tangshan", scenario.Overrides{Nx: d.Nx, Ny: d.Ny, Nz: d.Nz, Nonlinear: true, Qs: 50})
			if err != nil {
				b.Fatal(err)
			}
			sim, err := core.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			sim.Step()
			best := math.Inf(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				for n := 0; n < steps; n++ {
					sim.Step()
				}
				best = min(best, time.Since(t0).Seconds())
			}
			b.ReportMetric(best*1e9/steps/float64(d.Points()), "best-ns/point-step")
		})
	}
}

// --- Codec microbenchmarks (the on-the-fly compression cost, §6.5) ---

func codecInput(n int) []float32 {
	rng := rand.New(rand.NewSource(2))
	out := make([]float32, n)
	for i := range out {
		out[i] = rng.Float32()*2 - 1
	}
	return out
}

func BenchmarkCodecNormalizedEncode(b *testing.B) {
	src := codecInput(1 << 16)
	dst := make([]uint16, len(src))
	c := f16.NewNormalizedCodec(-1, 1)
	b.SetBytes(int64(len(src)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.EncodeSlice(dst, src)
	}
}

func BenchmarkCodecNormalizedDecode(b *testing.B) {
	src := codecInput(1 << 16)
	enc := make([]uint16, len(src))
	dec := make([]float32, len(src))
	c := f16.NewNormalizedCodec(-1, 1)
	c.EncodeSlice(enc, src)
	b.SetBytes(int64(len(src)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.DecodeSlice(dec, enc)
	}
}

func BenchmarkCodecAdaptiveEncode(b *testing.B) {
	src := codecInput(1 << 16)
	dst := make([]uint16, len(src))
	c := f16.NewAdaptiveCodecRange(-10, 2)
	b.SetBytes(int64(len(src)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.EncodeSlice(dst, src)
	}
}

func BenchmarkCodecHalfEncode(b *testing.B) {
	src := codecInput(1 << 16)
	dst := make([]uint16, len(src))
	b.SetBytes(int64(len(src)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f16.EncodeSlice(dst, src)
	}
}

// --- LZ4 (checkpoint compression) ---

func BenchmarkLZ4CompressWavefield(b *testing.B) {
	// checkpoint-like payload: a smooth wavefield serialized to bytes
	d := grid.Dims{Nx: 32, Ny: 32, Nz: 32}
	wf, med := benchWavefield(d)
	for i := 0; i < 20; i++ {
		fd.ApplyFreeSurface(wf) // smooth it out
		fd.UpdateVelocityRegion(wf, med, 0.0005, grid.Box(wf.D))
		fd.ApplyFreeSurface(wf)
		fd.UpdateStressRegion(wf, med, 0.0005, grid.Box(wf.D))
	}
	raw := make([]byte, 0, len(wf.U.Data)*4)
	for _, v := range wf.U.Data {
		bits := uint32(v)
		raw = append(raw, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24))
	}
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lz4.CompressAlloc(raw)
	}
}

func BenchmarkLZ4Decompress(b *testing.B) {
	src := make([]byte, 1<<20)
	for i := range src {
		src[i] = byte(i / 64) // compressible
	}
	comp := lz4.CompressAlloc(src)
	dst := make([]byte, len(src))
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lz4.Decompress(dst, comp); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (design choices from DESIGN.md §4) ---

// BenchmarkAblationArrayFusion quantifies §6.4's array fusion: predicted
// DMA time per point with the ten unfused arrays vs the fused vec3/vec6
// layout, through the LDM blocking model.
func BenchmarkAblationArrayFusion(b *testing.B) {
	var unfused, fused ldm.Config
	for i := 0; i < b.N; i++ {
		var err error
		unfused, err = ldm.Optimize(ldm.DelcUnfused(), 160, 512, sunway.LDMBytes)
		if err != nil {
			b.Fatal(err)
		}
		fused, err = ldm.Optimize(ldm.DelcFused(), 160, 512, sunway.LDMBytes)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(unfused.EffBWGBs, "GB/s-unfused")
	b.ReportMetric(fused.EffBWGBs, "GB/s-fused")
	b.ReportMetric(fused.EffBWGBs/unfused.EffBWGBs, "x-fusion-gain")
}

// BenchmarkAblationBlockingCz quantifies the Cz=1 choice of §6.4: the
// predicted DMA time of the optimizer's Cz=1 layout vs a forced Cz=8.
func BenchmarkAblationBlockingCz(b *testing.B) {
	shape := ldm.DelcFused()
	var best ldm.Config
	for i := 0; i < b.N; i++ {
		var err error
		best, err = ldm.Optimize(shape, 160, 512, sunway.LDMBytes)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(best.Cz), "chosen-Cz")
	b.ReportMetric(float64(best.Wz), "chosen-Wz")
	b.ReportMetric(float64(best.BlockBytesMax), "B-dma-block")
}

// BenchmarkAblationCompressedStep measures the real cost of the
// decompress-compute-compress workflow vs the plain step on this host
// (the paper's +24% applies on Sunway where memory is the bottleneck; on a
// cache-rich CPU the codec work usually dominates instead).
func BenchmarkAblationCompressedStep(b *testing.B) {
	for _, mode := range []string{"plain", "compressed"} {
		b.Run(mode, func(b *testing.B) {
			cfg := QuickstartConfig()
			cfg.Steps = 1
			if mode == "compressed" {
				cfg.Compression = compress.Normalized
			}
			sim, err := core.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Step()
			}
			b.ReportMetric(float64(cfg.Dims.Points())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpoints/s")
		})
	}
}

// BenchmarkAblationHaloExchange measures the simulated-MPI halo exchange
// overhead: serial vs 2x2 decomposed runs of the same problem.
func BenchmarkAblationHaloExchange(b *testing.B) {
	cfg := QuickstartConfig()
	cfg.Steps = 10
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim, err := core.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mpi2x2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RunParallel(cfg, 2, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCGTally measures the tile-by-tile core-group tally (one step's
// account of the Fig. 7 MEM strategy) and reports its simulated bandwidth
// against the blocking-model prediction.
func BenchmarkCGTally(b *testing.B) {
	d := grid.Dims{Nx: 24, Ny: 32, Nz: 64}
	var sim, modeled float64
	for i := 0; i < b.N; i++ {
		s, cfg, err := cgexec.Tally(d)
		if err != nil {
			b.Fatal(err)
		}
		sim = s.EffectiveBandwidth()
		modeled = cfg.EffBWGBs
	}
	b.ReportMetric(sim, "GB/s-simulated")
	b.ReportMetric(modeled, "GB/s-modeled")
}

// BenchmarkResponseSpectrum measures the Newmark SDOF sweep used for the
// engineering PSA outputs.
func BenchmarkResponseSpectrum(b *testing.B) {
	tr := &seismo.Trace{Dt: 0.01, U: codecInput(2000), V: codecInput(2000), W: codecInput(2000)}
	periods := make([]float64, 20) // 0.1 - 5 s, log-spaced
	for i := range periods {
		periods[i] = 0.1 * math.Pow(50, float64(i)/19)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ComputeResponseSpectrum(periods, 0.05)
	}
}

// BenchmarkSpectrumDFT measures the plain DFT over a typical trace length.
func BenchmarkSpectrumDFT(b *testing.B) {
	samples := codecInput(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seismo.AmplitudeSpectrum(samples, 0.01)
	}
}
