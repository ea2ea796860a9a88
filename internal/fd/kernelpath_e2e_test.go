package fd_test

import (
	"math"
	"testing"

	"swquake/internal/checkpoint"
	"swquake/internal/compress"
	"swquake/internal/core"
	"swquake/internal/cpu"
	"swquake/internal/cpu/cputest"
	"swquake/internal/scenario"
)

// TestEngineIsBitIdenticalOnBothKernelPaths runs the nonlinear tangshan
// scenario with constant-Q attenuation through the whole engine — serial,
// two tiles, 2x1 ranks with overlapped halo exchange, and restarted from a
// mid-run checkpoint — under the Go rows and, where the host has them, the
// assembly rows: every station trace, the PGV map and the yield count are
// the same bits in all runs. On compressed storage and with the SLS operator
// (different physics, so each its own reference) the two row paths agree as
// well. Depth 20 gives every row two whole vectors and a four-cell tail. So
// does the job the service benchmark runs — quickstart's 40 steps on a
// heterogeneous model, depth 24: whole vectors only.
func TestEngineIsBitIdenticalOnBothKernelPaths(t *testing.T) {
	base, err := scenario.Build("tangshan", scenario.Overrides{
		Nx: 32, Ny: 30, Nz: 20, Steps: 60, Nonlinear: true, Qs: 50})
	if err != nil {
		t.Fatal(err)
	}
	base.Tiles = 1 // the reference walks on one worker
	job, err := scenario.Build("quickstart", scenario.Overrides{Steps: 40, HetAmplitude: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	serial := func(t *testing.T, cfg core.Config) *core.Result {
		sim, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var ref, refCompressed, refSLS, refJob *core.Result
	cputest.ForEachKernelPath(t, func(t *testing.T) {
		res := serial(t, base)
		if ref == nil {
			ref = res
			if ref.YieldedPointSteps == 0 {
				t.Fatal("the reference run never yields; the test would not exercise plasticity")
			}
			var peak float64
			for _, v := range ref.PGV.PGV {
				peak = math.Max(peak, v)
			}
			if peak == 0 {
				t.Fatal("the reference run never moves the surface")
			}
		}
		requireSameResult(t, cpu.KernelPath()+" serial", ref, res)

		cfg := base
		cfg.Tiles = 2
		requireSameResult(t, cpu.KernelPath()+" tiles=2", ref, serial(t, cfg))

		cfg = base
		cfg.Overlap = true
		par, err := core.RunParallel(cfg, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, cpu.KernelPath()+" 2x1 ranks, overlapped", ref, par)

		first := base
		first.Steps = base.Steps / 2
		first.Checkpoint = &checkpoint.Controller{Dir: t.TempDir(), Interval: first.Steps, Keep: 1}
		serial(t, first)
		cfg = base
		cfg.RestartFrom = first.Checkpoint.Latest()
		requireSameResult(t, cpu.KernelPath()+" restarted mid-run", ref, serial(t, cfg))

		cfg = base
		cfg.Compression = compress.Normalized
		if res = serial(t, cfg); refCompressed == nil {
			refCompressed = res
		}
		requireSameResult(t, cpu.KernelPath()+" compressed", refCompressed, res)

		cfg = base
		cfg.Attenuation.UseSLS = true
		if res = serial(t, cfg); refSLS == nil {
			refSLS = res
		}
		requireSameResult(t, cpu.KernelPath()+" SLS", refSLS, res)

		if res = serial(t, job); refJob == nil {
			refJob = res
		}
		requireSameResult(t, cpu.KernelPath()+" quickstart job", refJob, res)
	})
}

func requireSameResult(t *testing.T, label string, ref, got *core.Result) {
	t.Helper()
	if ref.YieldedPointSteps != got.YieldedPointSteps {
		t.Fatalf("%s: %d yielded point-steps, reference %d", label, got.YieldedPointSteps, ref.YieldedPointSteps)
	}
	if len(ref.Recorder.Traces) == 0 || len(ref.Recorder.Traces) != len(got.Recorder.Traces) {
		t.Fatalf("%s: %d traces, reference %d", label, len(got.Recorder.Traces), len(ref.Recorder.Traces))
	}
	for n, a := range ref.Recorder.Traces {
		b := got.Recorder.Traces[n]
		if len(a.U) != len(b.U) {
			t.Fatalf("%s: trace %s has %d samples, reference %d", label, a.Station.Name, len(b.U), len(a.U))
		}
		for i := range a.U {
			for c, p := range [][2]float32{{a.U[i], b.U[i]}, {a.V[i], b.V[i]}, {a.W[i], b.W[i]}} {
				if math.Float32bits(p[0]) != math.Float32bits(p[1]) {
					t.Fatalf("%s: trace %s component %d differs at sample %d: %g, reference %g",
						label, a.Station.Name, c, i, p[1], p[0])
				}
			}
		}
	}
	for i, v := range ref.PGV.PGV {
		if math.Float64bits(v) != math.Float64bits(got.PGV.PGV[i]) {
			t.Fatalf("%s: PGV differs at surface cell %d: %g, reference %g", label, i, got.PGV.PGV[i], v)
		}
	}
}
