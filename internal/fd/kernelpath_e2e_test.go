package fd_test

import (
	"math"
	"testing"

	"swquake/internal/core"
	"swquake/internal/fd"
	"swquake/internal/scenario"
)

// TestEngineIsBitIdenticalOnBothKernelPaths runs the nonlinear tangshan
// scenario with constant-Q attenuation through the whole engine — serial,
// two tiles, and 2x1 ranks with overlapped halo exchange — under the Go
// rows and, where the host has them, the assembly rows: every station
// trace, the PGV map and the yield count are the same bits in all runs.
// Depth 20 gives every row two whole vectors and a four-cell tail.
func TestEngineIsBitIdenticalOnBothKernelPaths(t *testing.T) {
	base, err := scenario.Build("tangshan", scenario.Overrides{
		Nx: 32, Ny: 30, Nz: 20, Steps: 60, Nonlinear: true, Qs: 50})
	if err != nil {
		t.Fatal(err)
	}
	var ref *core.Result
	fd.ForEachKernelPath(t, func(t *testing.T) {
		serial := func(tiles int) *core.Result {
			cfg := base
			cfg.Tiles = tiles
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
		res := serial(0)
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
		requireSameResult(t, fd.KernelPath()+" serial", ref, res)
		requireSameResult(t, fd.KernelPath()+" tiles=2", ref, serial(2))
		cfg := base
		cfg.Overlap = true
		par, err := core.RunParallel(cfg, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fd.KernelPath()+" 2x1 ranks, overlapped", ref, par)
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
