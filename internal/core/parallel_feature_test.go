package core

import (
	"math"
	"testing"

	"swquake/internal/checkpoint"
	"swquake/internal/compress"
	"swquake/internal/source"
)

// TestParallelFullPhysicsMatchesSerial stacks every optional subsystem at
// once — plasticity, SLS attenuation, sponge, 16-bit compressed storage —
// and requires the parallel run to stay bit-identical to the serial one.
// This is the strongest exercise of the single step pipeline: any drift in
// stage ordering between the serial and parallel drivers shows up here.
func TestParallelFullPhysicsMatchesSerial(t *testing.T) {
	cfg := heterogeneousConfig()
	cfg.Nonlinear = true
	cfg.Plasticity = PlasticityConfig{
		Cohesion:      5e4,
		FrictionAngle: 30 * math.Pi / 180,
		Lithostatic:   true,
	}
	cfg.Attenuation = AttenuationConfig{Enabled: true, UseSLS: true, F0: 3, Qp: 60, Qs: 30}
	cfg.Compression = compress.Normalized

	serialSim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := serialSim.Run()
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunParallel(cfg, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if serial.YieldedPointSteps != par.YieldedPointSteps {
		t.Fatalf("yield counts differ: %d vs %d", serial.YieldedPointSteps, par.YieldedPointSteps)
	}
	for _, name := range []string{"S1", "S2"} {
		a, b := serial.Recorder.Trace(name), par.Recorder.Trace(name)
		if b == nil || len(a.U) != len(b.U) {
			t.Fatalf("%s trace shape mismatch", name)
		}
		for i := range a.U {
			if a.U[i] != b.U[i] || a.V[i] != b.V[i] || a.W[i] != b.W[i] {
				t.Fatalf("full-physics parallel diverges at %s sample %d: %g vs %g",
					name, i, a.U[i], b.U[i])
			}
		}
	}
	for i := 0; i < cfg.Dims.Nx; i++ {
		for j := 0; j < cfg.Dims.Ny; j++ {
			if serial.PGV.At(i, j) != par.PGV.At(i, j) {
				t.Fatalf("PGV differs at (%d,%d)", i, j)
			}
		}
	}
}

// TestParallelCheckpointRestartResumesExactly checkpoints a parallel run
// (gathered to rank 0, written as one global dump with the global resume
// state aboard), resumes it in parallel via Config.RestartFrom, and
// requires the resumed run to match the uninterrupted serial reference
// bit-exactly — FULL trace history and all, since the dump's aux section
// carries the pre-checkpoint samples. The same dump also restarts a serial
// run — the parallel and serial restart paths are interchangeable in both
// wavefield and resume state.
func TestParallelCheckpointRestartResumesExactly(t *testing.T) {
	cfg := baseConfig()
	cfg.Steps = 40

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	refTr := refRes.Recorder.Trace("S1")

	dir := t.TempDir()
	half := cfg
	half.Steps = 20
	half.Checkpoint = &checkpoint.Controller{Dir: dir, Interval: 20, Keep: 2}
	halfRes, err := RunParallel(half, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(halfRes.Checkpoints) != 1 {
		t.Fatalf("%d checkpoints written", len(halfRes.Checkpoints))
	}
	if halfRes.Checkpoints[0].CompressionRatio <= 1 {
		t.Fatal("checkpoint not compressed")
	}

	resume := cfg
	resume.RestartFrom = half.Checkpoint.Latest()
	resume.Steps = 40
	resumed, err := RunParallel(resume, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Steps != 40 {
		t.Fatalf("resumed run ended at step %d", resumed.Steps)
	}
	tr := resumed.Recorder.Trace("S1")
	if len(tr.U) != len(refTr.U) {
		t.Fatalf("resumed trace has %d samples, want the full %d", len(tr.U), len(refTr.U))
	}
	for i := range tr.U {
		if tr.U[i] != refTr.U[i] || tr.V[i] != refTr.V[i] || tr.W[i] != refTr.W[i] {
			t.Fatalf("parallel restart diverges at sample %d: %g vs %g",
				i, tr.U[i], refTr.U[i])
		}
	}
	// the accounting is the uninterrupted reference's too
	if resumed.Perf.Steps != refRes.Perf.Steps || resumed.Perf.Flops() != refRes.Perf.Flops() {
		t.Fatalf("resumed perf %+v, want %+v", resumed.Perf, refRes.Perf)
	}
	if resumed.PGV != nil && refRes.PGV != nil {
		for i, v := range resumed.PGV.PGV {
			if v != refRes.PGV.PGV[i] {
				t.Fatalf("resumed PGV[%d] = %g, want %g", i, v, refRes.PGV.PGV[i])
			}
		}
	}

	// cross-layer: a SERIAL run restarted from the parallel dump must agree,
	// full history included
	serialResume := cfg
	serialResume.RestartFrom = half.Checkpoint.Latest()
	ssim, err := New(serialResume)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := ssim.Run()
	if err != nil {
		t.Fatal(err)
	}
	str := sres.Recorder.Trace("S1")
	if len(str.U) != len(refTr.U) {
		t.Fatalf("serial restart trace has %d samples, want %d", len(str.U), len(refTr.U))
	}
	for i := range str.U {
		if str.U[i] != refTr.U[i] {
			t.Fatalf("serial restart from parallel dump diverges at sample %d", i)
		}
	}
}

// TestParallelPerfCounters: RunParallel sums the per-rank kernel counters
// into the Result.
func TestParallelPerfCounters(t *testing.T) {
	cfg := heterogeneousConfig()

	serialSim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := serialSim.Run()
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunParallel(cfg, 2, 2)
	if err != nil {
		t.Fatal(err)
	}

	a, b := serial.Recorder.Trace("S1"), par.Recorder.Trace("S1")
	for i := range a.U {
		if a.U[i] != b.U[i] {
			t.Fatalf("parallel diverges at sample %d", i)
		}
	}
	if par.Perf.Flops() != serial.Perf.Flops() {
		t.Fatalf("flops %d, serial %d", par.Perf.Flops(), serial.Perf.Flops())
	}
	if par.Perf.Steps != int64(cfg.Steps) || par.Perf.Ran != par.Perf.Steps {
		t.Fatalf("perf steps %d, want %d", par.Perf.Steps, cfg.Steps)
	}
	if par.Perf.Elapsed <= 0 {
		t.Fatal("perf elapsed not measured")
	}
}

// TestParallelDtWithoutStations: Result.Dt must report the agreed global
// time step even when no rank owns a station (it used to stay zero).
func TestParallelDtWithoutStations(t *testing.T) {
	cfg := heterogeneousConfig()
	cfg.Stations = nil

	serialSim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunParallel(cfg, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if par.Dt <= 0 {
		t.Fatalf("parallel Dt not reported: %g", par.Dt)
	}
	if par.Dt != serialSim.Dt() {
		t.Fatalf("parallel dt %g != serial dt %g", par.Dt, serialSim.Dt())
	}
	if par.Perf.Steps != int64(cfg.Steps) || par.Perf.Ran != par.Perf.Steps {
		t.Fatalf("perf steps %d, ran %d, want %d", par.Perf.Steps, par.Perf.Ran, cfg.Steps)
	}
}

// TestParallelDivergenceDetected: an unstable run must fail collectively
// with a divergence error instead of deadlocking or returning garbage.
func TestParallelDivergenceDetected(t *testing.T) {
	cfg := heterogeneousConfig()
	// absurd moment rate: blows past the amplitude guard within a few steps
	cfg.Sources[0].S = source.Ricker{F0: 4, T0: 0.25, M0: 1e30}
	if _, err := RunParallel(cfg, 2, 2); err == nil {
		t.Fatal("diverging parallel run reported success")
	}
}
