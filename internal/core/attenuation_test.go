package core

import (
	"testing"

	"swquake/internal/compress"
)

func TestAttenuationReducesMotion(t *testing.T) {
	base := baseConfig()
	base.Steps = 60

	sim, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	elastic, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}

	qcfg := base
	qcfg.Attenuation = AttenuationConfig{Enabled: true, F0: 4, Qp: 40, Qs: 20}
	qsim, err := New(qcfg)
	if err != nil {
		t.Fatal(err)
	}
	damped, err := qsim.Run()
	if err != nil {
		t.Fatal(err)
	}

	pe := elastic.Recorder.Trace("S1").PeakVelocity()
	pd := damped.Recorder.Trace("S1").PeakVelocity()
	if !(pd < pe) {
		t.Fatalf("attenuation did not reduce motion: %g vs %g", pd, pe)
	}
	if pd < pe*0.05 {
		t.Fatalf("attenuation implausibly strong: %g vs %g", pd, pe)
	}
}

func TestVsScaledAttenuationRuns(t *testing.T) {
	cfg := baseConfig()
	cfg.Steps = 20
	cfg.Attenuation = AttenuationConfig{Enabled: true, VsScaled: true}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAttenuationConfigValidation(t *testing.T) {
	cfg := baseConfig()
	cfg.Attenuation = AttenuationConfig{Enabled: true, Qp: -1, Qs: 10}
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative Qp accepted")
	}
	cfg = baseConfig()
	cfg.Attenuation = AttenuationConfig{Enabled: true, Qp: 10, Qs: -1}
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative Qs accepted")
	}
	cfg = baseConfig()
	cfg.Attenuation = AttenuationConfig{Enabled: true, VsScaled: true, Factor: -0.1}
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative factor accepted")
	}
	// a Vs-scaled run never reads the constant factors
	for _, a := range []AttenuationConfig{
		{Enabled: true, VsScaled: true, Factor: 0.05, Qs: -1},
		{Enabled: true, VsScaled: true, Factor: 0.05, Qp: -1},
	} {
		cfg = baseConfig()
		cfg.Attenuation = a
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Vs-scaled run rejected for a constant factor it does not use (%+v): %v", a, err)
		}
	}
	cfg = baseConfig()
	cfg.Attenuation = AttenuationConfig{Enabled: true, Qp: 50, Qs: 25}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Attenuation.F0 != 1 {
		t.Fatal("F0 default not applied")
	}
}

func TestParallelAttenuationMatchesSerial(t *testing.T) {
	cfg := heterogeneousConfig()
	cfg.Attenuation = AttenuationConfig{Enabled: true, VsScaled: true, F0: 3}

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
			t.Fatalf("attenuated parallel run diverges at sample %d", i)
		}
	}
}

func TestSLSAttenuationInSolver(t *testing.T) {
	base := baseConfig()
	base.Steps = 60

	sim, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	elastic, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}

	qcfg := base
	qcfg.Attenuation = AttenuationConfig{Enabled: true, UseSLS: true, F0: 4, Qp: 40, Qs: 20}
	qsim, err := New(qcfg)
	if err != nil {
		t.Fatal(err)
	}
	damped, err := qsim.Run()
	if err != nil {
		t.Fatal(err)
	}
	pe := elastic.Recorder.Trace("S1").PeakVelocity()
	pd := damped.Recorder.Trace("S1").PeakVelocity()
	if !(pd < pe && pd > pe*0.05) {
		t.Fatalf("SLS attenuation implausible: %g vs %g", pd, pe)
	}
}

func TestParallelSLSMatchesSerial(t *testing.T) {
	cfg := heterogeneousConfig()
	cfg.Attenuation = AttenuationConfig{Enabled: true, UseSLS: true, F0: 3, Qp: 60, Qs: 30}

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
			t.Fatalf("SLS parallel run diverges at sample %d", i)
		}
	}
}

func TestCompressedSLSRuns(t *testing.T) {
	cfg := baseConfig()
	cfg.Steps = 30
	cfg.Attenuation = AttenuationConfig{Enabled: true, UseSLS: true, F0: 4, Qp: 60, Qs: 30}
	cfg.Compression = compress.Normalized
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}
