package core

import (
	"testing"

	"swquake/internal/checkpoint"
	"swquake/internal/compress"
)

func TestCheckpointRestartResumesExactly(t *testing.T) {
	// run 40 steps straight vs 20 steps + checkpoint + restore + 20 steps:
	// the restart path must reproduce the uninterrupted run bit-exactly
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

	dir := t.TempDir()
	half := cfg
	half.Steps = 20
	half.Checkpoint = &checkpoint.Controller{Dir: dir, Interval: 20, Keep: 1}
	sim1, err := New(half)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := sim1.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Checkpoints) != 1 {
		t.Fatalf("%d checkpoints written", len(res1.Checkpoints))
	}
	if res1.Checkpoints[0].CompressionRatio <= 1 {
		t.Fatal("checkpoint not compressed")
	}

	resumed, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resumed.Cfg.Dt = ref.Cfg.Dt
	if err := resumed.Restore(half.Checkpoint.Latest()); err != nil {
		t.Fatal(err)
	}
	if resumed.StepCount() != 20 {
		t.Fatalf("restored step %d", resumed.StepCount())
	}
	for n := 0; n < 20; n++ {
		resumed.Step()
	}

	// final fields must match the uninterrupted run exactly
	for i, f := range refRes.Sim.WF.AllFields() {
		if !f.InteriorEqual(resumed.WF.AllFields()[i], 0) {
			t.Fatalf("field %d differs after restart", i)
		}
	}
}

func TestRestoreRejectsWrongDims(t *testing.T) {
	cfg := baseConfig()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	other := baseConfig()
	other.Dims.Nx = 16
	other.Stations = nil
	other.Sources[0].I = 8
	osim, err := New(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.Save(dir+"/x.swq", 5, 1, osim.WF); err != nil {
		t.Fatal(err)
	}
	if err := sim.Restore(dir + "/x.swq"); err == nil {
		t.Fatal("dims mismatch accepted")
	}
}

// TestCompressedRestartResumesExactly: Restore stores the loaded wavefield
// back into 16-bit storage, so a compressed-storage run restarted from its
// own mid-run dump — serial, and on 2x1 ranks — finishes bit-identical to
// the uninterrupted compressed run. The restart calibrates its codecs afresh
// on the same configuration, so it stores through the codecs the dump was
// written with.
func TestCompressedRestartResumesExactly(t *testing.T) {
	cfg := chainConfig()
	cfg.Compression = compress.Normalized
	dumped := cfg
	dumped.Checkpoint = &checkpoint.Controller{Dir: t.TempDir(), Interval: cfg.Steps / 2}
	ref := runSerial(t, dumped)
	cfg.RestartFrom = ref.Checkpoints[0].Path
	requireIdenticalResults(t, "serial", ref, runSerial(t, cfg), cfg)
	requireIdenticalResults(t, "2x1 ranks", ref, runRanks(t, cfg), cfg)
}
