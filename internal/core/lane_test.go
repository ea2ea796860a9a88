package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"swquake/internal/checkpoint"
	"swquake/internal/faultinject"
)

// The checkpoint controller writes dumps beside the solver (DESIGN.md §3.3).
// These tests hold the runners to their half of that contract: no return
// path leaves a write in flight, and nothing a run reports or restarts from
// depends on when the write happened.

// runSerial and runRanks run cfg to completion on the two runners.
func runSerial(t *testing.T, cfg Config) *Result {
	t.Helper()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func runRanks(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := RunParallel(cfg, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTiledCheckpointRestartBitIdentity: with two tiles per rank, serial and
// on 2x1 ranks, a run that dumps every 10 steps reports every dump, each
// durable when Run returns, and a second run restarted from the middle dump
// finishes bit-identical to an uninterrupted one.
func TestTiledCheckpointRestartBitIdentity(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*testing.T, Config) *Result
	}{{"serial", runSerial}, {"ranks2x1", runRanks}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := heterogeneousConfig()
			cfg.Steps = 40
			cfg.Tiles = 2
			ref := tc.run(t, cfg)

			dir := t.TempDir()
			first := cfg
			first.Checkpoint = &checkpoint.Controller{Dir: dir, Interval: 10}
			res := tc.run(t, first)
			assertRunsEqual(t, res, ref)
			if len(res.Checkpoints) != 4 {
				t.Fatalf("%d checkpoints reported, want 4", len(res.Checkpoints))
			}
			var sum float64
			for i, ck := range res.Checkpoints {
				if step, _, _, err := checkpoint.Load(ck.Path); err != nil || step != 10*(i+1) {
					t.Fatalf("checkpoint %d (%s): step %d err %v", i, ck.Path, step, err)
				}
				sum += ck.WriteSeconds
			}
			if sum <= 0 || res.CheckpointWriteSeconds != sum {
				t.Fatalf("write seconds %g, dumps sum to %g", res.CheckpointWriteSeconds, sum)
			}

			second := cfg
			second.RestartFrom = filepath.Join(dir, "ckpt-00000020.swq")
			assertRunsEqual(t, tc.run(t, second), ref)
		})
	}
}

// TestCheckpointWriteErrorFailsTheRun: a dump that fails in the background
// fails the run — at the next due step when there is one, when the run
// drains the controller otherwise — on both runners.
func TestCheckpointWriteErrorFailsTheRun(t *testing.T) {
	defer faultinject.Reset()
	boom := errors.New("disk on fire")
	for _, interval := range []int{10, 20} { // 20 steps: a later due step, or none
		for _, ranks := range []bool{false, true} {
			faultinject.Reset()
			faultinject.Enable(faultinject.CheckpointWrite, faultinject.Fault{Times: 1, Err: boom})
			cfg := baseConfig()
			cfg.Steps = 20
			cfg.Checkpoint = &checkpoint.Controller{Dir: t.TempDir(), Interval: interval}
			var err error
			if ranks {
				_, err = RunParallel(cfg, 2, 1)
			} else {
				var sim *Simulator
				if sim, err = New(cfg); err == nil {
					_, err = sim.Run()
				}
			}
			if !errors.Is(err, boom) {
				t.Fatalf("interval %d ranks %v: run returned %v, want the write error", interval, ranks, err)
			}
			// the controller was drained and reset on the way out
			if infos, err := cfg.Checkpoint.Close(); infos != nil || err != nil {
				t.Fatalf("interval %d ranks %v: controller not drained: %v %v", interval, ranks, infos, err)
			}
		}
	}
}

// TestCancelMidWriteLandsTheDump: a run canceled while its dump is still
// being written returns the cancellation, and by then the dump is complete
// — the newest loadable checkpoint, no temporary file beside it.
func TestCancelMidWriteLandsTheDump(t *testing.T) {
	defer faultinject.Reset()
	for _, ranks := range []bool{false, true} {
		faultinject.Reset()
		faultinject.Enable(faultinject.SlowIO, faultinject.Fault{Delay: 100 * time.Millisecond})
		dir := t.TempDir()
		cfg := baseConfig()
		cfg.Steps = 40
		cfg.Checkpoint = &checkpoint.Controller{Dir: dir, Interval: 10}
		ctx, cancel := context.WithCancel(context.Background())
		cfg.Observer = func(ev StepEvent) {
			if ev.Step == 11 {
				cancel()
			}
		}
		var err error
		if ranks {
			_, err = RunParallelCtx(ctx, cfg, 2, 1)
		} else {
			var sim *Simulator
			if sim, err = New(cfg); err == nil {
				_, err = sim.RunCtx(ctx)
			}
		}
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("ranks %v: run returned %v", ranks, err)
		}
		path, err := checkpoint.LatestValid(dir)
		if err != nil || filepath.Base(path) != "ckpt-00000010.swq" {
			t.Fatalf("ranks %v: newest valid dump %q (%v), want the step-10 one", ranks, path, err)
		}
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if strings.Contains(e.Name(), ".tmp") {
				t.Fatalf("ranks %v: temporary file %s left behind", ranks, e.Name())
			}
		}
	}
}

// TestRewindDrainsTheWriteInFlight: a rank panics one step after a due step,
// while that step's dump is still held back in the lane. The rewind must
// wait for it and resume from it — not from an older dump or from zero —
// and the run still finishes bit-identical.
func TestRewindDrainsTheWriteInFlight(t *testing.T) {
	defer faultinject.Reset()
	cfg := heterogeneousConfig()
	cfg.Steps = 30
	ref := runRanks(t, cfg)

	drill := cfg
	drill.MaxFaultRetries = 1
	drill.Checkpoint = &checkpoint.Controller{Dir: t.TempDir(), Interval: 10, Keep: 2}
	faultinject.Enable(faultinject.SlowIO, faultinject.Fault{Delay: 150 * time.Millisecond, Times: 1})
	// two ranks evaluate rank/panic once per step: the 21st evaluation is
	// the first of the step after the step-10 dump started
	faultinject.Enable(faultinject.RankPanic, faultinject.Fault{Times: 1, Skip: 2 * 10})
	res, err := RunParallel(drill, 2, 1)
	if err != nil {
		t.Fatalf("drill did not recover: %v", err)
	}
	assertRunsEqual(t, res, ref)
	if len(res.Faults) != 1 || res.Faults[0].Step != 10 || res.Faults[0].ResumeStep != 10 {
		t.Fatalf("faults %+v, want one at step 10 resumed from the step-10 dump", res.Faults)
	}
	if len(res.Checkpoints) != 2 {
		t.Fatalf("final attempt reported %d checkpoints, want steps 20 and 30", len(res.Checkpoints))
	}
}

// TestDumpsAllocateNoWavefield: the lane's one snapshot is the only
// wavefield a dump is built in. Between steps 10 and 30 of a run that dumps
// every step, beyond what the same steps allocate without dumps, the serial
// run allocates less than one interior's bytes per dump; on 2x1 ranks, less
// than a quarter of an interior beyond the other block's packed interior
// (half an interior), which the gather hands over to block 0 uncopied. A
// global wavefield made per dump, block 0 packing its own interior, or a
// gather that copies the part it carries, is more than either.
func TestDumpsAllocateNoWavefield(t *testing.T) {
	cfg := baseConfig()
	interior := int64(len(FieldNames)) * cfg.Dims.Points() * 4
	for _, tc := range []struct {
		name  string
		run   func(*testing.T, Config) *Result
		bound int64
	}{{"serial", runSerial, interior}, {"ranks2x1", runRanks, interior/2 + interior/4}} {
		// the bytes a run of the given steps allocates, dumping every step or not
		alloc := func(steps, interval int) int64 {
			run := cfg
			run.Steps = steps
			run.Checkpoint = &checkpoint.Controller{Dir: t.TempDir(), Interval: interval, Keep: 1}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			tc.run(t, run)
			runtime.ReadMemStats(&after)
			return int64(after.TotalAlloc - before.TotalAlloc)
		}
		dumps := alloc(30, 1) - alloc(10, 1)
		steps := alloc(30, 0) - alloc(10, 0)
		if perDump := (dumps - steps) / 20; perDump >= tc.bound {
			t.Errorf("%s: %d B allocated per dump, want under %d (one interior is %d)", tc.name, perDump, tc.bound, interior)
		}
	}
}
