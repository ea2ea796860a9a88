package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"swquake/internal/checkpoint"
	"swquake/internal/compress"
	"swquake/internal/cpu/cputest"
	"swquake/internal/decomp"
	"swquake/internal/model"
	"swquake/internal/mpi"
	"swquake/internal/seismo"
	"swquake/internal/source"
)

// heterogeneousConfig uses a laterally varying model (basin) so the test
// would catch decomposition bugs in material sampling too.
func heterogeneousConfig() Config {
	cfg := baseConfig()
	cfg.Model = &model.Basin{
		Background: model.Homogeneous{M: model.Material{Vp: 4000, Vs: 2310, Rho: 2500}},
		Sediment:   model.Material{Vp: 2000, Vs: 1000, Rho: 2000},
		Bowls: []model.Bowl{{
			CX: 1200, CY: 1200, RadiusX: 600, RadiusY: 600, MaxDepth: 400,
		}},
	}
	cfg.Stations = append(cfg.Stations, seismo.Station{Name: "S2", I: 5, J: 20, K: 0})
	cfg.Steps = 30
	return cfg
}

func TestParallelMatchesSerial(t *testing.T) {
	cfg := heterogeneousConfig()

	serialSim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := serialSim.Run()
	if err != nil {
		t.Fatal(err)
	}

	for _, procs := range [][2]int{{2, 2}, {1, 4}, {3, 1}} {
		par, err := RunParallel(cfg, procs[0], procs[1])
		if err != nil {
			t.Fatalf("%v: %v", procs, err)
		}
		for _, name := range []string{"S1", "S2"} {
			a := serial.Recorder.Trace(name)
			b := par.Recorder.Trace(name)
			if b == nil {
				t.Fatalf("%v: trace %s missing", procs, name)
			}
			if len(a.U) != len(b.U) {
				t.Fatalf("%v: %s lengths %d vs %d", procs, name, len(a.U), len(b.U))
			}
			for i := range a.U {
				if a.U[i] != b.U[i] || a.V[i] != b.V[i] || a.W[i] != b.W[i] {
					t.Fatalf("%v: %s diverges at sample %d: %g vs %g",
						procs, name, i, a.U[i], b.U[i])
				}
			}
		}
		// PGV fields must match everywhere
		for i := 0; i < cfg.Dims.Nx; i++ {
			for j := 0; j < cfg.Dims.Ny; j++ {
				if serial.PGV.At(i, j) != par.PGV.At(i, j) {
					t.Fatalf("%v: PGV differs at (%d,%d)", procs, i, j)
				}
			}
		}
	}
}

func TestParallelNonlinearMatchesSerial(t *testing.T) {
	cfg := heterogeneousConfig()
	cfg.Nonlinear = true
	cfg.Plasticity = PlasticityConfig{
		Cohesion:      5e4,
		FrictionAngle: 30 * math.Pi / 180,
		Lithostatic:   true,
	}

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
	a, b := serial.Recorder.Trace("S1"), par.Recorder.Trace("S1")
	for i := range a.U {
		if a.U[i] != b.U[i] {
			t.Fatalf("nonlinear parallel diverges at sample %d", i)
		}
	}
}

func TestParallelRejectsUnsupported(t *testing.T) {
	cfg := heterogeneousConfig()
	if _, err := RunParallel(cfg, 5, 2); err == nil {
		t.Fatal("non-divisible process grid accepted")
	}
}

func TestParallelCompressedMatchesSerialCompressed(t *testing.T) {
	// the compressed parallel path exchanges decoded (round-tripped)
	// values, so ghost data matches what the serial compressed run holds
	// at the same positions — the runs must agree bit-exactly, with the
	// interior computed before the velocity-halo wait (Overlap) too, and
	// with two workers round-tripping their strips as a wavefront
	cfg := heterogeneousConfig()
	cfg.Compression = compress.Normalized
	cfg.Tiles = 1 // the reference walks on one worker

	serialSim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := serialSim.Run()
	if err != nil {
		t.Fatal(err)
	}
	same := func(mode string, got *Result) {
		t.Helper()
		for _, name := range []string{"S1", "S2"} {
			a, b := serial.Recorder.Trace(name), got.Recorder.Trace(name)
			if b == nil || len(a.U) != len(b.U) {
				t.Fatalf("%s: %s trace shape mismatch", mode, name)
			}
			for i := range a.U {
				if a.U[i] != b.U[i] || a.V[i] != b.V[i] || a.W[i] != b.W[i] {
					t.Fatalf("compressed %s diverges at %s sample %d: %g vs %g",
						mode, name, i, a.U[i], b.U[i])
				}
			}
		}
	}
	for _, overlap := range []bool{false, true} {
		cfg.Overlap = overlap
		par, err := RunParallel(cfg, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("parallel (overlap %v)", overlap), par)
	}

	// four strips of 1-plane slabs on two workers
	defer SetWalkGeometry(1, 6)()
	cfg.Overlap, cfg.Tiles = false, 2
	tiled := runSerial(t, cfg)
	if n := workersWalked(tiled); n != 2 {
		t.Fatalf("%d workers walked the strips, want 2", n)
	}
	same("wavefront", tiled)
	for f, want := range serial.Sim.WF.AllFields() {
		if _, ok := cputest.SameBits(want.Data, tiled.Sim.WF.AllFields()[f].Data); !ok {
			t.Fatalf("wavefront: field %s differs from the one-worker run's", FieldNames[f])
		}
	}
}

func TestParallelSourcePartitioning(t *testing.T) {
	// a source on a rank boundary must be injected exactly once
	cfg := heterogeneousConfig()
	cfg.Sources[0].I = 12 // block boundary for mx=2 (blocks of 12)
	cfg.Sources[0].J = 12
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
			t.Fatalf("boundary source handled differently at sample %d", i)
		}
	}
}

// TestRankArraysAreTheSerialRunsWindows: when a run ends, each rank's nine
// arrays hold the bytes of the serial run's arrays over the block's window,
// ghost layers and the planes above the free surface included — whether the
// velocity exchange overlapped the interior's stress chain or not, on plain
// and on compressed storage (where a ghost holds the neighbour's velocity as
// stored, not as computed). (No
// sponge: its velocity half runs after the exchange, so in the absorbing
// zones a velocity ghost holds the neighbour's value from before it, until
// the next exchange.) The planes above the surface of the ghost columns are
// what the sender imaged with its velocity kernel: the exchange delivers
// them imaged, and no pass of the receiver's images them again.
func TestRankArraysAreTheSerialRunsWindows(t *testing.T) {
	plain := fullPhysicsConfig()
	plain.SpongeWidth = 0
	compressed := plain
	compressed.Compression = compress.Normalized
	for storage, cfg := range map[string]Config{"plain": plain, "compressed": compressed} {
		serial := runSerial(t, cfg)
		for _, overlap := range []bool{false, true} {
			cfg.Overlap = overlap
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			pg, err := decomp.NewProcessGrid(cfg.Dims.Nx, cfg.Dims.Ny, cfg.Dims.Nz, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			srcParts, err := source.Partition(cfg.Sources, cfg.Dims.Nx, cfg.Dims.Ny, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			codecs, err := calibrate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			outs := make([]rankOut, pg.Size())
			mpi.NewWorld(pg.Size()).Run(func(r *mpi.Rank) {
				runRank(context.Background(), r, pg, cfg, srcParts[r.ID()], codecs, &outs[r.ID()])
			})
			for id, out := range outs {
				if out.err != nil {
					t.Fatalf("%s overlap=%v rank %d: %v", storage, overlap, id, out.err)
				}
				i0, j0 := pg.Offset(id)
				want, err := checkpoint.ExtractBlock(serial.Sim.WF, pg.BlockDims(), i0, j0)
				if err != nil {
					t.Fatal(err)
				}
				for c, f := range out.sim.WF.AllFields() {
					for idx, v := range want.AllFields()[c].Data {
						if math.Float32bits(v) != math.Float32bits(f.Data[idx]) {
							t.Fatalf("%s overlap=%v rank %d: field %s differs from the serial window at flat index %d: %g vs %g",
								storage, overlap, id, FieldNames[c], idx, f.Data[idx], v)
						}
					}
				}
			}
		}
	}
}
