package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"swquake/internal/cpu/cputest"
	"swquake/internal/decomp"
	"swquake/internal/fd"
	"swquake/internal/grid"
)

// fullPhysicsConfig stacks plasticity, SLS attenuation and the sponge on the
// heterogeneous model — everything the step pipeline runs, minus compressed
// storage (which Overlap excludes by design).
func fullPhysicsConfig() Config {
	cfg := heterogeneousConfig()
	cfg.Nonlinear = true
	cfg.Plasticity = PlasticityConfig{
		Cohesion:      5e4,
		FrictionAngle: 30 * math.Pi / 180,
		Lithostatic:   true,
	}
	cfg.Attenuation = AttenuationConfig{Enabled: true, UseSLS: true, F0: 3, Qp: 60, Qs: 30}
	return cfg
}

// requireIdenticalResults compares traces, PGV, yield counts, the step
// count and the counted flops bit-exactly.
func requireIdenticalResults(t *testing.T, label string, ref, got *Result, cfg Config) {
	t.Helper()
	if ref.YieldedPointSteps != got.YieldedPointSteps {
		t.Fatalf("%s: yield counts differ: %d vs %d", label, ref.YieldedPointSteps, got.YieldedPointSteps)
	}
	if a, b := ref.Perf, got.Perf; a.Steps != b.Steps || a.Flops() != b.Flops() || b.Flops() == 0 {
		t.Fatalf("%s: %d steps and %d flops, want %d and %d", label, b.Steps, b.Flops(), a.Steps, a.Flops())
	}
	for _, name := range []string{"S1", "S2"} {
		a, b := ref.Recorder.Trace(name), got.Recorder.Trace(name)
		if b == nil || len(a.U) != len(b.U) {
			t.Fatalf("%s: trace %s shape mismatch", label, name)
		}
		for i := range a.U {
			if a.U[i] != b.U[i] || a.V[i] != b.V[i] || a.W[i] != b.W[i] {
				t.Fatalf("%s: diverges at %s sample %d: %g vs %g",
					label, name, i, a.U[i], b.U[i])
			}
		}
	}
	for i := 0; i < cfg.Dims.Nx; i++ {
		for j := 0; j < cfg.Dims.Ny; j++ {
			if ref.PGV.At(i, j) != got.PGV.At(i, j) {
				t.Fatalf("%s: PGV differs at (%d,%d)", label, i, j)
			}
		}
	}
}

// TestTiledAndOverlappedMatchSerial is the acceptance gate of the region
// engine: every combination of intra-rank tiling and overlapped halo
// exchange, serial and under simulated MPI, must be bit-identical to the
// plain serial full-physics run — SLS included, whose snapshot each worker
// takes for itself. Run under -race (make check) this also proves the
// wavefront and the Start/Finish exchange are data-race free.
func TestTiledAndOverlappedMatchSerial(t *testing.T) {
	base := fullPhysicsConfig()
	base.Tiles = 1 // the reference walks on one worker
	refSim, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refSim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// the block is one slab as derived; in 4-column strips a rank's block
	// has three strips or six, so explicit tile counts are workers at once
	defer SetWalkGeometry(1, 4)()

	variants := []struct {
		label   string
		tiles   int
		overlap bool
		mx, my  int // 0,0 = serial
	}{
		{"serial tiles=3", 3, false, 0, 0},
		{"serial tiles=auto", AutoTiles, false, 0, 0},
		{"serial overlap", 0, true, 0, 0},
		{"serial tiles=4 overlap", 4, true, 0, 0},
		{"parallel 1x1", 0, false, 1, 1},
		{"parallel 1x1 overlap", 0, true, 1, 1},
		{"parallel 2x2 tiles=2", 2, false, 2, 2},
		{"parallel 2x2 overlap", 0, true, 2, 2},
		{"parallel 2x2 tiles=2 overlap", 2, true, 2, 2},
		{"parallel 1x4 tiles=auto overlap", AutoTiles, true, 1, 4},
	}
	for _, v := range variants {
		cfg := base
		cfg.Tiles = v.tiles
		cfg.Overlap = v.overlap
		var got *Result
		if v.mx == 0 {
			sim, err := New(cfg)
			if err != nil {
				t.Fatalf("%s: %v", v.label, err)
			}
			if got, err = sim.Run(); err != nil {
				t.Fatalf("%s: %v", v.label, err)
			}
			if v.tiles > 1 && workersWalked(got) < 2 {
				t.Fatalf("%s: %d worker walked the strips", v.label, workersWalked(got))
			}
		} else {
			var err error
			if got, err = RunParallel(cfg, v.mx, v.my); err != nil {
				t.Fatalf("%s: %v", v.label, err)
			}
			rank := Simulator{Cfg: cfg}
			rank.Cfg.Dims = grid.Dims{Nx: cfg.Dims.Nx / v.mx, Ny: cfg.Dims.Ny / v.my, Nz: cfg.Dims.Nz}
			if g := rank.geometry(v.tiles); v.tiles > 1 && ceilDiv(rank.Cfg.Dims.Ny, g.cols) < 2 {
				t.Fatalf("%s: a rank's block is one strip, so one worker walks it", v.label)
			}
		}
		requireIdenticalResults(t, v.label, ref, got, cfg)
	}
}

// TestNonlinearQTiledAndRanksMatchSerial runs the benchmark's physics —
// plasticity plus the constant-Q damper, which the SLS-based gate above does
// not reach — with two workers on 4-column strips and on 2x1 ranks, against
// the plain serial run. The two-worker simulator steps a hand-built copy of
// its medium, so the first wavefront is also the first use of the medium:
// both workers ask for the reciprocal shear modulus at once, and under -race
// (make check) this proves it is built once and published safely.
func TestNonlinearQTiledAndRanksMatchSerial(t *testing.T) {
	base := fullPhysicsConfig()
	base.Attenuation = AttenuationConfig{Enabled: true, F0: 3, Qp: 60, Qs: 30}
	base.Plasticity = PlasticityConfig{Cohesion: 1e3, FrictionAngle: 30 * math.Pi / 180}
	base.Tiles = 1 // the reference walks on one worker
	refSim, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refSim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ref.YieldedPointSteps == 0 {
		t.Fatal("reference run never yields; the test would not exercise plasticity")
	}

	cfg := base
	cfg.Tiles = 2
	defer SetWalkGeometry(1, 4)()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	med := fd.NewMedium(cfg.Dims)
	copy(med.Rho.Data, sim.Med.Rho.Data)
	copy(med.Lam.Data, sim.Med.Lam.Data)
	copy(med.Mu.Data, sim.Med.Mu.Data)
	sim.Med = med
	got, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalResults(t, "serial tiles=2, reciprocal built in the wavefront", ref, got, cfg)
	if workersWalked(got) != 2 {
		t.Fatalf("%d workers walked the strips, want 2", workersWalked(got))
	}

	if got, err = RunParallel(base, 2, 1); err != nil {
		t.Fatal(err)
	}
	requireIdenticalResults(t, "parallel 2x1", ref, got, base)
}

// TestTilesOverlapValidation: a tile count below AutoTiles is refused, and
// AutoTiles composes with Overlap.
func TestTilesOverlapValidation(t *testing.T) {
	cfg := baseConfig()
	cfg.Tiles = -2
	if err := cfg.Validate(); err == nil {
		t.Fatal("Tiles=-2 accepted")
	}
	cfg.Tiles, cfg.Overlap = AutoTiles, true
	if err := cfg.Validate(); err != nil {
		t.Fatalf("AutoTiles with Overlap: %v", err)
	}
}

// TestEffectiveTiles: 1 is single-threaded, explicit counts pass through,
// and 0 — AutoTiles alike — is derived: GOMAXPROCS per rank on a large
// block, never below one, fewer on a small block.
func TestEffectiveTiles(t *testing.T) {
	const big = 1 << 30 // cells: no floor in play
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		cfg, ranks int
		points     int64
		want       int
	}{
		{1, 1, big, 1},
		{1, 4, 100, 1},
		{6, 1, big, 6},
		{6, 4, big, 6}, // explicit counts are per rank, not divided
		{6, 1, 100, 6}, // ... and not subject to the floor
		{0, 1, big, procs},
		{AutoTiles, 1, big, procs},
		{0, 1 << 20, big, 1}, // more ranks than cores
		{0, 1, 100, 1},       // a block too small for a second worker
		{0, 1, 2 * grid.MinWorkerPoints, min(procs, 2)}, // two workers' worth
	}
	for _, c := range cases {
		if got := effectiveTiles(c.cfg, c.ranks, c.points); got != c.want {
			t.Errorf("effectiveTiles(%d, %d, %d) = %d, want %d", c.cfg, c.ranks, c.points, got, c.want)
		}
	}
}

// TestDerivedTilesWalkEveryCore: under GOMAXPROCS 2, a default Config — Tiles
// left 0 — on a block of two workers' worth of cells resolves to two
// workers, both walk, the result says so, and traces and PGV are bit-equal
// to a Tiles: 1 run, which walks on one; on 2x1 ranks each rank derives
// one, and the result counts both.
func TestDerivedTilesWalkEveryCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := chainConfig()
	cfg.Dims = grid.Dims{Nx: 64, Ny: 64, Nz: 16} // 2 × grid.MinWorkerPoints
	cfg.Steps = 12
	if cfg.Tiles != 0 || cfg.Dims.Points() < 2*grid.MinWorkerPoints {
		t.Fatalf("Tiles %d on %v cells: not a derived two-worker block", cfg.Tiles, cfg.Dims.Points())
	}
	serial := cfg
	serial.Tiles = 1
	ref := runSerial(t, serial)
	got := runSerial(t, cfg)
	if got.Sim.tiles != 2 || workersWalked(got) != 2 || got.Perf.Workers != 2 {
		t.Fatalf("derived: %d tiles, %d walked, Perf.Workers %d; want 2 of each",
			got.Sim.tiles, workersWalked(got), got.Perf.Workers)
	}
	if workersWalked(ref) != 1 || ref.Perf.Workers != 1 {
		t.Fatalf("Tiles 1: %d walked, Perf.Workers %d; want 1", workersWalked(ref), ref.Perf.Workers)
	}
	requireIdenticalResults(t, "derived vs Tiles 1", ref, got, cfg)
	// two ranks share the two cores: one worker each, two in all
	if got = runRanks(t, cfg); got.Perf.Workers != 2 {
		t.Fatalf("2x1 ranks: Perf.Workers %d, want 2", got.Perf.Workers)
	}
	requireIdenticalResults(t, "2x1 ranks, derived", ref, got, cfg)
}

// TestAutoTilesLeavesSmallBlocksSerial: the grid every service job uses
// (quickstart, 32x32x24) is one strip, and workers there cost more than the
// kernels they would split, so AutoTiles resolves to one worker — and still
// to GOMAXPROCS on the scaling probe's 160x160x96.
func TestAutoTilesLeavesSmallBlocksSerial(t *testing.T) {
	cfg := baseConfig()
	cfg.Dims = grid.Dims{Nx: 32, Ny: 32, Nz: 24}
	cfg.Tiles = AutoTiles
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sim.tiles != 1 {
		t.Fatalf("AutoTiles on %v resolved to %d workers, want 1", cfg.Dims, sim.tiles)
	}
	if stop := sim.startTiling(); sim.workers > 1 {
		stop()
		t.Fatal("a single-worker simulator spreads its walks")
	}
	large := grid.Dims{Nx: 160, Ny: 160, Nz: 96}
	if got, want := effectiveTiles(AutoTiles, 1, large.Points()), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("AutoTiles on %v resolved to %d tiles, GOMAXPROCS is %d", large, got, want)
	}
	// two ranks halve the block: 80x160x96 a rank still tiles
	if got, want := effectiveTiles(AutoTiles, 2, large.Points()/2), max(1, runtime.GOMAXPROCS(0)/2); got != want {
		t.Fatalf("AutoTiles on half of %v under 2 ranks resolved to %d tiles, want %d", large, got, want)
	}
}

// TestWavefrontMatchesSerial: two, three and seven workers (one a strip,
// the seventh idle and not counted in Perf.Workers) walking a block of six
// strips finish — with one P, where a waiting worker must yield to the one
// it waits on, and with four — and leave every field as one worker does,
// bit for bit, ghost layers included, with the same traces, PGV map and
// counters.
func TestWavefrontMatchesSerial(t *testing.T) {
	defer SetWalkGeometry(1, 4)()
	cfg := chainConfig()
	cfg.Steps = 12
	cfg.Tiles = 1 // the reference walks on one worker
	if n := cfg.Dims.Ny / 4; n != 6 {
		t.Fatalf("the block has %d strips, want 6", n)
	}
	ref := runSerial(t, cfg)
	for _, procs := range []int{1, 4} {
		was := runtime.GOMAXPROCS(procs)
		for _, w := range []int{2, 3, 7} {
			c := cfg
			c.Tiles = w
			got := runSerial(t, c)
			label := fmt.Sprintf("GOMAXPROCS %d, %d workers", procs, w)
			requireIdenticalResults(t, label, ref, got, c)
			if n := workersWalked(got); n != min(w, 6) || got.Perf.Workers != n {
				t.Fatalf("%s: %d workers walked the strips, Perf.Workers says %d", label, n, got.Perf.Workers)
			}
			for f, want := range ref.Sim.WF.AllFields() {
				if _, same := cputest.SameBits(want.Data, got.Sim.WF.AllFields()[f].Data); !same {
					t.Fatalf("%s: field %s differs from one worker's", label, FieldNames[f])
				}
			}
		}
		runtime.GOMAXPROCS(was)
	}
}

// workersWalked is how many workers walked a serial run's strips at once at
// most: the walk keeps a scratch for each.
func workersWalked(res *Result) int { return len(res.Sim.scratch) }

// TestBufCacheRecycles: get must hand back a previously put buffer of the
// same length instead of allocating.
func TestBufCacheRecycles(t *testing.T) {
	var c bufCache
	a := c.get(64)
	if len(a) != 64 {
		t.Fatalf("got %d-elem buffer", len(a))
	}
	c.put(a)
	b := c.get(64)
	if &a[0] != &b[0] {
		t.Fatal("cache did not recycle the buffer")
	}
	if d := c.get(64); &d[0] == &b[0] {
		t.Fatal("cache handed out the same buffer twice")
	}
	// different length: fresh allocation, no cross-contamination
	if e := c.get(32); len(e) != 32 {
		t.Fatalf("got %d-elem buffer for 32", len(e))
	}
}

// TestParallelHaloBytesReported: Result.Perf.HaloBytes must equal the
// analytic per-rank traffic summed over ranks and steps, and stay zero for
// serial runs.
func TestParallelHaloBytesReported(t *testing.T) {
	cfg := heterogeneousConfig()

	serialSim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := serialSim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if serial.Perf.HaloBytes != 0 {
		t.Fatalf("serial run reports %d halo bytes", serial.Perf.HaloBytes)
	}

	par, err := RunParallel(cfg, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := decomp.NewProcessGrid(cfg.Dims.Nx, cfg.Dims.Ny, cfg.Dims.Nz, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for rank := 0; rank < pg.Size(); rank++ {
		want += pg.HaloBytesPerStep(rank, len(FieldNames), fd.Halo) * int64(cfg.Steps)
	}
	if par.Perf.HaloBytes != want {
		t.Fatalf("parallel halo bytes %d, want %d", par.Perf.HaloBytes, want)
	}
	if par.Perf.HaloBytes <= 0 {
		t.Fatal("halo traffic not accounted")
	}
}
