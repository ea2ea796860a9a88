package core

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"swquake/internal/checkpoint"
	"swquake/internal/compress"
	"swquake/internal/faultinject"
	"swquake/internal/grid"
	"swquake/internal/mpi"
	"swquake/internal/seismo"
	"swquake/internal/source"
)

// TestDivergedPredicate pins the one divergence predicate both the serial
// and parallel paths share: NaN, ±Inf, and a magnitude beyond the bound.
func TestDivergedPredicate(t *testing.T) {
	cases := []struct {
		m    float64
		want bool
	}{
		{0, false},
		{1e5, false},
		{1e6, false}, // at the bound, not beyond it
		{1e6 + 1, true},
		{math.NaN(), true},
		{math.Inf(1), true},
		{math.Inf(-1), true},
	}
	for _, c := range cases {
		if got := diverged(c.m); got != c.want {
			t.Errorf("diverged(%g) = %v, want %v", c.m, got, c.want)
		}
	}
}

// TestHaloCorruptionDetected: with no retry budget, a frame corrupted after
// its seal — every frame is sealed — must fail the run with a typed
// EngineFault of kind halo-corrupt, wrapping the mpi frame error.
func TestHaloCorruptionDetected(t *testing.T) {
	defer faultinject.Reset()
	cfg := baseConfig()
	faultinject.Enable(faultinject.HaloCorrupt, faultinject.Fault{Times: 1, Skip: 40})

	var events []FaultEvent
	cfg.OnFault = func(ev FaultEvent) { events = append(events, ev) }
	_, err := RunParallel(cfg, 2, 2)
	if err == nil {
		t.Fatal("corrupted halo went undetected")
	}
	var ef *EngineFault
	if !errors.As(err, &ef) || ef.Kind != FaultHaloCorrupt {
		t.Fatalf("err = %v, want EngineFault kind %s", err, FaultHaloCorrupt)
	}
	if !errors.Is(err, mpi.ErrFrameCorrupt) {
		t.Fatalf("fault does not wrap the mpi frame error: %v", err)
	}
	if len(events) != 1 || events[0].Recovered || events[0].Kind != FaultHaloCorrupt {
		t.Fatalf("events %+v", events)
	}
	if faultinject.Hits(faultinject.HaloCorrupt) != 1 {
		t.Fatalf("failpoint fired %d times", faultinject.Hits(faultinject.HaloCorrupt))
	}
}

// TestStalledRankDetected: with the watchdog armed and no retry budget, a
// rank sleeping past the step deadline must turn the would-be deadlock into
// a diagnosed stall within bounded time.
func TestStalledRankDetected(t *testing.T) {
	defer faultinject.Reset()
	cfg := baseConfig()
	cfg.Steps = 20
	cfg.StepDeadline = 300 * time.Millisecond
	faultinject.Enable(faultinject.RankStall, faultinject.Fault{Times: 1, Skip: 20, Delay: 1500 * time.Millisecond})

	start := time.Now()
	_, err := RunParallel(cfg, 2, 2)
	if err == nil {
		t.Fatal("stalled rank went undetected")
	}
	var ef *EngineFault
	if !errors.As(err, &ef) || ef.Kind != FaultStall {
		t.Fatalf("err = %v, want EngineFault kind %s", err, FaultStall)
	}
	// the run must end promptly after the stall is detected, not deadlock;
	// the world still joins the sleeping rank (~1.5s), so allow a few seconds
	if time.Since(start) > 10*time.Second {
		t.Fatalf("stall detection took %v", time.Since(start))
	}
}

// TestRankPanicContained: a panic inside one rank goroutine must not crash
// the process — it becomes an EngineFault of kind panic and unwinds every
// rank collectively.
func TestRankPanicContained(t *testing.T) {
	defer faultinject.Reset()
	cfg := baseConfig()
	cfg.Steps = 20
	faultinject.Enable(faultinject.RankPanic, faultinject.Fault{Times: 1, Skip: 20})

	_, err := RunParallel(cfg, 2, 2)
	if err == nil {
		t.Fatal("rank panic went uncontained")
	}
	var ef *EngineFault
	if !errors.As(err, &ef) || ef.Kind != FaultPanic {
		t.Fatalf("err = %v, want EngineFault kind %s", err, FaultPanic)
	}
}

// TestInRunRecoveryDrill is the self-healing acceptance drill: one run is
// hit by all three injected fault classes — a corrupted halo frame, a
// stalled rank, and a rank panic — and must recover from each in-process
// (rewinding to the newest valid checkpoint) and still produce a result
// bit-identical to an undisturbed run: full traces, PGV, yield counter,
// perf accounting and all.
func TestInRunRecoveryDrill(t *testing.T) {
	defer faultinject.Reset()
	cfg := heterogeneousConfig()
	cfg.Steps = 40
	cfg.Nonlinear = true
	cfg.Plasticity = PlasticityConfig{Cohesion: 5e4, FrictionAngle: 30 * math.Pi / 180}

	ref, err := RunParallel(cfg, 2, 2)
	if err != nil {
		t.Fatal(err)
	}

	drill := cfg
	drill.StepDeadline = 500 * time.Millisecond
	drill.MaxFaultRetries = 6
	drill.Checkpoint = &checkpoint.Controller{Dir: t.TempDir(), Interval: 10, Keep: 4}
	// with 4 ranks on a 2x2 grid: 16 halo/corrupt evaluations per step and 4
	// per step for the rank points — the skips place the three faults in
	// different thirds of the run, each (usually) after a checkpoint exists
	faultinject.Enable(faultinject.HaloCorrupt, faultinject.Fault{Times: 1, Skip: 16 * 12})
	faultinject.Enable(faultinject.RankStall, faultinject.Fault{Times: 1, Skip: 4 * 22, Delay: 1200 * time.Millisecond})
	faultinject.Enable(faultinject.RankPanic, faultinject.Fault{Times: 1, Skip: 4 * 32})

	var events []FaultEvent
	drill.OnFault = func(ev FaultEvent) { events = append(events, ev) }
	res, err := RunParallel(drill, 2, 2)
	if err != nil {
		t.Fatalf("drill did not recover: %v", err)
	}

	assertRunsEqual(t, res, ref)

	// every injected fault fired, was recovered, and was reported
	kinds := map[FaultKind]int{}
	for _, ev := range res.Faults {
		if !ev.Recovered {
			t.Fatalf("unrecovered fault in successful run: %+v", ev)
		}
		kinds[ev.Kind]++
	}
	for _, k := range []FaultKind{FaultHaloCorrupt, FaultStall, FaultPanic} {
		if kinds[k] == 0 {
			t.Fatalf("fault kind %s never recovered (faults: %+v)", k, res.Faults)
		}
	}
	if len(events) != len(res.Faults) {
		t.Fatalf("%d OnFault events, %d recovered faults", len(events), len(res.Faults))
	}
	for _, p := range []faultinject.Point{faultinject.HaloCorrupt, faultinject.RankStall, faultinject.RankPanic} {
		if faultinject.Hits(p) != 1 {
			t.Fatalf("%s fired %d times", p, faultinject.Hits(p))
		}
	}
}

// TestRecoveryWithoutCheckpointRestartsFromZero: a fault with a retry
// budget but no checkpoints must rewind to the very beginning and still
// finish bit-identical.
func TestRecoveryWithoutCheckpointRestartsFromZero(t *testing.T) {
	defer faultinject.Reset()
	cfg := baseConfig()
	cfg.Steps = 20

	ref, err := RunParallel(cfg, 2, 2)
	if err != nil {
		t.Fatal(err)
	}

	drill := cfg
	drill.MaxFaultRetries = 2
	faultinject.Enable(faultinject.HaloCorrupt, faultinject.Fault{Times: 1, Skip: 16 * 10})
	res, err := RunParallel(drill, 2, 2)
	if err != nil {
		t.Fatalf("did not recover: %v", err)
	}
	assertRunsEqual(t, res, ref)
	if len(res.Faults) == 0 || res.Faults[0].ResumeStep != 0 {
		t.Fatalf("faults %+v, want a recovery with ResumeStep 0", res.Faults)
	}
}

// assertRunsEqual requires two parallel results to agree on everything the
// bit-exactness contract covers (wall-clock time excluded).
func assertRunsEqual(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Steps != want.Steps || got.Dt != want.Dt {
		t.Fatalf("steps/dt: got %d/%g, want %d/%g", got.Steps, got.Dt, want.Steps, want.Dt)
	}
	if got.YieldedPointSteps != want.YieldedPointSteps {
		t.Fatalf("yielded %d, want %d", got.YieldedPointSteps, want.YieldedPointSteps)
	}
	if len(got.Recorder.Traces) != len(want.Recorder.Traces) {
		t.Fatalf("%d traces, want %d", len(got.Recorder.Traces), len(want.Recorder.Traces))
	}
	for _, wtr := range want.Recorder.Traces {
		gtr := got.Recorder.Trace(wtr.Station.Name)
		if gtr == nil || len(gtr.U) != len(wtr.U) {
			t.Fatalf("trace %s shape mismatch", wtr.Station.Name)
		}
		for i := range wtr.U {
			if gtr.U[i] != wtr.U[i] || gtr.V[i] != wtr.V[i] || gtr.W[i] != wtr.W[i] {
				t.Fatalf("trace %s sample %d differs", wtr.Station.Name, i)
			}
		}
	}
	if (got.PGV == nil) != (want.PGV == nil) {
		t.Fatal("PGV presence mismatch")
	}
	if got.PGV != nil {
		for i, v := range want.PGV.PGV {
			if got.PGV.PGV[i] != v {
				t.Fatalf("PGV[%d] = %g, want %g", i, got.PGV.PGV[i], v)
			}
		}
	}
	if got.Perf.Steps != want.Perf.Steps || got.Perf.Flops() != want.Perf.Flops() ||
		got.Perf.HaloBytes != want.Perf.HaloBytes {
		t.Fatalf("perf differs:\n got %+v\nwant %+v", got.Perf, want.Perf)
	}
}

// nanFrom is a source-time function that turns NaN from time T on.
type nanFrom struct {
	source.STF
	T float64
}

func (n nanFrom) MomentRate(t float64) float64 {
	if t >= n.T {
		return math.NaN()
	}
	return n.STF.MomentRate(t)
}

// TestNaNVelocityIsDivergence: a NaN in the velocity field must stop the
// run at the step it appears, with the "diverged" error — not be skipped by
// the max-|v| scan (every float comparison against NaN is false; a field of
// nothing but NaN used to report max |v| = 0 and the run "succeeded"). A
// source injects NaN into the stresses during step 4, which the velocity
// kernel of step 5 turns into NaN velocities — serially, beside a healthy
// neighbour, and on one rank of 2x1, where every rank must stop there and a
// fault-retry budget must not rewind it.
func TestNaNVelocityIsDivergence(t *testing.T) {
	cfg := baseConfig()
	cfg.Steps = 12
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := cfg.Sources[0]
	// step n injects at t = (n-1)*dt
	src.S = nanFrom{STF: src.S, T: 2.5 * sim.Dt()}
	cfg.Sources = []source.PointSource{src}

	sim, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err == nil || !strings.Contains(err.Error(), "diverged at step 5 ") {
		t.Fatalf("serial: err = %v, want divergence at step 5", err)
	}

	// the same block beside a healthy neighbour whose value the reduction
	// folds in first: a max taken by comparison drops a NaN that arrives
	// second, so the loop must hand the reduction +Inf instead
	sim, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.peers.allMax = func(v float64) float64 {
		m := 0.0 // the neighbour's max |v|
		if v > m {
			m = v
		}
		return m
	}
	if _, err := sim.Run(); err == nil || !strings.Contains(err.Error(), "diverged at step 5 ") {
		t.Fatalf("NaN folded in second: err = %v, want divergence at step 5", err)
	}

	// divergence is deterministic: a retry budget must not rewind it
	cfg.MaxFaultRetries = 3
	events := 0
	cfg.OnFault = func(FaultEvent) { events++ }
	if _, err := RunParallel(cfg, 2, 1); !errors.Is(err, ErrDiverged) || !strings.Contains(err.Error(), "diverged at step 5 ") {
		t.Fatalf("2x1: err = %v, want divergence at step 5", err)
	}
	if events != 0 {
		t.Fatalf("divergence produced %d fault events", events)
	}
}

// TestDivergedStepLeavesNoDump: a run that diverges on a step a checkpoint
// is due at stops without dumping that step — its velocities would load as
// NaN and pass every CRC, so a recovering process would resume from the
// diverged state — and the newest loadable dump is the one before, serially
// and on 2x1 ranks.
func TestDivergedStepLeavesNoDump(t *testing.T) {
	cfg := baseConfig()
	cfg.Steps = 12
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := cfg.Sources[0]
	// step n injects at t = (n-1)*dt: NaN stresses in step 5, NaN
	// velocities in step 6 — a due step
	src.S = nanFrom{STF: src.S, T: 3.5 * sim.Dt()}
	cfg.Sources = []source.PointSource{src}
	for _, tc := range []struct {
		name string
		run  func(Config) error
	}{
		{"serial", func(cfg Config) error {
			sim, err := New(cfg)
			if err == nil {
				_, err = sim.Run()
			}
			return err
		}},
		{"ranks2x1", func(cfg Config) error {
			_, err := RunParallel(cfg, 2, 1)
			return err
		}},
	} {
		dir := t.TempDir()
		run := cfg
		run.Checkpoint = &checkpoint.Controller{Dir: dir, Interval: 3, Keep: 0}
		if err := tc.run(run); err == nil || !strings.Contains(err.Error(), "diverged at step 6 ") {
			t.Fatalf("%s: err = %v, want divergence at step 6", tc.name, err)
		}
		got, err := checkpoint.LatestValid(dir)
		if step, _ := checkpoint.PathStep(got); err != nil || step != 3 {
			t.Fatalf("%s: newest valid dump %q (%v), want step 3's", tc.name, got, err)
		}
	}
}

// TestStepEventCarriesTheMaxVelocity: the observer hears each step's max
// |v|, and it is what a scan of the whole wavefield after the step finds; the
// PGV map is the peak of the surface velocities the observer saw — on plain
// storage, on three tiles and on compressed storage, walked as one slab and
// in 1-plane slabs and 4-column strips. The source sits in the sponge zone,
// near the surface, so the largest velocities and the surface peaks are in
// cells the sponge damps after the velocity update and compressed storage
// re-quantizes in its last round trip.
func TestStepEventCarriesTheMaxVelocity(t *testing.T) {
	base := baseConfig()
	base.Steps = 30
	base.RecordPGV = true
	base.Sources[0].I, base.Sources[0].K = 1, 3
	for _, g := range []geometry{{1 << 30, 1 << 30}, {1, 4}} {
		restore := SetWalkGeometry(g.planes, g.cols)
		for name, mut := range map[string]func(*Config){
			"plain":      func(c *Config) { c.Tiles = 1 },
			"tiles=3":    func(c *Config) { c.Tiles = 3 },
			"compressed": func(c *Config) { c.Compression = compress.Normalized },
		} {
			cfg := base
			mut(&cfg)
			var sim *Simulator
			pgv := seismo.NewPGVField(cfg.Dims.Nx, cfg.Dims.Ny, 0)
			cfg.Observer = func(ev StepEvent) {
				if want := float64(grid.MaxAbs(sim.WF.U, sim.WF.V, sim.WF.W)); ev.MaxVelocity != want {
					t.Errorf("%s, %+v: step %d carries max |v| %g, the wavefield's is %g", name, g, ev.Step, ev.MaxVelocity, want)
				}
				pgv.UpdateCols(sim.WF, 0, pgv.Nx, 0, pgv.Ny)
			}
			var err error
			sim, err = New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			if pgv.Max() == 0 {
				t.Fatalf("%s, %+v: the surface never moved", name, g)
			}
			for n, v := range pgv.PGV {
				if res.PGV.PGV[n] != v {
					t.Fatalf("%s, %+v: PGV[%d] = %g, the observed surface's peak %g", name, g, n, res.PGV.PGV[n], v)
				}
			}
		}
		restore()
	}
}
