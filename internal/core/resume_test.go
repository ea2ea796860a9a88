package core

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"swquake/internal/checkpoint"
)

// TestResumeReproducesTracesAndPGV is the exactness contract of the
// resume-aux section: a run interrupted after its checkpoint and resumed
// through Config.RestartFrom must deliver traces, PGV peaks, the yield
// counter and the perf point counts bit-identical to an uninterrupted run
// — not just the final wavefield.
func TestResumeReproducesTracesAndPGV(t *testing.T) {
	cfg := baseConfig()
	cfg.Steps = 40
	cfg.Nonlinear = true
	cfg.Plasticity = PlasticityConfig{Cohesion: 1e4, FrictionAngle: 0.5}

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}

	// interrupted leg: checkpoint at step 20 (with aux), stop
	dir := t.TempDir()
	half := cfg
	half.Steps = 20
	half.Checkpoint = &checkpoint.Controller{Dir: dir, Interval: 20, Keep: 2}
	sim1, err := New(half)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim1.Run(); err != nil {
		t.Fatal(err)
	}

	// the checkpoint written via RunCtx must carry an aux section
	ck := half.Checkpoint.Latest()
	if _, _, _, aux, err := checkpoint.LoadAux(ck); err != nil || len(aux) == 0 {
		t.Fatalf("checkpoint aux: %d bytes, err %v", len(aux), err)
	}

	// resumed leg: fresh simulator, RestartFrom, run to completion
	resumeCfg := cfg
	resumeCfg.RestartFrom = ck
	sim2, err := New(resumeCfg)
	if err != nil {
		t.Fatal(err)
	}
	sim2.Cfg.Dt = ref.Cfg.Dt
	res2, err := sim2.Run()
	if err != nil {
		t.Fatal(err)
	}

	// traces: every sample identical, including the pre-checkpoint ones
	if len(res2.Recorder.Traces) != len(refRes.Recorder.Traces) {
		t.Fatalf("trace count %d vs %d", len(res2.Recorder.Traces), len(refRes.Recorder.Traces))
	}
	for ti, tr := range res2.Recorder.Traces {
		want := refRes.Recorder.Traces[ti]
		if len(tr.U) != len(want.U) {
			t.Fatalf("trace %d: %d samples, want %d", ti, len(tr.U), len(want.U))
		}
		for i := range tr.U {
			if tr.U[i] != want.U[i] || tr.V[i] != want.V[i] || tr.W[i] != want.W[i] {
				t.Fatalf("trace %d sample %d differs after resume", ti, i)
			}
		}
	}

	// PGV: pointwise identical (peaks reached before the checkpoint matter)
	for i, v := range res2.PGV.PGV {
		if v != refRes.PGV.PGV[i] {
			t.Fatalf("PGV[%d] = %g, want %g", i, v, refRes.PGV.PGV[i])
		}
	}

	// counters the manifest reports
	if res2.YieldedPointSteps != refRes.YieldedPointSteps {
		t.Fatalf("yielded %d, want %d", res2.YieldedPointSteps, refRes.YieldedPointSteps)
	}
	if res2.Perf.Steps != refRes.Perf.Steps ||
		res2.Perf.VelocityPoints != refRes.Perf.VelocityPoints ||
		res2.Perf.PlasticityPoints != refRes.Perf.PlasticityPoints ||
		res2.Perf.SpongePoints != refRes.Perf.SpongePoints || refRes.Perf.SpongePoints == 0 {
		t.Fatalf("perf counters differ: %+v vs %+v", res2.Perf, refRes.Perf)
	}

	// and the wavefield, as before
	for i, f := range refRes.Sim.WF.AllFields() {
		if !f.InteriorEqual(res2.Sim.WF.AllFields()[i], 0) {
			t.Fatalf("field %d differs after resume", i)
		}
	}
}

// TestReusedControllerDumpsEachRunsOwnState: a checkpoint controller that
// one run has driven dumps the next run's own resume state, not the first
// run's — the second run, with a station more, resumes from its own dump to
// its own traces and peaks.
func TestReusedControllerDumpsEachRunsOwnState(t *testing.T) {
	ctl := &checkpoint.Controller{Dir: t.TempDir(), Interval: 10, Keep: 2}
	first := baseConfig()
	first.Steps = 20
	first.Checkpoint = ctl
	runSerial(t, first)

	second := heterogeneousConfig()
	second.Steps = 20
	if len(second.Stations) == len(first.Stations) {
		t.Fatal("the runs record as many stations: a dump of the wrong run would restore")
	}
	ctl.Dir = t.TempDir()
	second.Checkpoint = ctl
	want := runSerial(t, second)

	resumed := second
	resumed.Checkpoint = nil
	resumed.RestartFrom = filepath.Join(ctl.Dir, "ckpt-00000010.swq")
	got := runSerial(t, resumed)
	for ti, tr := range got.Recorder.Traces {
		w := want.Recorder.Traces[ti]
		for i := range w.U {
			if tr.U[i] != w.U[i] || tr.V[i] != w.V[i] || tr.W[i] != w.W[i] {
				t.Fatalf("station %s sample %d differs after resuming the second run", w.Station.Name, i)
			}
		}
	}
	for i, v := range got.PGV.PGV {
		if v != want.PGV.PGV[i] {
			t.Fatalf("PGV[%d] = %g after resuming the second run, want %g", i, v, want.PGV.PGV[i])
		}
	}
}

// TestResumeAuxValidation exercises the decoder against malformed and
// mismatched payloads: every rejection must happen before any simulator
// state is mutated.
func TestResumeAuxValidation(t *testing.T) {
	cfg := baseConfig()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		sim.Step()
	}
	good := sim.resumeAux()

	fresh := func() *Simulator {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// round trip restores the counters
	s := fresh()
	if err := s.applyResumeAux(good); err != nil {
		t.Fatal(err)
	}
	if s.perf.Steps != 5 || s.rec.StepsSeen() != 5 {
		t.Fatalf("restored perf.Steps=%d stepsSeen=%d", s.perf.Steps, s.rec.StepsSeen())
	}
	if len(s.rec.Traces[0].U) != len(sim.rec.Traces[0].U) {
		t.Fatal("trace samples not restored")
	}
	if math.IsNaN(s.pgv.Max()) || s.pgv.Max() != sim.pgv.Max() {
		t.Fatalf("PGV max %g, want %g", s.pgv.Max(), sim.pgv.Max())
	}

	bad := [][]byte{
		nil,
		[]byte("XXXX"),
		good[:len(good)-3], // truncated PGV block
		good[:20],          // truncated counters
		append(good, 0),    // trailing byte
	}
	for i, data := range bad {
		s := fresh()
		if err := s.applyResumeAux(data); err == nil {
			t.Fatalf("bad aux %d accepted", i)
		}
		if s.perf.Steps != 0 || s.rec.StepsSeen() != 0 {
			t.Fatalf("bad aux %d mutated state before failing", i)
		}
	}

	// station-count mismatch
	other := cfg
	other.Stations = nil
	so, err := New(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := so.applyResumeAux(good); err == nil {
		t.Fatal("station mismatch accepted")
	}

	// a checkpoint from a PGV-less run cannot resume a PGV run
	noPGV := cfg
	noPGV.RecordPGV = false
	sn, err := New(noPGV)
	if err != nil {
		t.Fatal(err)
	}
	sn.Step()
	if err := fresh().applyResumeAux(sn.resumeAux()); err == nil {
		t.Fatal("PGV presence mismatch accepted")
	}
}

// TestLaneCheckpointCarriesAux drives the controller by hand beside a
// stepping simulator and checks the background-written checkpoint still has
// the aux snapshot taken when MaybeSave returned.
func TestLaneCheckpointCarriesAux(t *testing.T) {
	cfg := baseConfig()
	cfg.Steps = 20
	dir := t.TempDir()
	ctl := &checkpoint.Controller{Dir: dir, Interval: 10, Keep: 2}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for sim.StepCount() < cfg.Steps {
		sim.Step()
		if _, err := ctl.MaybeSave(sim.StepCount(), sim.Time(), sim.WF, sim.resumeAux()); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := ctl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("%d checkpoints", len(infos))
	}
	step, _, _, aux, err := checkpoint.LoadAux(filepath.Join(dir, "ckpt-00000020.swq"))
	if err != nil {
		t.Fatal(err)
	}
	if step != 20 || len(aux) == 0 {
		t.Fatalf("checkpoint step=%d auxLen=%d", step, len(aux))
	}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.applyResumeAux(aux); err != nil {
		t.Fatal(err)
	}
	if s2.rec.StepsSeen() != 20 {
		t.Fatalf("aux steps seen %d", s2.rec.StepsSeen())
	}
}

// TestSerialAndOneRankRunsResumeEachOther: the serial run is the 1x1 process
// grid, so either restores the other's dump through the one Restore — a
// serial dump into RunParallel(cfg, 1, 1) and a 1x1 dump into a serial run
// both finish bit-identical to the uninterrupted serial run, counters
// included. (Plasticity, constant Q and the sponge: the SLS memory variables
// are not part of a dump, so an SLS run refuses to resume —
// TestSLSRunRefusesToResume.)
func TestSerialAndOneRankRunsResumeEachOther(t *testing.T) {
	cfg := fullPhysicsConfig()
	cfg.Attenuation = AttenuationConfig{Enabled: true, F0: 3, Qp: 60, Qs: 30}
	ref := runSerial(t, cfg)
	oneRank := func(t *testing.T, cfg Config) *Result {
		t.Helper()
		res, err := RunParallel(cfg, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, leg := range []struct {
		name          string
		first, second func(*testing.T, Config) *Result
	}{
		{"serial dump into a 1x1 run", runSerial, oneRank},
		{"1x1 dump into a serial run", oneRank, runSerial},
	} {
		first := cfg
		first.Steps = cfg.Steps / 2
		first.Checkpoint = &checkpoint.Controller{Dir: t.TempDir(), Interval: first.Steps, Keep: 1}
		leg.first(t, first)
		second := cfg
		second.RestartFrom = first.Checkpoint.Latest()
		if second.RestartFrom == "" {
			t.Fatalf("%s: the first leg wrote no dump", leg.name)
		}
		requireIdenticalResults(t, leg.name, ref, leg.second(t, second), cfg)
	}
}

// TestStepIsObservedBeforeItsCheckpoint: on a due step the observer hears of
// the step before the dump is handed to the checkpoint lane (a progress
// report never waits for the previous dump to land). Draining the lane from
// the observer shows what had been handed over by then.
func TestStepIsObservedBeforeItsCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*testing.T, Config) *Result
	}{{"serial", runSerial}, {"ranks2x1", runRanks}} {
		cfg := baseConfig()
		cfg.Steps = 10
		ctl := &checkpoint.Controller{Dir: t.TempDir(), Interval: 5, Keep: 0}
		cfg.Checkpoint = ctl
		handedOver := -1
		cfg.Observer = func(ev StepEvent) {
			if ev.Step == 5 {
				infos, err := ctl.Close()
				if err != nil {
					t.Error(err)
				}
				handedOver = len(infos)
			}
		}
		res := tc.run(t, cfg)
		if handedOver != 0 {
			t.Fatalf("%s: %d dumps handed over when step 5 was observed, want 0", tc.name, handedOver)
		}
		if len(res.Checkpoints) != 2 {
			t.Fatalf("%s: %d dumps reported after the run, want 2", tc.name, len(res.Checkpoints))
		}
	}
}

// TestSLSRunRefusesToResume: the SLS memory variables are not part of a dump,
// so a run that keeps them answers a restart with an error naming that —
// serial and on ranks alike, since every resume goes through the one Restore —
// instead of continuing from zeroed memory variables to traces that differ
// from the uninterrupted run's.
func TestSLSRunRefusesToResume(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(Config) (*Result, error)
	}{
		{"serial", func(cfg Config) (*Result, error) {
			sim, err := New(cfg)
			if err != nil {
				return nil, err
			}
			return sim.Run()
		}},
		{"ranks2x1", func(cfg Config) (*Result, error) { return RunParallel(cfg, 2, 1) }},
	} {
		cfg := fullPhysicsConfig()
		if !cfg.Attenuation.UseSLS {
			t.Fatal("the full-physics configuration no longer uses SLS attenuation")
		}
		first := cfg
		first.Steps = cfg.Steps / 2
		first.Checkpoint = &checkpoint.Controller{Dir: t.TempDir(), Interval: first.Steps, Keep: 1}
		if _, err := tc.run(first); err != nil {
			t.Fatalf("%s: first leg: %v", tc.name, err)
		}
		cfg.RestartFrom = first.Checkpoint.Latest()
		if cfg.RestartFrom == "" {
			t.Fatalf("%s: the first leg wrote no dump", tc.name)
		}
		res, err := tc.run(cfg)
		if err == nil || !strings.Contains(err.Error(), "SLS") {
			t.Fatalf("%s: resumed an SLS run (result %v, error %v), want a refusal naming SLS", tc.name, res != nil, err)
		}
	}
}
