package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"swquake/internal/checkpoint"
	"swquake/internal/grid"
	"swquake/internal/seismo"
)

// TestResumeReproducesTracesAndPGV is the exactness contract of the
// resume-aux section: a run interrupted after its checkpoint and resumed
// through Config.RestartFrom must deliver traces, PGV peaks, the yield
// counter, the step count and the flops bit-identical to an uninterrupted run
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
	if res2.Perf.Steps != refRes.Perf.Steps || res2.Perf.Flops() != refRes.Perf.Flops() || res2.Perf.Ran != 20 {
		t.Fatalf("resumed perf %+v, want %d steps, %d flops, 20 run", res2.Perf, refRes.Perf.Steps, refRes.Perf.Flops())
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

	// round trip restores the traces
	s := fresh()
	if err := s.applyResumeAux(good); err != nil {
		t.Fatal(err)
	}
	if len(s.rec.Traces[0].U) != 5 {
		t.Fatalf("restored %d trace samples, want 5", len(s.rec.Traces[0].U))
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
		if len(s.rec.Traces[0].U) != 0 {
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

// TestLaneCheckpointCarriesAux takes dumps by hand beside a stepping
// simulator and checks the background-written checkpoint still has the aux
// snapshot taken when the dump was taken.
func TestLaneCheckpointCarriesAux(t *testing.T) {
	cfg := baseConfig()
	cfg.Steps = 20
	dir := t.TempDir()
	ctl := &checkpoint.Controller{Dir: dir, Interval: 10, Keep: 2}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Cfg.Checkpoint = ctl
	for sim.StepCount() < cfg.Steps {
		sim.Step()
		if ctl.Due(sim.StepCount()) {
			if err := sim.checkpoint(); err != nil {
				t.Fatal(err)
			}
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
	if n := len(s2.rec.Traces[0].U); n != 20 {
		t.Fatalf("aux carries %d trace samples, want 20", n)
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

// TestResumedRunRatesAreOverItsOwnSteps: a run resumed at step 36 of 40
// reports its rates over the 4 steps its loop advanced and their wall time
// — on a clock that moves one tick a reading — serially and on ranks, while
// its step count and flops stay the whole simulation's.
func TestResumedRunRatesAreOverItsOwnSteps(t *testing.T) {
	const tick = time.Millisecond
	defer func() { timeNow = time.Now }()
	for _, tc := range []struct {
		name string
		run  func(*testing.T, Config) *Result
		// the loop reads the clock as it starts and as it ends; on 2x1
		// ranks the other rank's two readings may fall between rank 0's
		maxTicks time.Duration
	}{{"serial", runSerial, 1}, {"ranks2x1", runRanks, 3}} {
		cfg := baseConfig()
		whole := tc.run(t, cfg)
		first := cfg
		first.Steps = 36
		first.Checkpoint = &checkpoint.Controller{Dir: t.TempDir(), Interval: 36, Keep: 1}
		tc.run(t, first)
		resumed := cfg
		resumed.RestartFrom = first.Checkpoint.Latest()

		var now atomic.Int64
		timeNow = func() time.Time { return time.Unix(0, now.Add(int64(tick))) }
		p := tc.run(t, resumed).Perf
		timeNow = time.Now

		if p.Steps != 40 || p.Ran != 4 || p.Flops() != whole.Perf.Flops() {
			t.Fatalf("%s: %d steps, %d run, %d flops; want 40, 4 and the uninterrupted run's %d",
				tc.name, p.Steps, p.Ran, p.Flops(), whole.Perf.Flops())
		}
		if n := p.Elapsed / tick; p.Elapsed%tick != 0 || n < 1 || n > tc.maxTicks {
			t.Fatalf("%s: stepping took %v, want 1 to %d ticks of %v", tc.name, p.Elapsed, tc.maxTicks, tick)
		}
		if got, want := p.PointsPerSecond(), float64(cfg.Dims.Points()*4)/p.Elapsed.Seconds(); got != want {
			t.Errorf("%s: %.4g points/s, want 4 steps' points over %v: %.4g", tc.name, got, p.Elapsed, want)
		}
		if got, want := p.Gflops(), float64(whole.Perf.Flops()/40*4)/p.Elapsed.Seconds()/1e9; got != want {
			t.Errorf("%s: %.4g Gflops, want 4 steps' flops over %v: %.4g", tc.name, got, p.Elapsed, want)
		}
	}
}

// parentResumeSection is an RSA1 section written by the encoder that still
// carried the Perf counters and the recorder's step count (non-zero in all
// six retired i64 words, 3 in the retired u32): stations S1 and S2 with
// three samples each, a 6x4 PGV surface and 12345 yielded point-steps.
const parentResumeSection = "testdata/rsa1-with-counters.bin"

// TestParentResumeSectionRestores: a resume section written with the
// retired counters restores the same traces, PGV and yield count — the
// counter words are skipped, whatever they hold.
func TestParentResumeSectionRestores(t *testing.T) {
	data, err := os.ReadFile(parentResumeSection)
	if err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint64(data[12:]) == 0 {
		t.Fatal("the pinned section's first retired word is zero: it pins nothing")
	}
	// a run the section fits: two stations and a 6x4 surface
	cfg := baseConfig()
	cfg.Dims = grid.Dims{Nx: 6, Ny: 4, Nz: 10}
	cfg.SpongeWidth = 0
	cfg.Sources[0].I, cfg.Sources[0].J, cfg.Sources[0].K = 3, 2, 5
	cfg.Stations = []seismo.Station{{Name: "S1", I: 1, J: 1}, {Name: "S2", I: 4, J: 2}}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.applyResumeAux(data); err != nil {
		t.Fatal(err)
	}
	if sim.yielded != 12345 {
		t.Fatalf("restored %d yielded, want 12345", sim.yielded)
	}
	want := [][3][]float32{
		{{1, -2, 3.5}, {0.25, 0, -0.125}, {1e-7, 2e-7, -3e-7}},
		{{-1, 2, -3.5}, {4, 5, 6}, {7, 8, 9}},
	}
	for i, tr := range sim.rec.Traces {
		for c, got := range [3][]float32{tr.U, tr.V, tr.W} {
			if fmt.Sprint(got) != fmt.Sprint(want[i][c]) {
				t.Fatalf("%s component %d: %v, want %v", tr.Station.Name, c, got, want[i][c])
			}
		}
	}
	for i, v := range sim.pgv.PGV {
		if v != float64(i)*0.01 {
			t.Fatalf("PGV[%d] = %g, want %g", i, v, float64(i)*0.01)
		}
	}
	// today's encoder writes the same layout, the retired words zero
	again := sim.resumeAux()
	if len(again) != len(data) {
		t.Fatalf("re-encoded section is %d bytes, the pinned one %d", len(again), len(data))
	}
	if !bytes.Equal(again, retire(data)) {
		t.Fatal("re-encoded section differs from the pinned one with its retired words zeroed")
	}
}

// retire returns a copy of an RSA1 section with its retired words zeroed.
func retire(data []byte) []byte {
	out := bytes.Clone(data)
	clear(out[12 : 12+retiredBytes])
	return out
}

// FuzzParseResumeAux: the resume-section decoder never panics, and what it
// accepts re-encodes to itself with the retired words zeroed.
func FuzzParseResumeAux(f *testing.F) {
	if data, err := os.ReadFile(parentResumeSection); err == nil {
		f.Add(data)
	}
	f.Add(encodeResumeState(&resumeState{}))
	f.Add(encodeResumeState(&resumeState{yielded: 7,
		traces: [][3][]float32{{{1, 2}, {3, 4}, {5, 6}}}, pgv: seismo.NewPGVField(2, 3, 1)}))
	f.Add([]byte("RSA1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := parseResumeAux(data)
		if err != nil {
			return
		}
		if again := encodeResumeState(st); !bytes.Equal(again, retire(data)) {
			t.Fatalf("accepted %x, re-encodes to %x", data, again)
		}
	})
}
