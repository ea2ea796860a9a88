package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"swquake/internal/compress"
	"swquake/internal/telemetry"
)

// TestStageTimingCoversWallTime is the acceptance check for the per-stage
// collectors: the summed stage seconds of a serial run must account for the
// run's wall time to within 5% — if a meaningful chunk of a step were
// untimed, the Fig. 7-style breakdown would silently lie.
func TestStageTimingCoversWallTime(t *testing.T) {
	cfg := baseConfig()
	cfg.Steps = 60
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages == nil {
		t.Fatal("stage timing must be on by default")
	}
	rep := res.Stages.Report()
	wall := res.Perf.Elapsed.Seconds()
	total := rep.TotalSeconds()
	if wall <= 0 || total <= 0 {
		t.Fatalf("no time recorded: wall=%g stages=%g", wall, total)
	}
	if ratio := total / wall; ratio < 0.95 || ratio > 1.05 {
		t.Errorf("stage total %.4fs vs wall %.4fs (ratio %.3f), want within 5%%\n%+v",
			total, wall, ratio, rep.Stages)
	}
	// the core stages of this configuration must all be present
	names := map[string]bool{}
	for _, st := range rep.Stages {
		names[st.Name] = true
		if st.Count == 0 || st.MinS > st.MaxS {
			t.Errorf("stage %s has inconsistent stats: %+v", st.Name, st)
		}
	}
	for _, want := range []string{"free_surface", "velocity", "halo_velocity", "stress",
		"source", "sponge", "halo_stress", "record", "divergence"} {
		if !names[want] {
			t.Errorf("stage %q missing from report (have %v)", want, names)
		}
	}
	// velocity and stress observe once per step
	if rep.Stages[1].Name != "velocity" || rep.Stages[1].Count != int64(cfg.Steps) {
		t.Errorf("velocity stage count: %+v", rep.Stages[1])
	}
}

// TestParallelStageMerge checks the lock-free per-worker pattern: each rank
// times its own block and RunParallel merges the clocks, so per-stage step
// counts sum over ranks and halo-exchange time appears.
func TestParallelStageMerge(t *testing.T) {
	cfg := baseConfig()
	cfg.Steps = 20
	res, err := RunParallel(cfg, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages == nil {
		t.Fatal("parallel run must carry merged stage timing")
	}
	rep := res.Stages.Report()
	var vel, halo *telemetry.StageStats
	for i := range rep.Stages {
		switch rep.Stages[i].Name {
		case "velocity":
			vel = &rep.Stages[i]
		case "halo_velocity":
			halo = &rep.Stages[i]
		}
	}
	if vel == nil || vel.Count != int64(4*cfg.Steps) {
		t.Fatalf("velocity count must sum over 4 ranks: %+v", vel)
	}
	if halo == nil || halo.Seconds <= 0 {
		t.Fatalf("halo exchange must record time in parallel runs: %+v", halo)
	}
}

// TestEngineStepSpans checks the per-step tracer hook: a traced run emits
// one "X" span per step on the configured track, and the trace parses.
func TestEngineStepSpans(t *testing.T) {
	var buf bytes.Buffer
	tr := telemetry.NewTracer(&buf)
	cfg := baseConfig()
	cfg.Steps = 8
	cfg.Tracer = tr
	cfg.TraceTID = 7
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace unparseable: %v", err)
	}
	steps := 0
	for _, ev := range events {
		if ev["name"] == "step" && ev["ph"] == "X" {
			steps++
			if ev["tid"] != float64(7) {
				t.Fatalf("step span on wrong track: %v", ev)
			}
		}
	}
	if steps != cfg.Steps {
		t.Fatalf("traced %d step spans, want %d", steps, cfg.Steps)
	}
}

// TestCalibrationReportsToNobody: the coarse run a compressed run calibrates
// on is not the run. A compressed New with a tracer and an observer records
// no span and reports no step before Run; a compressed RunParallel traces
// and observes its own steps alone.
func TestCalibrationReportsToNobody(t *testing.T) {
	traced := func(cfg *Config, steps *int) (events func() []map[string]any) {
		var buf bytes.Buffer
		tr := telemetry.NewTracer(&buf)
		cfg.Compression = compress.Normalized
		cfg.Tracer = tr
		cfg.Observer = func(StepEvent) { *steps++ }
		return func() []map[string]any {
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			var all, evs []map[string]any
			if err := json.Unmarshal(buf.Bytes(), &all); err != nil {
				t.Fatalf("trace unparseable: %v", err)
			}
			for _, ev := range all {
				if ev["ph"] != "M" { // Close's own trace_end
					evs = append(evs, ev)
				}
			}
			return evs
		}
	}

	cfg := baseConfig()
	observed := 0
	events := traced(&cfg, &observed)
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
	if evs := events(); len(evs) != 0 || observed != 0 {
		t.Fatalf("New traced %d events and observed %d steps before Run: %v", len(evs), observed, evs)
	}

	cfg = baseConfig()
	cfg.Steps = 8
	observed = 0
	events = traced(&cfg, &observed)
	if _, err := RunParallel(cfg, 2, 1); err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, ev := range events() {
		if ev["name"] == "step" {
			spans++
		}
	}
	if spans != cfg.Steps || observed != cfg.Steps {
		t.Fatalf("%d steps traced and %d observed, want the run's %d", spans, observed, cfg.Steps)
	}
}

func nearF(got, want, tol float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// The overhead pair: the same serial step with and without the per-stage
// collectors. The instrumented step must stay within 2% of the bare one —
// the budget ISSUE 4 sets for always-on timing. The bare arm takes the
// simulator's clock away (a nil StageClock is the no-op collector); no
// Config switch does that.
func benchmarkStep(b *testing.B, noTiming bool) {
	cfg := baseConfig()
	cfg.Dims.Nx, cfg.Dims.Ny, cfg.Dims.Nz = 48, 48, 32
	cfg.Steps = 1
	sim, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if noTiming {
		sim.stages = nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

func BenchmarkStepTimingOverhead(b *testing.B) {
	b.Run("instrumented", func(b *testing.B) { benchmarkStep(b, false) })
	b.Run("bare", func(b *testing.B) { benchmarkStep(b, true) })
}
