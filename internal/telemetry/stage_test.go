package telemetry

import (
	"testing"
	"time"
)

func TestStageClockObserveAndReport(t *testing.T) {
	c := NewStageClock()
	c.Observe(StageVelocity, 2*time.Millisecond)
	c.Observe(StageVelocity, 4*time.Millisecond)
	c.Observe(StageStress, 10*time.Millisecond)
	c.Observe(StageStress, -time.Millisecond) // clamps to zero

	r := c.Report()
	if len(r.Stages) != 2 {
		t.Fatalf("report has %d stages, want 2 (velocity, stress): %+v", len(r.Stages), r)
	}
	vel := r.Stages[0]
	if vel.Name != "velocity" || vel.Count != 2 {
		t.Fatalf("velocity stats wrong: %+v", vel)
	}
	if got, want := vel.Seconds, 0.006; !near(got, want, 1e-12) {
		t.Fatalf("velocity seconds %g, want %g", got, want)
	}
	if !near(vel.MinS, 0.002, 1e-12) || !near(vel.MaxS, 0.004, 1e-12) {
		t.Fatalf("velocity min/max wrong: %+v", vel)
	}
	if !near(vel.AvgSeconds(), 0.003, 1e-12) {
		t.Fatalf("velocity avg %g, want 0.003", vel.AvgSeconds())
	}
	str := r.Stages[1]
	if str.Name != "stress" || str.Count != 2 || str.MinS != 0 {
		t.Fatalf("stress stats wrong (negative observation must clamp): %+v", str)
	}
	if got, want := r.TotalSeconds(), 0.016; !near(got, want, 1e-12) {
		t.Fatalf("report total %g, want %g", got, want)
	}
}

func TestStageClockNilSafety(t *testing.T) {
	var c *StageClock
	c.Observe(StageVelocity, time.Second) // must not panic
	c.Merge(NewStageClock())
	NewStageClock().Merge(c)
	sw := c.Stopwatch()
	sw.Lap(StageStress)
	if len(c.Report().Stages) != 0 {
		t.Fatal("nil clock must report nothing")
	}
}

func TestStageClockMerge(t *testing.T) {
	a, b := NewStageClock(), NewStageClock()
	a.Observe(StageVelocity, 1*time.Millisecond)
	b.Observe(StageVelocity, 5*time.Millisecond)
	b.Observe(StagePlasticity, 2*time.Millisecond)
	a.Merge(b)

	r := a.Report()
	if len(r.Stages) != 2 {
		t.Fatalf("merged report: %+v", r)
	}
	vel := r.Stages[0]
	if vel.Count != 2 || !near(vel.Seconds, 0.006, 1e-12) ||
		!near(vel.MinS, 0.001, 1e-12) || !near(vel.MaxS, 0.005, 1e-12) {
		t.Fatalf("merged velocity wrong: %+v", vel)
	}
	if r.Stages[1].Name != "plasticity" || r.Stages[1].Count != 1 {
		t.Fatalf("merged plasticity wrong: %+v", r.Stages[1])
	}
	// bucket counts add: 1ms lands exactly on the le=1ms bound (index 2),
	// 5ms in the le=10ms bucket (index 3)
	if vel.Buckets[2] != 1 || vel.Buckets[3] != 1 {
		t.Fatalf("merged velocity buckets wrong: %v", vel.Buckets)
	}
}

func TestStageBucketEdges(t *testing.T) {
	c := NewStageClock()
	// exactly on a bound lands in that bound's bucket (le semantics)
	c.Observe(StageSource, 10*time.Microsecond)
	// just above moves to the next bucket
	c.Observe(StageSource, 10*time.Microsecond+time.Nanosecond)
	// beyond the last bound lands in +Inf
	c.Observe(StageSource, 5*time.Second)
	st := c.Report().Stages[0]
	if st.Buckets[0] != 1 || st.Buckets[1] != 1 || st.Buckets[len(st.Buckets)-1] != 1 {
		t.Fatalf("bucket edges wrong: %v", st.Buckets)
	}
}

func TestStopwatchLapAttribution(t *testing.T) {
	c := NewStageClock()
	sw := c.Stopwatch()
	time.Sleep(time.Millisecond)
	sw.Lap(StageVelocity)
	time.Sleep(time.Millisecond)
	sw.Lap(StageStress)
	r := c.Report()
	if len(r.Stages) != 2 {
		t.Fatalf("want 2 stages, got %+v", r)
	}
	for _, st := range r.Stages {
		if st.Seconds <= 0 {
			t.Fatalf("stage %s has no time", st.Name)
		}
	}
}

func TestStageStringUnknown(t *testing.T) {
	if Stage(-1).String() != "unknown" || Stage(999).String() != "unknown" {
		t.Fatal("out-of-range stages must stringify as unknown")
	}
	if StageCheckpoint.String() != "checkpoint" {
		t.Fatalf("checkpoint stage name: %s", StageCheckpoint.String())
	}
}

func near(got, want, tol float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= tol
}
