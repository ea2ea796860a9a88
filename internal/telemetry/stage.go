// Package telemetry is the observability layer shared by the solver, the
// job service and the daemons: per-stage kernel timing (the paper's Fig. 7
// per-kernel accounting applied to our step pipeline), a span tracer with
// Chrome trace-event JSONL export (viewable in Perfetto), a zero-dependency
// Prometheus text-format registry, fixed-bucket histograms, structured
// logging constructors, and build-info introspection.
//
// The package deliberately depends on nothing but the standard library and
// is imported by internal/core, so it must never import solver packages.
package telemetry

import (
	"time"
)

// Stage identifies one stage of the step pipeline (internal/core/pipeline.go,
// paper Fig. 3 / §6.5). The values are dense so a StageClock can be a flat
// array indexed by Stage — no maps, no locks on the hot path.
type Stage int

const (
	StageFreeSurface Stage = iota
	StageVelocity
	StageHaloVelocity
	StageStress
	StageSource
	StagePlasticity
	StageAttenuation
	StageSponge
	StageHaloStress
	StageCompression
	StageRecord
	StageCheckpoint
	StageDivergence
	// StageHaloWait is the time a rank blocks on in-flight velocity-halo
	// messages under Config.Overlap (Exchanger.FinishVelocity after the
	// interior compute). Without overlap the whole exchange is charged to
	// StageHaloVelocity / StageHaloStress; overlap splits the posting cost
	// (still charged there) from the wait, so the report shows how much
	// latency the interior hid.
	StageHaloWait
	numStages
)

// stageNames maps Stage values to the names used in reports, manifests and
// Prometheus labels. Order must match the constants above.
var stageNames = [numStages]string{
	"free_surface", "velocity", "halo_velocity", "stress", "source",
	"plasticity", "attenuation", "sponge", "halo_stress", "compression",
	"record", "checkpoint", "divergence", "halo_wait",
}

// String returns the stage's report name.
func (s Stage) String() string {
	if s < 0 || s >= numStages {
		return "unknown"
	}
	return stageNames[s]
}

// StageBucketBounds are the fixed histogram bucket upper bounds, in seconds,
// used for per-stage durations. A stage observation of exactly a bound lands
// in that bound's bucket (Prometheus `le` semantics); anything above the
// last bound lands in the implicit +Inf bucket.
var StageBucketBounds = []float64{
	10e-6, 100e-6, 1e-3, 10e-3, 100e-3, 1,
}

// numStageBuckets is len(StageBucketBounds) plus the +Inf bucket; the init
// check below keeps the two in sync.
const numStageBuckets = 7

func init() {
	if numStageBuckets != len(StageBucketBounds)+1 {
		panic("telemetry: numStageBuckets out of sync with StageBucketBounds")
	}
}

// stageAccum accumulates one stage's observations. Plain int64 fields, no
// atomics: each worker (a serial run, or one simulated-MPI rank) owns its
// own StageClock and clocks are merged after the run — the "lock-free
// per-worker accumulator" pattern.
type stageAccum struct {
	count   int64
	total   int64 // ns
	min     int64 // ns; valid when count > 0
	max     int64 // ns
	buckets [numStageBuckets]int64
}

// StageClock is the per-worker stage-timing collector. The zero value is
// ready to use; a nil *StageClock is a valid no-op collector (all methods
// are nil-safe), which is how instrumentation is disabled.
type StageClock struct {
	acc [numStages]stageAccum
}

// NewStageClock returns an empty collector.
func NewStageClock() *StageClock { return &StageClock{} }

// Observe records one duration for the stage. Negative durations are
// clamped to zero (the wall clock can step backwards).
func (c *StageClock) Observe(st Stage, d time.Duration) {
	if c == nil || st < 0 || st >= numStages {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	a := &c.acc[st]
	if a.count == 0 || ns < a.min {
		a.min = ns
	}
	if ns > a.max {
		a.max = ns
	}
	a.count++
	a.total += ns
	a.buckets[bucketIndex(StageBucketBounds, float64(ns)/1e9)]++
}

// bucketIndex returns the index of the bucket a value falls into: the first
// bound b with v <= b, or len(bounds) for the +Inf bucket.
func bucketIndex(bounds []float64, v float64) int {
	for i, b := range bounds {
		if v <= b {
			return i
		}
	}
	return len(bounds)
}

// Merge folds another worker's clock into c (both nil-safe). Counts,
// totals and buckets add; min/max combine.
func (c *StageClock) Merge(o *StageClock) {
	if c == nil || o == nil {
		return
	}
	for st := range o.acc {
		oa := &o.acc[st]
		if oa.count == 0 {
			continue
		}
		a := &c.acc[st]
		if a.count == 0 || oa.min < a.min {
			a.min = oa.min
		}
		if oa.max > a.max {
			a.max = oa.max
		}
		a.count += oa.count
		a.total += oa.total
		for b := range oa.buckets {
			a.buckets[b] += oa.buckets[b]
		}
	}
}

// Stopwatch starts a lap timer over the clock. On a nil clock the stopwatch
// is inert: Lap neither reads the wall clock nor records anything, so
// disabled instrumentation costs one nil check per stage.
func (c *StageClock) Stopwatch() Stopwatch {
	if c == nil {
		return Stopwatch{}
	}
	return Stopwatch{c: c, last: time.Now()}
}

// Stopwatch attributes consecutive spans of wall time to stages: each Lap
// charges the time since the previous Lap (or the Stopwatch call) to the
// given stage. Chaining laps halves the time.Now calls a start/stop pair
// per stage would need.
type Stopwatch struct {
	c    *StageClock
	last time.Time
}

// Lap charges the time since the last lap to st and restarts the timer.
func (sw *Stopwatch) Lap(st Stage) {
	if sw.c == nil {
		return
	}
	now := time.Now()
	sw.c.Observe(st, now.Sub(sw.last))
	sw.last = now
}

// StageTally accumulates wall time per stage without observing it: what a
// worker keeps while it interleaves several stages over many blocks of one
// step, where a Lap per block would report each stage once per block. A
// tally started from an inert stopwatch is inert too. The zero value is an
// inert tally.
type StageTally struct {
	on   bool
	last time.Time
	ns   [numStages]int64
	seen [numStages]bool
}

// Tally starts a tally beside the stopwatch; Stopwatch.LapTallied closes it.
func (sw *Stopwatch) Tally() StageTally {
	if sw.c == nil {
		return StageTally{}
	}
	return StageTally{on: true, last: time.Now()}
}

// Fork starts a tally of the same kind (live or inert) for another worker;
// Merge folds it back.
func (t *StageTally) Fork() StageTally {
	if !t.on {
		return StageTally{}
	}
	return StageTally{on: true, last: time.Now()}
}

// Lap adds the time since the last lap (or the start) to st.
func (t *StageTally) Lap(st Stage) { t.LapTo(t, st) }

// LapTo is Lap with the time added to another tally's st: one worker, one
// clock, and a stage that is to be observed apart from the rest.
func (t *StageTally) LapTo(o *StageTally, st Stage) {
	if !t.on {
		return
	}
	now := time.Now()
	o.ns[st] += int64(now.Sub(t.last))
	o.seen[st] = true
	t.last = now
}

// Merge adds a forked tally's times. Not safe for concurrent use: workers
// merge under the caller's lock.
func (t *StageTally) Merge(o *StageTally) {
	for st := range o.ns {
		t.ns[st] += o.ns[st]
		t.seen[st] = t.seen[st] || o.seen[st]
	}
}

// LapTallied charges the time since the last lap to the stages the tallies
// saw, one observation per tally and stage, in proportion to their tallied
// times — so the observations still sum to the wall time that passed,
// whether one worker kept the tallies (their times are that wall time) or
// several did side by side (their times sum to more).
func (sw *Stopwatch) LapTallied(ts ...*StageTally) {
	if sw.c == nil {
		return
	}
	now := time.Now()
	wall := now.Sub(sw.last)
	sw.last = now
	var total int64
	n := 0
	for _, t := range ts {
		for st := Stage(0); st < numStages; st++ {
			if t.seen[st] {
				total += t.ns[st]
				n++
			}
		}
	}
	left := wall
	for _, t := range ts {
		for st := Stage(0); st < numStages; st++ {
			if !t.seen[st] {
				continue
			}
			d := left // the last observation takes what rounding left over
			if n--; n > 0 {
				d = 0
				if total > 0 {
					d = time.Duration(float64(wall) * float64(t.ns[st]) / float64(total))
				}
				left -= d
			}
			sw.c.Observe(st, d)
		}
	}
}

// StageStats is one stage's aggregated timing in a report.
type StageStats struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	Seconds float64 `json:"seconds"`
	MinS    float64 `json:"min_s"`
	MaxS    float64 `json:"max_s"`
	// Buckets are the per-bucket observation counts over StageBucketBounds,
	// with the trailing entry counting observations above the last bound.
	Buckets []int64 `json:"buckets,omitempty"`
}

// AvgSeconds returns the mean observation, or 0 with no observations.
func (s StageStats) AvgSeconds() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Seconds / float64(s.Count)
}

// StageReport is the exported aggregation of a StageClock: the per-stage
// breakdown that mirrors the paper's Fig. 7 kernel accounting. Stages with
// no observations are omitted; order follows the pipeline.
type StageReport struct {
	Stages []StageStats `json:"stages"`
}

// Report snapshots the clock (nil-safe; a nil clock reports no stages).
func (c *StageClock) Report() StageReport {
	var r StageReport
	if c == nil {
		return r
	}
	for st := Stage(0); st < numStages; st++ {
		a := &c.acc[st]
		if a.count == 0 {
			continue
		}
		buckets := make([]int64, len(a.buckets))
		copy(buckets, a.buckets[:])
		r.Stages = append(r.Stages, StageStats{
			Name:    st.String(),
			Count:   a.count,
			Seconds: float64(a.total) / 1e9,
			MinS:    float64(a.min) / 1e9,
			MaxS:    float64(a.max) / 1e9,
			Buckets: buckets,
		})
	}
	return r
}

// TotalSeconds sums the per-stage seconds of the report.
func (r StageReport) TotalSeconds() float64 {
	var s float64
	for _, st := range r.Stages {
		s += st.Seconds
	}
	return s
}
