package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// traceDir is where the command writes a traced run's spans (listed in
// .gitignore).
const traceDir = "benchmark/out"

// goldenJSON pins the result digest of every pinned solver run per scale, as
// computed on GOARCH=amd64 (float rounding may differ elsewhere, where only
// the within-run identity checks apply). Written by -write-golden.
//
//go:embed golden.json
var goldenJSON []byte

func loadGolden() (map[string]map[string]string, error) {
	g := map[string]map[string]string{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// metricValue and runResult are the result line of one run: the last line of
// standard output, one JSON object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	errs   []string
	digest string
}

func (rr *runResult) fail(format string, a ...any) {
	rr.Failed++
	rr.errs = append(rr.errs, fmt.Sprintf(format, a...))
}

// absorb folds one repetition's counts and digest into the run: every
// repetition of a run must produce the same outputs.
func (rr *runResult) absorb(r *repResult) {
	rr.Attempted += r.attempted
	rr.Failed += r.failed
	rr.errs = append(rr.errs, r.errs...)
	switch {
	case rr.digest == "":
		rr.digest = r.digest
	case r.digest != rr.digest:
		rr.fail("repetition digest %.12s differs from the first repetition's %.12s", r.digest, rr.digest)
	}
}

// newEnv makes the run's temporary directory (under $TMPDIR, which run.sh
// points inside the checkout) and builds the daemon into it when the run
// drives one. cleanup removes the directory and everything in it.
func newEnv(w *workload, sc scale, seed int64, traced bool) (e *env, cleanup func(), err error) {
	tmp, err := os.MkdirTemp("", "swquake-bench-")
	if err != nil {
		return nil, nil, err
	}
	cleanup = func() { os.RemoveAll(tmp) }
	e = &env{sc: sc, seed: seed, tmp: tmp, parent: noSpan}
	if w.daemon || traced { // the traced pass's probes drive the daemon too
		if e.quaked, err = buildQuaked(tmp); err != nil {
			cleanup()
			return nil, nil, err
		}
	}
	return e, cleanup, nil
}

// releaseMemory collects the previous repetition's arrays before the next
// one allocates, so that peak RSS measures one repetition's working set and
// not how late the collector happened to run. The freed spans stay in the
// heap on purpose: arrays made from them are zeroed during set-up, whereas
// pages fresh from the OS would be faulted in by the first time step and a
// run of a few steps would mostly measure page faults.
func releaseMemory() { runtime.GC() }

func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// checkPinned compares a solver run's digest with the one golden.json pins
// under name, on amd64 (float rounding may differ elsewhere).
func checkPinned(name, digest string, sc scale) error {
	if runtime.GOARCH != "amd64" {
		return nil
	}
	golden, err := loadGolden()
	if err != nil {
		return err
	}
	if want := golden[sc.name][name]; want != digest {
		return fmt.Errorf("result digest %.12s does not match golden.json (%.12s) for %s at %s scale",
			digest, want, name, sc.name)
	}
	return nil
}

// checkDigest holds the digest of a pinned workload's run to golden.json.
func checkDigest(rr *runResult, w *workload, sc scale) {
	if !w.pinned {
		return
	}
	if err := checkPinned(w.name, rr.digest, sc); err != nil {
		rr.fail("%v", err)
	}
}

// setupSamples is how many daemon set-ups one run takes its median over.
const setupSamples = 41

// runUntraced measures the end-to-end metrics: repetitions of the workload
// until the time budget is used (at least sc.minReps), tracing off.
func runUntraced(w *workload, sc scale, seed int64, seconds float64) (*runResult, error) {
	e, cleanup, err := newEnv(w, sc, seed, false)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	rr := &runResult{Metrics: map[string]metricValue{}}

	var setup, rate, p50, rss []float64
	start := time.Now()
	var longest time.Duration
	for n := 0; n < sc.minReps || time.Since(start)+longest < time.Duration(seconds*float64(time.Second)); n++ {
		releaseMemory()
		t := time.Now()
		r, err := w.run(e)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", n+1, err)
		}
		if d := time.Since(t); d > longest {
			longest = d
		}
		rr.absorb(r)
		if r.wallS <= 0 || len(r.latMS) == 0 {
			rr.fail("repetition %d measured nothing", n+1)
			continue
		}
		setup = append(setup, r.setupS)
		rate = append(rate, r.points/r.wallS)
		p50 = append(p50, median(r.latMS))
		if r.rssMB > 0 {
			rss = append(rss, r.rssMB)
		}
		fmt.Fprintf(os.Stderr, "rep %d: setup %.4fs  %.4g points/s  latency p50 %.3fms\n",
			n+1, r.setupS, r.points/r.wallS, median(r.latMS))
	}
	for w.daemon && len(setup) < setupSamples {
		d, err := startDaemon(e)
		if err != nil {
			return nil, err
		}
		d.stop()
		setup = append(setup, d.setupS)
	}
	checkDigest(rr, w, sc)

	peak := selfPeakRSSMB()
	if len(rss) > 0 {
		peak = median(rss) // one daemon per repetition
	}
	values := map[string]float64{
		"setup_s":        median(setup),
		"points_per_s":   best(rate, true),
		"latency_ms_p50": best(p50, false),
		"peak_rss_mb":    peak,
	}
	for _, d := range endToEnd {
		rr.Metrics[d.name] = metricValue{values[d.name], d.unit}
	}
	rr.Correct = rr.Failed == 0
	return rr, nil
}

// tracedShare is the part of --seconds the traced pass gives to the workload
// itself; the layer probes that follow take about 30 s whatever the budget,
// so that a traced run of --seconds 60 lasts no longer than an untraced one.
const tracedShare = 0.25

// runTraced measures the per-layer metrics: the workload untraced and traced
// in turn until tracedShare of the time budget is used (at least two pairs;
// the ratio of the best of each side is the tracing overhead), then every
// direct layer probe, all under one root span; the spans go to
// outDir/trace-<workload>.json.
func runTraced(w *workload, sc scale, seed int64, seconds float64, outDir string) (*runResult, error) {
	e, cleanup, err := newEnv(w, sc, seed, true)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	rr := &runResult{Metrics: map[string]metricValue{}}
	tr := newTracer()
	root := tr.begin("workload."+w.name, noSpan, 0)

	// pairs of an untraced and a traced repetition, for as long as another
	// pair of the mean length so far fits the budget
	bestWall := map[bool]float64{} // of the untraced and of the traced side
	stages := map[string]float64{}
	minPairs := 2
	if sc.minReps < 2 {
		minPairs = 1
	}
	start := time.Now()
	reps := 0
	for pair := 0; pair < minPairs || time.Since(start).Seconds()*float64(pair+1)/float64(pair) < tracedShare*seconds; pair++ {
		for _, traced := range []bool{false, true} {
			releaseMemory()
			reps++
			re := *e
			re.op = reps
			name := "rep.untraced"
			if traced {
				name = tracedRep
			}
			sp := tr.begin(name, root, re.op)
			if traced {
				re.tr, re.parent = tr, sp
			}
			t := time.Now()
			r, err := w.run(&re)
			d := time.Since(t).Seconds()
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			rr.absorb(r)
			if bestWall[traced] == 0 || d < bestWall[traced] {
				bestWall[traced] = d
			}
			if traced {
				for name, s := range r.stages {
					stages[name] += s
				}
			}
		}
	}
	checkDigest(rr, w, sc)

	m := layerMetrics{"trace.overhead_share": bestWall[true]/bestWall[false] - 1}
	var total float64
	for _, s := range stages {
		total += s
	}
	for _, st := range stageShares {
		m["core.stage_share."+st] = 0
		if total > 0 {
			m["core.stage_share."+st] = stages[st] / total
		}
	}

	releaseMemory()
	pe := *e
	pe.tr, pe.op = tr, reps+1
	pe.parent = tr.begin("probes", root, pe.op)
	// the probe suite counts as one operation for its own checks and errors,
	// and below as one more per metric it was to measure
	rr.Attempted++
	if err := runProbes(&pe, m); err != nil {
		rr.fail("%v", err)
	}
	tr.end(pe.parent)
	tr.end(root)

	m["trace.span_coverage"] = spanCoverage(tr.spans, tracedRep)
	path, err := tr.write(outDir, w.name, seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans, %.1f%% of wall in named spans, written to %s\n",
		len(tr.spans), 100*m["trace.span_coverage"], path)

	for _, d := range perLayer {
		rr.Attempted++
		v, ok := m[d.name]
		if !ok {
			rr.fail("per-layer metric %s was not measured", d.name)
		}
		rr.Metrics[d.name] = metricValue{v, d.unit}
	}
	rr.Correct = rr.Failed == 0
	return rr, nil
}
