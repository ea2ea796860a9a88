package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The benchmark runs from the repo root (it builds ./cmd/quaked and reads
// BENCHMARK.json), so the tests move there.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestPercentile(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {1, 10}, {0.01, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if s[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 0.5) != 0 || median([]float64{7}) != 7 {
		t.Error("percentile of none or one sample is wrong")
	}
}

func TestBest(t *testing.T) {
	s := []float64{3, 9, 1, 4}
	if best(s, true) != 9 || best(s, false) != 1 || best(nil, true) != 0 {
		t.Errorf("best: got %v and %v", best(s, true), best(s, false))
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4), the
// numbers below being its output.
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{3, 1, 4, 1.5, 9, 2.6, 5.3, 5.8, 9.7, 9.3})
	if math.Abs(q1-2.325) > 1e-12 || math.Abs(med-4.65) > 1e-12 || math.Abs(q3-9.075) > 1e-12 {
		t.Errorf("quartiles = %v %v %v, want 2.325 4.65 9.075", q1, med, q3)
	}
	if q1, med, q3 = quartiles([]float64{3, 1, 4}); q1 != 1 || med != 3 || q3 != 4 {
		t.Errorf("quartiles of three = %v %v %v, want 1 3 4", q1, med, q3)
	}
	if got := quartileSpread([]float64{3, 1, 4}); got != 1 {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: tracedRep, Start: 0, End: 100, Parent: noSpan},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0}, // overlaps a: the union counts
		{Name: "c", Start: 35, End: 38, Parent: 1},
		{Name: "d", Start: 90, End: 120, Parent: 0}, // clipped to the parent
	}
	self := selfTimes(spans)
	if want := []int64{40, 27, 30, 3, 30}; !equalInt64(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	if got := spanCoverage(spans, tracedRep); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("spanCoverage = %v, want 0.6", got)
	}
}

func equalInt64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPlanJobs(t *testing.T) {
	const n = 160 // more distinct jobs than the daemon's cache holds
	plan := planJobs(7, n, 4)
	again := planJobs(7, n, 4)
	repeats := 0
	for i, jp := range plan {
		if jp != again[i] {
			t.Fatal("the same seed gave a different plan")
		}
		if jp.repeatOf < 0 {
			continue
		}
		repeats++
		if jp.repeatOf >= i-clients || plan[jp.repeatOf].repeatOf >= 0 || plan[jp.repeatOf].seed != jp.seed {
			t.Errorf("job %d repeats job %d: not an earlier distinct job with its seed", i, jp.repeatOf)
		}
		distinctSince := 0
		for _, between := range plan[jp.repeatOf:i] {
			if between.repeatOf < 0 {
				distinctSince++
			}
		}
		if distinctSince > repeatWindow+clients {
			t.Errorf("job %d repeats job %d, %d distinct jobs back: the cache may have dropped it", i, jp.repeatOf, distinctSince)
		}
	}
	if repeats != n/4 {
		t.Errorf("%d repeats in %d jobs, want every 4th", repeats, n)
	}
	if other := planJobs(8, n, 4); other[0].seed == plan[0].seed {
		t.Error("another seed gave the same job seeds")
	}
}

func TestVerdict(t *testing.T) {
	doc := func(median, spread float64) *e2eDoc { return &e2eDoc{Median: median, Spread: spread} }
	for _, c := range []struct {
		a, b   *e2eDoc
		higher bool
		want   string
	}{
		{doc(100, 0.01), doc(103, 0.01), false, "within bound"},
		{doc(100, 0.01), doc(120, 0.01), false, "worse"},
		{doc(100, 0.01), doc(120, 0.01), true, "better"},
		{doc(100, 0.01), doc(80, 0.01), true, "worse"},
		{doc(100, 0.2), doc(80, 0.01), true, "unresolved"},
		{doc(100, 0.01), doc(80, 0.2), true, "unresolved"},
	} {
		if got, _ := verdict(c.a, c.b, c.higher, 0.1); got != c.want {
			t.Errorf("verdict(%v -> %v, higher=%v) = %q, want %q", c.a.Median, c.b.Median, c.higher, got, c.want)
		}
	}
}

// TestCompare drives -compare over two documents: identical ones pass, a
// regression beyond the bound fails.
func TestCompare(t *testing.T) {
	bj, err := readBenchmarkJSON("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(scale float64) string {
		d := document{Workloads: map[string]*workloadDoc{}}
		for _, w := range workloads {
			wd := &workloadDoc{EndToEnd: map[string]*e2eDoc{}}
			for _, m := range bj.EndToEnd {
				v := 100.0
				if m.Name == "points_per_s" {
					v *= scale
				}
				wd.EndToEnd[m.Name] = &e2eDoc{Median: v, Spread: 0.01}
			}
			d.Workloads[w.name] = wd
		}
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "doc.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, slower, slightlySlower := mk(1), mk(0.5), mk(0.88)
	var out bytes.Buffer
	if err := compareFiles([]string{base, base}, &out); err != nil {
		t.Errorf("identical documents: %v", err)
	}
	if rows := strings.Count(out.String(), "within bound"); rows != len(workloads)*len(bj.EndToEnd) {
		t.Errorf("%d rows within bound, want one per (workload, metric) = %d\n%s",
			rows, len(workloads)*len(bj.EndToEnd), out.String())
	}
	out.Reset()
	if err := compareFiles([]string{base, slower}, &out); err == nil || !strings.Contains(out.String(), "worse") {
		t.Errorf("halved points_per_s was not reported worse (err %v)\n%s", err, out.String())
	}
	// 12 % is inside BENCHMARK.json's bound and outside every workload's own
	out.Reset()
	if err := compareFiles([]string{base, slightlySlower}, &out); err == nil || strings.Count(out.String(), "worse") != len(workloads) {
		t.Errorf("points_per_s down 12%% was not reported worse on every workload (err %v)\n%s", err, out.String())
	}
}

// TestBaselineAgrees is the run-to-run check on record: the two sets of ten
// runs of one commit stored in baseline/ agree within every row's bound,
// whichever is taken as the parent.
func TestBaselineAgrees(t *testing.T) {
	a, b := filepath.Join("benchmark", "baseline", "A.json"), filepath.Join("benchmark", "baseline", "B.json")
	for _, order := range [][]string{{a, b}, {b, a}} {
		var out bytes.Buffer
		if err := compareFiles(order, &out); err != nil {
			t.Errorf("-compare %v: %v", order, err)
		}
		for _, v := range []string{"worse", "better", "unresolved"} {
			if strings.Contains(out.String(), v) {
				t.Errorf("-compare %v has a row that is %s:\n%s", order, v, out.String())
			}
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestContract holds BENCHMARK.json and the tables in the code together:
// the same workloads and metrics, by name, unit and direction, once each.
func TestContract(t *testing.T) {
	bj, err := readBenchmarkJSON("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q uses characters outside letters, digits, _ . -", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		name("workload", w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q (or their why differs)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the code %d and %d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for i, m := range bj.EndToEnd {
		name("metric", m.Name)
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higher) {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range bj.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound, %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, own := range []map[string]float64{solverBounds, daemonBounds} {
		for n := range own {
			if !seen[n] {
				t.Errorf("-compare has a bound for %q, which is not an end-to-end metric", n)
			}
		}
	}
	for i, m := range bj.PerLayer {
		name("metric", m.Name)
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higher) {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" || bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", bj.Paths, bj.RunSeconds)
	}
}

// checkMetrics asserts that a result line carries exactly the given metrics,
// each with its unit and a finite value.
func checkMetrics(t *testing.T, rr *runResult, defs []metricDef) {
	t.Helper()
	if !rr.Correct || rr.Failed != 0 || rr.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d: %v", rr.Correct, rr.Attempted, rr.Failed, rr.errs)
	}
	if len(rr.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, want %d", len(rr.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := rr.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s is missing", d.name)
		case v.Unit != d.unit:
			t.Errorf("metric %s has unit %q, want %q", d.name, v.Unit, d.unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s = %v", d.name, v.Value)
		}
	}
	line, err := json.Marshal(rr)
	if err != nil {
		t.Fatalf("result line: %v", err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
		t.Errorf("result line must have exactly correct, attempted, failed, metrics: %s", line)
	}
}

// TestSmoke runs every workload at the smoke scale, untraced and traced: the
// same code as the full benchmark on tiny grids with one repetition. It
// needs the go command, to build the daemon the job mix drives.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns the quaked daemon")
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			rr, err := runUntraced(w, smokeScale, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, rr, endToEnd)
			for _, d := range endToEnd {
				if rr.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", d.name, rr.Metrics[d.name].Value)
				}
			}
		})
	}
	for _, w := range workloads {
		name := w.name
		t.Run(name+"/traced", func(t *testing.T) {
			outDir := t.TempDir()
			rr, err := runTraced(findWorkload(name), smokeScale, 1, 0, outDir)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, rr, perLayer)
			if c := rr.Metrics["trace.span_coverage"].Value; c < 0.9 {
				t.Errorf("spans account for %.0f%% of the traced repetition, want >= 90%%", 100*c)
			}
			data, err := os.ReadFile(filepath.Join(outDir, "trace-"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil || len(tf.Spans) == 0 || tf.Workload != name {
				t.Errorf("trace file does not load: %v (%d spans)", err, len(tf.Spans))
			}
		})
	}
}
