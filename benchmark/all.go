package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"swquake/internal/telemetry"
)

// runsPerSet is how many untraced runs of each workload one document holds,
// seeds seed..seed+9: the size of the sets the contract's run-to-run check
// and -compare are defined on.
const runsPerSet = 10

// document is what the all-workloads mode prints: who measured, what was
// measured, and per workload every metric with its unit. End-to-end metrics
// carry the values of all runs and their median, quartiles and spread (the
// quartile distance over the median, as the contract defines it).
type document struct {
	Host        hostInfo                `json:"host"`
	Build       telemetry.BuildInfo     `json:"build"`
	Scale       string                  `json:"scale"`
	CountFactor float64                 `json:"count_factor"`
	Seed        int64                   `json:"seed"`
	Seconds     float64                 `json:"seconds"`
	Runs        int                     `json:"runs"`
	Workloads   map[string]*workloadDoc `json:"workloads"`
}

type workloadDoc struct {
	Why       string                 `json:"why"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]*e2eDoc     `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
}

type e2eDoc struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
	Values []float64 `json:"values"`
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// runChild re-executes the benchmark for one run of one workload, so heap,
// collector state and peak RSS do not leak between workloads, and parses the
// result line — the last line of the child's standard output.
func runChild(w *workload, sc scale, seed int64, seconds float64, traced bool) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds)}
	if traced {
		args = append(args, "-trace", "1")
	}
	if sc.name == smokeScale.name {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rr runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rr); err != nil {
		return nil, fmt.Errorf("%s: no result line (%v): %v", w.name, runErr, err)
	}
	return &rr, nil
}

// runAll runs every workload runsPerSet times untraced (and once traced when
// asked), each run in a child process, and prints one document on standard
// output (one line of JSON; progress goes to standard error).
func runAll(sc scale, seed int64, seconds float64, traced bool) error {
	doc := document{Host: readHost(), Build: telemetry.ReadBuildInfo(), Scale: sc.name,
		CountFactor: countFactor, Seed: seed, Seconds: seconds, Runs: runsPerSet,
		Workloads: map[string]*workloadDoc{}}
	// the runs go round the workloads, so that a slow phase of a shared host
	// meets a run or two of each and not most runs of one
	values := map[string]map[string][]float64{}
	for i := range workloads {
		w := &workloads[i]
		doc.Workloads[w.name] = &workloadDoc{Why: w.why, Correct: true, EndToEnd: map[string]*e2eDoc{}}
		values[w.name] = map[string][]float64{}
	}
	absorb := func(wd *workloadDoc, rr *runResult) {
		wd.Attempted += rr.Attempted
		wd.Failed += rr.Failed
		wd.Correct = wd.Correct && rr.Correct
	}
	for r := 0; r < runsPerSet; r++ {
		for i := range workloads {
			w := &workloads[i]
			fmt.Fprintf(os.Stderr, "== %s run %d/%d\n", w.name, r+1, runsPerSet)
			rr, err := runChild(w, sc, seed+int64(r), seconds, false)
			if err != nil {
				return err
			}
			absorb(doc.Workloads[w.name], rr)
			for name, v := range rr.Metrics {
				values[w.name][name] = append(values[w.name][name], v.Value)
			}
		}
	}
	allCorrect := true
	for i := range workloads {
		w := &workloads[i]
		wd := doc.Workloads[w.name]
		for _, d := range endToEnd {
			v := values[w.name][d.name]
			q1, med, q3 := quartiles(v)
			wd.EndToEnd[d.name] = &e2eDoc{Unit: d.unit, Better: better(d.higher), Median: med,
				Q1: q1, Q3: q3, Spread: quartileSpread(v), Values: v}
		}
		if traced {
			fmt.Fprintf(os.Stderr, "== %s traced\n", w.name)
			rr, err := runChild(w, sc, seed, seconds, true)
			if err != nil {
				return err
			}
			absorb(wd, rr)
			wd.PerLayer = rr.Metrics
		}
		allCorrect = allCorrect && wd.Correct
	}
	if traced {
		if err := mergeTraces(); err != nil {
			return err
		}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if _, err := os.Stdout.Write(append(data, '\n')); err != nil {
		return err
	}
	if !allCorrect {
		return fmt.Errorf("some outputs were wrong: failed_share is not 0 on every workload")
	}
	return nil
}

// mergeTraces gathers the per-workload trace files of this pass into
// benchmark/out/trace.json, keyed by workload.
func mergeTraces() error {
	merged := map[string]json.RawMessage{}
	for _, w := range workloads {
		data, err := os.ReadFile(filepath.Join(traceDir, "trace-"+w.name+".json"))
		if err != nil {
			return err
		}
		merged[w.name] = data
	}
	data, err := json.Marshal(merged)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(traceDir, "trace.json"), data, 0o644)
}

// writeGolden recomputes the pinned solver runs' result digests at both
// scales with one repetition each and writes benchmark/golden.json.
func writeGolden() error {
	if runtime.GOARCH != "amd64" {
		return fmt.Errorf("golden digests are pinned on amd64, this is %s", runtime.GOARCH)
	}
	golden := map[string]map[string]string{}
	for _, sc := range []scale{fullScale, smokeScale} {
		golden[sc.name] = map[string]string{}
		for _, p := range pinnedRuns {
			tmp, err := os.MkdirTemp("", "swquake-bench-")
			if err != nil {
				return err
			}
			r, err := p.run(&env{sc: sc, seed: 1, tmp: tmp, parent: noSpan})
			os.RemoveAll(tmp)
			if err != nil {
				return fmt.Errorf("%s: %w", p.name, err)
			}
			if r.failed > 0 {
				return fmt.Errorf("%s: %v", p.name, r.errs)
			}
			golden[sc.name][p.name] = r.digest
			fmt.Fprintf(os.Stderr, "%s %s %s\n", sc.name, p.name, r.digest)
		}
	}
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("benchmark", "golden.json"), append(data, '\n'), 0o644)
}
