// Command benchmark is the repo's benchmark: two workloads, the paper's
// nonlinear solve and a job mix over HTTP, each checked for correct outputs, with
// end-to-end metrics (tracing off) and per-layer metrics plus a span trace
// (tracing on). README.md in this directory defines every workload and
// metric; BENCHMARK.json at the repo root is the contract a driver reads.
//
// Run it from the repo root:
//
//	go run ./benchmark -workload service-http-mix -seed 1 -seconds 60 -trace 0
//	go run ./benchmark > A.json             # every workload ten times, one document
//	go run ./benchmark -trace 1 > A.json    # ... plus the per-layer pass
//	go run ./benchmark -compare A.json B.json
//	go run ./benchmark -write-golden
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and print its result line (default: all workloads, one document)")
		seed    = flag.Int64("seed", 1, "workload seed: generates heterogeneity seeds and job order")
		seconds = flag.Float64("seconds", 60, "time budget of one run; repetitions fill it (the traced pass gives the workload a quarter of it and then runs its layer probes, about 30 s)")
		trace   = flag.Int("trace", 0, "1 = the traced pass: per-layer metrics and benchmark/out/trace-<workload>.json")
		smoke   = flag.Bool("smoke", false, "tiny grids and one repetition (what the tier-1 test runs)")
		compare = flag.Bool("compare", false, "compare two result documents: -compare A.json B.json")
		golden  = flag.Bool("write-golden", false, "recompute benchmark/golden.json on this (amd64) host")
	)
	flag.Parse()
	sc := fullScale
	if *smoke {
		sc = smokeScale
	}
	var err error
	switch {
	case *compare:
		err = compareFiles(flag.Args(), os.Stdout)
	case *golden:
		err = writeGolden()
	case *name != "":
		err = runOne(*name, sc, *seed, *seconds, *trace == 1)
	default:
		err = runAll(sc, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its result line. A run
// whose outputs were wrong still prints the line (correct=false) and then
// exits non-zero.
func runOne(name string, sc scale, seed int64, seconds float64, traced bool) error {
	w := findWorkload(name)
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	var rr *runResult
	var err error
	if traced {
		rr, err = runTraced(w, sc, seed, seconds, traceDir)
	} else {
		rr, err = runUntraced(w, sc, seed, seconds)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if v, ok := rr.Metrics[d.name]; ok {
			fmt.Fprintf(os.Stderr, "%-40s %14.6g %s\n", d.name, v.Value, v.Unit)
		}
	}
	for _, e := range rr.errs {
		fmt.Fprintln(os.Stderr, "FAILED:", e)
	}
	line, err := json.Marshal(rr)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rr.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", name, rr.Failed, rr.Attempted)
	}
	return nil
}
