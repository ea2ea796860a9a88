package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchmarkJSON is BENCHMARK.json as the comparison (the bound by which each
// end-to-end metric may worsen) and the contract test read it.
type benchmarkJSON struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(path string) (*benchmarkJSON, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// verdict classifies how B's median moved against A's for one metric.
//
//   - unresolved: either side's run-to-run spread is wider than the bound, so
//     the runs cannot tell a regression of that size from noise;
//   - worse / better: B's median is worse / better than A's by more than the
//     bound;
//   - within bound: anything else.
func verdict(a, b *e2eDoc, higher bool, bound float64) (string, float64) {
	change := (b.Median - a.Median) / a.Median // > 0 means the value rose
	if !higher {
		change = -change
	}
	// change > 0 now means B is better
	switch {
	case a.Spread > bound || b.Spread > bound:
		return "unresolved", change
	case change < -bound:
		return "worse", change
	case change > bound:
		return "better", change
	}
	return "within bound", change
}

// solverBounds and daemonBounds are the bounds the solver workload and the
// daemon workload repeat within on the reference host when it is quiet
// (README, Baseline): ISSUE 13's 10 %, except that set-up needs 15 % and that
// 7 % for the solver's points_per_s was too tight (medians of two quiet sets
// of one commit lay 8.5 % apart). BENCHMARK.json can state only one bound per
// metric, and a driver rejects the benchmark itself when any workload's
// spread exceeds it, so its bounds are the widest either workload needs in
// the host's noisy phases; -compare holds each row to the smaller of the
// two. The daemon's spawn time and peak RSS (a garbage-collected heap of
// 17 MB) are held no tighter than the contract's bound.
var (
	solverBounds = map[string]float64{"setup_s": 0.15, "points_per_s": 0.10, "latency_ms_p50": 0.10, "peak_rss_mb": 0.10}
	daemonBounds = map[string]float64{"points_per_s": 0.10, "latency_ms_p50": 0.10}
)

func rowBound(w *workload, metric string, contract float64) float64 {
	own := solverBounds
	if w.daemon {
		own = daemonBounds
	}
	if b, ok := own[metric]; ok && b < contract {
		return b
	}
	return contract
}

// compareFiles prints one row per (workload, end-to-end metric) of documents
// A and B and fails when any row is worse.
func compareFiles(args []string, out io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare needs two result documents: A.json B.json")
	}
	a, err := readDocument(args[0])
	if err != nil {
		return err
	}
	b, err := readDocument(args[1])
	if err != nil {
		return err
	}
	bj, err := readBenchmarkJSON("BENCHMARK.json")
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tB median\tB vs A\tspread A\tspread B\tbound\tverdict")
	worse := 0
	for _, w := range workloads {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		if wa == nil || wb == nil {
			return fmt.Errorf("workload %s is missing from a document", w.name)
		}
		for _, m := range bj.EndToEnd {
			ma, mb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if ma == nil || mb == nil {
				return fmt.Errorf("%s: metric %s is missing from a document", w.name, m.Name)
			}
			bound := rowBound(&w, m.Name, m.Bound)
			v, change := verdict(ma, mb, m.Better == "higher", bound)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n", w.name, m.Name, m.Unit,
				ma.Median, mb.Median, 100*change, 100*ma.Spread, 100*mb.Spread, 100*bound, v)
		}
	}
	tw.Flush()
	if worse > 0 {
		return fmt.Errorf("%d (workload, metric) rows are worse by more than their bound", worse)
	}
	return nil
}
