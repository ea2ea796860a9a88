// Command bench regenerates the paper's evaluation: every table and figure
// of the SC'17 TaihuLight earthquake paper, from the calibrated machine /
// performance models (Tables 1, 3, 4; Figs. 7-9) and from real solver runs
// (Figs. 6, 10, 11).
//
// Examples:
//
//	bench -all
//	bench -table 3
//	bench -fig 8
//	bench -fig 11 -full
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"swquake/internal/experiments"
	"swquake/internal/grid"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		table     = fs.Int("table", 0, "regenerate one table (1-4)")
		fig       = fs.Int("fig", 0, "regenerate one figure (6-11)")
		all       = fs.Bool("all", false, "regenerate everything")
		full      = fs.Bool("full", false, "use the larger run-based configurations")
		ablations = fs.Bool("ablations", false, "run the design-choice ablations")
		outDir    = fs.String("out", "", "also write figure data series as CSV files")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	size := experiments.Quick
	if *full {
		size = experiments.Full
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}

	if !*all && *table == 0 && *fig == 0 && !*ablations {
		fs.Usage()
		return fmt.Errorf("nothing selected; use -all, -table N, -fig N or -ablations")
	}

	sep := func(name string) { fmt.Fprintf(w, "\n===== %s =====\n", name) }

	if *all || *table == 1 {
		sep("Table 1")
		experiments.Table1(w)
	}
	if *all || *table == 2 {
		sep("Table 2")
		experiments.Table2(w)
	}
	if *all || *table == 3 {
		sep("Table 3")
		experiments.Table3(w)
	}
	if *all || *table == 4 {
		sep("Table 4")
		experiments.Table4(w)
	}
	if *all {
		sep("Capability")
		experiments.Capability(w)
	}
	if *all {
		sep("Baseline: Titan comparison")
		experiments.Baseline(w)
	}
	if *table < 0 || *table > 4 {
		return fmt.Errorf("no table %d in the paper", *table)
	}

	if *all || *fig == 6 {
		sep("Fig 6")
		if _, err := experiments.Fig6(w, size); err != nil {
			return err
		}
	}
	if *all || *fig == 7 {
		sep("Fig 7")
		experiments.Fig7(w)
	}
	if *all || *fig == 8 {
		sep("Fig 8")
		pts := experiments.Fig8(w)
		if *outDir != "" {
			if err := writeFig8CSV(filepath.Join(*outDir, "fig8.csv"), pts); err != nil {
				return err
			}
		}
	}
	if *all || *fig == 9 {
		sep("Fig 9")
		series := experiments.Fig9(w)
		if *outDir != "" {
			if err := writeFig9CSV(filepath.Join(*outDir, "fig9.csv"), series); err != nil {
				return err
			}
		}
	}
	if *all || *fig == 10 {
		sep("Fig 10")
		if _, err := experiments.Fig10(w, size); err != nil {
			return err
		}
	}
	if *all || *fig == 11 {
		sep("Fig 11")
		if _, err := experiments.Fig11(w, size); err != nil {
			return err
		}
		sep("Fig 11 ladder")
		if _, err := experiments.Fig11Ladder(w, size); err != nil {
			return err
		}
	}
	if *fig != 0 && (*fig < 6 || *fig > 11) {
		return fmt.Errorf("no figure %d reproduction (have 6-11)", *fig)
	}

	if *all || *ablations {
		sep("Ablation: array fusion")
		if _, err := experiments.AblationFusion(w); err != nil {
			return err
		}
		sep("Ablation: compression methods")
		if _, err := experiments.AblationCompressionMethods(w, size); err != nil {
			return err
		}
		sep("Executed core-group step (model cross-check)")
		block := grid.Dims{Nx: 40, Ny: 40, Nz: 128}
		if *full {
			block = grid.Dims{Nx: 160, Ny: 160, Nz: 512}
		}
		if _, err := experiments.ExecutedMEM(w, block); err != nil {
			return err
		}
	}
	return nil
}

// writeFig8CSV writes the weak-scaling series as procs,case columns.
func writeFig8CSV(path string, pts []experiments.Fig8Point) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cases := []string{"linear", "nonlinear", "linear+compress", "nonlinear+compress"}
	fmt.Fprintf(f, "procs,%s\n", strings.Join(cases, ","))
	for _, p := range pts {
		fmt.Fprintf(f, "%d", p.Procs)
		for _, c := range cases {
			fmt.Fprintf(f, ",%.3f", p.Pflops[c])
		}
		fmt.Fprintln(f)
	}
	return f.Sync()
}

// writeFig9CSV writes the strong-scaling series as one row per
// (case, mesh, procs) triple.
func writeFig9CSV(path string, series []experiments.Fig9Series) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "case,mesh,procs,speedup")
	for _, s := range series {
		procs := make([]int, 0, len(s.Speedups))
		for p := range s.Speedups {
			procs = append(procs, p)
		}
		sort.Ints(procs)
		for _, p := range procs {
			fmt.Fprintf(f, "%s,%s,%d,%.3f\n", s.Case, s.Mesh, p, s.Speedups[p])
		}
	}
	return f.Sync()
}
