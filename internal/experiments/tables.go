// Package experiments regenerates every table and figure of the paper's
// evaluation. Table 1 and 2 are reference data printed for context;
// Table 3, Table 4 and Figs. 7-9 come from the calibrated machine and
// performance models driven by the same analytic inputs the paper uses;
// Figs. 6, 10 and 11 are produced by actually running the solver (at
// laptop scale). Each function writes the rows/series the paper reports
// and returns the key numbers so tests and EXPERIMENTS.md can assert the
// shape of the result.
package experiments

import (
	"fmt"
	"io"

	"swquake/internal/perfmodel"
	"swquake/internal/sunway"
)

// Table1 prints the leadership-system comparison (paper Table 1) and
// returns TaihuLight's byte-to-flop disadvantage vs Titan.
func Table1(w io.Writer) float64 {
	type sys struct {
		name                      string
		peak, linpack, mem, memBW float64
	}
	systems := []sys{
		{"TaihuLight", 125, 93, 1310, 4473},
		{"Tianhe-2", 54.9, 33.9, 1375, 10312},
		{"Piz Daint", 25.3, 19.6, 425.6, 4256},
		{"Titan", 27.1, 17.6, 710, 5475},
		{"Sequoia", 20.1, 17.2, 1572, 4188},
		{"K", 11.28, 10.51, 1410, 5640},
	}
	fmt.Fprintf(w, "Table 1: leadership system comparison\n")
	fmt.Fprintf(w, "%-12s %8s %8s %8s %10s %12s\n", "system", "peak", "linpack", "mem(TB)", "BW(TB/s)", "byte/flop")
	var taihu, titan float64
	for _, s := range systems {
		bpf := s.memBW / 1000 / s.peak
		fmt.Fprintf(w, "%-12s %8.2f %8.2f %8.1f %10.0f %12.3f\n",
			s.name, s.peak, s.linpack, s.mem, s.memBW, bpf)
		switch s.name {
		case "TaihuLight":
			taihu = bpf
		case "Titan":
			titan = bpf
		}
	}
	ratio := titan / taihu
	fmt.Fprintf(w, "TaihuLight byte-to-flop is 1/%.1f of Titan's (paper: ~1/5)\n", ratio)
	return ratio
}

// Table2 prints the prior-work summary (paper Table 2, static context).
func Table2(w io.Writer) {
	fmt.Fprintln(w, "Table 2: prior large-scale earthquake simulations (from the paper)")
	rows := []string{
		"1996  Cray T3D      256 procs      8 Gflops   FD",
		"2003  EarthSim      1,944 procs    5 Tflops   SEM   (SPECFEM3D)",
		"2008  Ranger/Jaguar 32K/29K cores  29/36 Tf   SEM",
		"2012  Cray XK6      896 GPUs       135 Tflops SEM",
		"2014  Tianhe-2      1.4M cores     8.6 Pflops DG-FEM (SeisSol)",
		"2017  Cori-II       612K cores     10.4 Pflops DG-FEM (EDGE)",
		"2014  K computer    663K cores     0.80 Pflops iFEM  (GAMERA)",
		"2015  K computer    663K cores     1.97 Pflops iFEM  (GOJIRA)",
		"2010  Jaguar        223K cores     220 Tflops FD     (AWP-ODC linear)",
		"2013  Titan         16,384 GPUs    2.33 Pflops FD    (AWP linear)",
		"2016  Titan         8,192 GPUs     1.6 Pflops  FD    (AWP nonlinear)",
		"2017  TaihuLight    10.6M cores    15.2/18.9 Pflops FD nonlinear (this work)",
	}
	for _, r := range rows {
		fmt.Fprintln(w, r)
	}
}

// Table3Row is one row of the DMA bandwidth table.
type Table3Row struct {
	BlockBytes             int
	Get1, Get4, Put1, Put4 float64
}

// Table3 prints the DMA bandwidths for the paper's block sizes plus the
// fused-array sizes the optimization targets, and returns the rows.
func Table3(w io.Writer) []Table3Row {
	fmt.Fprintln(w, "Table 3: measured DMA bandwidth (GB/s) vs block size")
	fmt.Fprintf(w, "%10s %10s %10s %10s %10s\n", "block(B)", "get 1CG", "get 4CG", "put 1CG", "put 4CG")
	var rows []Table3Row
	for _, b := range []int{32, 128, 512, 2048} {
		r := Table3Row{
			BlockBytes: b,
			Get1:       sunway.DMABandwidth(b, sunway.DMAGet, false),
			Get4:       sunway.DMABandwidth(b, sunway.DMAGet, true),
			Put1:       sunway.DMABandwidth(b, sunway.DMAPut, false),
			Put4:       sunway.DMABandwidth(b, sunway.DMAPut, true),
		}
		rows = append(rows, r)
		fmt.Fprintf(w, "%10d %10.2f %10.2f %10.2f %10.2f\n", r.BlockBytes, r.Get1, r.Get4, r.Put1, r.Put4)
	}
	fmt.Fprintf(w, "array fusion effect: 128 B -> %.0f%% utilization, 432 B -> %.0f%% (paper: ~50%% -> ~80%%)\n",
		100*sunway.BandwidthUtilization(128, sunway.DMAGet),
		100*sunway.BandwidthUtilization(432, sunway.DMAGet))
	return rows
}

// Table4 prints the utilization accounting of the largest uncompressed
// nonlinear run and returns the rows.
func Table4(w io.Writer) []perfmodel.Table4Row {
	rows := perfmodel.Table4()
	fmt.Fprintln(w, "Table 4: per-CG utilization, largest nonlinear case (no compression)")
	fmt.Fprintf(w, "%-24s %12s %12s %-7s %8s\n", "metric", "effective", "peak", "unit", "%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %12.1f %12.1f %-7s %7.1f%%\n", r.Name, r.Effective, r.Peak, r.Unit, 100*r.Effective/r.Peak)
	}
	return rows
}

// Capability prints the paper's headline capability claims: the maximum
// problem size with and without compression, and the 18-Hz / 8-m extreme
// case's memory fit and time to solution.
func Capability(w io.Writer) perfmodel.ExtremeCase {
	fmt.Fprintln(w, "Capability (paper §2 performance attributes):")
	fmt.Fprintf(w, "max problem size:  %.2f trillion points uncompressed, %.2f trillion compressed (%.2fx; paper: 3.99 -> 7.8, ~1.95x)\n",
		perfmodel.MaxProblemPoints(false)/1e12, perfmodel.MaxProblemPoints(true)/1e12, perfmodel.ProblemSizeGain())
	e := perfmodel.PaperExtremeCase()
	fmt.Fprintf(w, "extreme case:      %.0f Hz, %dx%dx%d at %.0f m (%.2f trillion points), %d steps for %.0f s of shaking\n",
		e.TargetHz, e.Mesh.Nx, e.Mesh.Ny, e.Mesh.Nz, e.Dx, float64(e.Mesh.Points())/1e12, e.Steps(), e.SimSeconds)
	fits := "fits only WITH compression"
	plain := e
	plain.Compressed = false
	if plain.FitsMemory() {
		fits = "fits even uncompressed"
	}
	fmt.Fprintf(w, "memory:            %s\n", fits)
	fmt.Fprintf(w, "time to solution:  %.1f h on 160,000 processes at %.1f sustained Pflops\n",
		e.TimeToSolution(160000), e.SustainedPflops(160000))
	return e
}

// Baseline prints the Titan comparison (paper §4 / Table 2 bottom rows):
// the 2016 nonlinear AWP on Titan vs this work, with efficiencies.
func Baseline(w io.Writer) (titanEff, taihuEff float64) {
	titanEff = perfmodel.TitanEfficiency()
	taihuEff = perfmodel.TaihuLightEfficiency()
	fmt.Fprintln(w, "Baseline comparison (paper §4): nonlinear AWP, Titan 2016 vs this work")
	fmt.Fprintf(w, "%-28s %14s %12s %12s\n", "system", "sustained", "% of peak", "byte/flop")
	fmt.Fprintf(w, "%-28s %11.2f Pf %11.1f%% %12.3f\n",
		"Titan (8,192 K20X GPUs)", perfmodel.TitanSustainedPflops(), 100*titanEff, 0.202)
	fmt.Fprintf(w, "%-28s %11.2f Pf %11.1f%% %12.3f\n",
		"TaihuLight (160,000 CGs)",
		perfmodel.WeakScalingPoint(perfmodel.Case{Nonlinear: true, Compressed: true}, 160000, perfmodel.PaperWeakBlock),
		100*taihuEff, 0.038)
	fmt.Fprintf(w, "-> %.1fx higher efficiency on a machine with %.1fx LESS bandwidth per flop (paper: 15%% vs 11.8%%)\n",
		taihuEff/titanEff, perfmodel.ByteToFlopDisadvantage())
	return titanEff, taihuEff
}
