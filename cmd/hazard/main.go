// Command hazard produces the seismic hazard map of the Tangshan scenario
// (paper Fig. 11e-f): it runs the scaled ground-motion simulation, converts
// the surface peak ground velocity to Chinese seismic intensity, prints an
// ASCII hazard map and per-station intensities, and optionally writes PGM
// images at two resolutions for the paper's coarse-vs-fine comparison.
//
// With -ensemble N the command runs a probabilistic sweep instead: N
// stochastic velocity-heterogeneity realizations (seeds -seed-base,
// -seed-base+1, ...) of the same scenario as an in-memory campaign of
// internal/ensemble on a volatile job service — the code path of the quaked
// /v1/campaigns API, with no daemon and no data directory — folded online
// into mean and standard-deviation PGV maps, exceedance probabilities and a
// mean hazard map.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"swquake/internal/core"
	"swquake/internal/ensemble"
	"swquake/internal/grid"
	"swquake/internal/output"
	"swquake/internal/scenario"
	"swquake/internal/seismo"
	"swquake/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hazard:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hazard", flag.ContinueOnError)
	var (
		nx        = fs.Int("nx", 64, "grid points along x")
		ny        = fs.Int("ny", 62, "grid points along y")
		nz        = fs.Int("nz", 24, "grid points in depth")
		dx        = fs.Float64("dx", 500, "grid spacing, m")
		steps     = fs.Int("steps", 240, "time steps")
		nonlinear = fs.Bool("nonlinear", true, "Drucker-Prager plasticity")
		compare   = fs.Bool("compare", false, "also run at half resolution and compare maps")
		outDir    = fs.String("out", "", "directory for PGM maps")

		members  = fs.Int("ensemble", 0, "run N stochastic heterogeneity realizations and report ensemble hazard statistics (0 = single deterministic run)")
		seedBase = fs.Int64("seed-base", 1, "first heterogeneity seed of the ensemble")
		hetAmp   = fs.Float64("het", 0.05, "RMS fractional velocity perturbation of the ensemble realizations")
		hetCorr  = fs.Float64("het-corr-len", 0, "heterogeneity correlation length, m (0 = 8 grid spacings)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *members > 0 {
		if *hetAmp <= 0 {
			return fmt.Errorf("-ensemble needs -het > 0: identical members carry no hazard information")
		}
		return runEnsemble(ensemble.CampaignSpec{
			Scenario:      "tangshan",
			Base:          scenario.Overrides{Nx: *nx, Ny: *ny, Nz: *nz, Dx: *dx, Steps: *steps, Nonlinear: *nonlinear},
			Seeds:         ensemble.SeedAxis{Base: *seedBase, Count: *members, HetAmplitude: *hetAmp, HetCorrLen: *hetCorr},
			MaxConcurrent: 1,
		}, *outDir)
	}

	sc := scenario.Tangshan{
		Dims: grid.Dims{Nx: *nx, Ny: *ny, Nz: *nz}, Dx: *dx, Steps: *steps, Nonlinear: *nonlinear,
	}
	fine, err := runScenario(sc)
	if err != nil {
		return err
	}

	fmt.Printf("hazard map (%dx%d surface, dx=%.0f m):\n", *nx, *ny, *dx)
	ig := output.IntensityGrid(fine.PGV)
	output.ASCIIMap(os.Stdout, ig, 64)

	periods := []float64{0.3, 1.0, 3.0}
	fmt.Printf("%-12s %12s %10s %12s %12s %12s %12s %10s\n", "station", "PGV (m/s)", "intensity",
		"PSA 0.3s", "PSA 1.0s", "PSA 3.0s", "Arias", "D5-95 (s)")
	for _, tr := range fine.Recorder.Traces {
		pgv := tr.PeakVelocity()
		rs := tr.ComputeResponseSpectrum(periods, 0.05)
		fmt.Printf("%-12s %12.4g %10.1f %12.4g %12.4g %12.4g %12.4g %10.2f\n",
			tr.Station.Name, pgv, seismo.Intensity(pgv), rs.PSA[0], rs.PSA[1], rs.PSA[2],
			tr.AriasIntensity(), tr.SignificantDuration())
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		if err := output.SavePGM(filepath.Join(*outDir, "intensity-fine.pgm"), ig, 1, 12); err != nil {
			return err
		}
		fmt.Println("maps written to", *outDir)
	}

	if *compare {
		coarseSc := sc
		coarseSc.Dims = grid.Dims{Nx: *nx / 2, Ny: *ny / 2, Nz: *nz / 2}
		coarseSc.Dx = *dx * 2
		coarseSc.Steps = *steps / 2
		coarse, err := runScenario(coarseSc)
		if err != nil {
			return err
		}
		changed, n := 0, 0
		for i := 0; i < coarseSc.Dims.Nx; i++ {
			for j := 0; j < coarseSc.Dims.Ny; j++ {
				ic := seismo.Intensity(coarse.PGV.At(i, j))
				fi := seismo.Intensity(fine.PGV.At(2*i, 2*j))
				if diff := ic - fi; diff >= 0.5 || diff <= -0.5 {
					changed++
				}
				n++
			}
		}
		fmt.Printf("resolution comparison: %.0f%% of surface cells change intensity by >= 0.5 at 2x resolution\n",
			100*float64(changed)/float64(n))
		if *outDir != "" {
			icg := output.IntensityGrid(coarse.PGV)
			if err := output.SavePGM(filepath.Join(*outDir, "intensity-coarse.pgm"), icg, 1, 12); err != nil {
				return err
			}
		}
	}
	return nil
}

// runEnsemble runs the seed sweep as an in-memory campaign on a volatile
// job service, one member at a time — the scheduler, the member jobs and the
// order-pinned fold of a quaked campaign over the same spec — and prints its
// aggregate.
func runEnsemble(spec ensemble.CampaignSpec, outDir string) error {
	svc := service.New(service.Options{Workers: 1})
	mgr, err := ensemble.Open(ensemble.Options{Service: svc})
	if err != nil {
		return err
	}
	ctx := context.Background()
	defer svc.Drain(ctx)
	defer mgr.Drain(ctx)
	st, err := mgr.Create(spec)
	if err != nil {
		return err
	}
	if st, err = mgr.Wait(ctx, st.ID); err != nil {
		return err
	}
	if st.State != ensemble.StateDone {
		return fmt.Errorf("campaign %s: %s", st.State, st.Error)
	}
	for m, ms := range st.MemberJobs {
		res, err := svc.Result(ms.Job)
		if err != nil {
			return err
		}
		peak := slices.Max(res.PGV.Values)
		fmt.Printf("member %2d/%d  seed %-6d  peak PGV %8.4g m/s  intensity %.1f\n",
			m+1, len(st.MemberJobs), spec.Seeds.Base+int64(m), peak, seismo.Intensity(peak))
	}

	agg, err := mgr.Aggregate(st.ID)
	if err != nil {
		return err
	}
	meanField := &seismo.PGVField{Nx: agg.Nx, Ny: agg.Ny, PGV: agg.MeanPGV}
	fmt.Printf("\nmean hazard map over %d realizations (%dx%d surface, dx=%.0f m, het %.3g):\n",
		len(st.MemberJobs), agg.Nx, agg.Ny, spec.Base.Dx, spec.Seeds.HetAmplitude)
	ig := output.IntensityGrid(meanField)
	output.ASCIIMap(os.Stdout, ig, 64)
	fmt.Printf("peak mean PGV %.4g m/s (intensity %.1f), peak sigma %.4g m/s\n",
		agg.MeanPGVMax, agg.MeanIntensityMax, slices.Max(agg.StdPGV))

	fmt.Printf("%-16s %18s %14s\n", "threshold (m/s)", "max P(exceed)", "area P>=0.5")
	for k, thr := range agg.Thresholds {
		hot := 0
		for _, pr := range agg.ExceedProb[k] {
			if pr >= 0.5 {
				hot++
			}
		}
		fmt.Printf("%-16.3g %18.2f %13.1f%%\n", thr, slices.Max(agg.ExceedProb[k]),
			100*float64(hot)/float64(len(agg.ExceedProb[k])))
	}

	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		if err := output.SavePGM(filepath.Join(outDir, "intensity-mean.pgm"), ig, 1, 12); err != nil {
			return err
		}
		for k, thr := range agg.Thresholds {
			pf := &seismo.PGVField{Nx: agg.Nx, Ny: agg.Ny, PGV: agg.ExceedProb[k]}
			name := fmt.Sprintf("exceed-%.3gms.pgm", thr)
			if err := output.SavePGM(filepath.Join(outDir, name), output.PGVGrid(pf), 0, 1); err != nil {
				return err
			}
		}
		fmt.Println("maps written to", outDir)
	}
	return nil
}

func runScenario(sc scenario.Tangshan) (*core.Result, error) {
	cfg, err := sc.Config()
	if err != nil {
		return nil, err
	}
	sim, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return sim.Run()
}
