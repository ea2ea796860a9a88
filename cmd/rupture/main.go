// Command rupture runs the dynamic rupture source generator (the CG-FDM
// component of the paper's framework) on a Tangshan-like non-planar fault
// and reports the rupture history: front propagation, slip, seismic moment
// and the slip-rate snapshot of paper Fig. 10b. Optionally the resulting
// moment-rate sources are written as CSV for the ground-motion solver.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"swquake/internal/experiments"
	"swquake/internal/fd"
	"swquake/internal/grid"
	"swquake/internal/model"
	"swquake/internal/rupture"
	"swquake/internal/source"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rupture:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rupture", flag.ContinueOnError)
	var (
		nx       = fs.Int("nx", 64, "grid points along strike")
		ny       = fs.Int("ny", 28, "grid points across fault")
		nz       = fs.Int("nz", 28, "grid points in depth")
		dx       = fs.Float64("dx", 100, "grid spacing, m")
		steps    = fs.Int("steps", 300, "time steps")
		srcOut   = fs.String("sources", "", "write moment-rate sources CSV to this file")
		decimate = fs.Int("decimate", 2, "keep every Nth fault cell as a source")
		full     = fs.Bool("fig10", false, "run the paper Fig. 10 configuration instead")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *full {
		_, err := experiments.Fig10(os.Stdout, experiments.Full)
		return err
	}

	d := grid.Dims{Nx: *nx, Ny: *ny, Nz: *nz}
	mat := model.Material{Vp: 5000, Vs: 2887, Rho: 2700}
	med := fd.NewMediumFromModel(d, *dx, model.Homogeneous{M: mat}, 0, 0)

	cfg := rupture.TangshanConfig(d, *dx)
	dt := 0.8 * model.CFLTimeStep(*dx, mat.Vp)
	fmt.Printf("dynamic rupture: %v grid, dx=%.0f m, dt=%.4f s, %d steps\n", d, *dx, dt, *steps)
	fmt.Printf("fault: strike cells [%d,%d), depth cells [%d,%d), hypocentre (%d,%d)\n",
		cfg.I0, cfg.I1, cfg.K0, cfg.K1, cfg.HypoI, cfg.HypoK)

	res, err := rupture.Simulate(cfg, med, *dx, dt, *steps)
	if err != nil {
		return err
	}

	fmt.Printf("ruptured fraction %.1f%%, max slip %.2f m, M0 %.3g N*m\n",
		100*res.RupturedFraction(), res.MaxFinalSlip(), res.SeismicMoment(med))
	fmt.Printf("mean along-strike rupture speed %.0f m/s (Vs %.0f; above Vs = supershear)\n",
		res.RuptureSpeed(cfg.I1-3), mat.Vs)

	srcs := res.Sources(med, *decimate)
	fmt.Printf("emitted %d moment-rate point sources (decimate %d)\n", len(srcs), *decimate)

	if *srcOut != "" {
		if err := writeSources(*srcOut, srcs, res.Dt); err != nil {
			return err
		}
		fmt.Printf("sources written to %s\n", *srcOut)
	}
	return nil
}

// writeSources dumps the sampled moment-rate functions: one row per source
// with i,j,k followed by the rate samples.
func writeSources(path string, srcs []source.PointSource, dt float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# dt=%g, mechanism=strike-slip-xy, columns: i,j,k,rates...\n", dt)
	for _, s := range srcs {
		st := s.S.(source.Sampled)
		fmt.Fprintf(w, "%d,%d,%d", s.I, s.J, s.K)
		for _, r := range st.Rates {
			fmt.Fprintf(w, ",%.5g", r)
		}
		fmt.Fprintln(w)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Sync()
}
