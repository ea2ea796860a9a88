package experiments

import (
	"fmt"
	"io"
	"math"

	"swquake/internal/compress"
	"swquake/internal/core"
	"swquake/internal/fd"
	"swquake/internal/grid"
	"swquake/internal/model"
	"swquake/internal/rupture"
	"swquake/internal/scenario"
	"swquake/internal/seismo"
	"swquake/internal/source"
)

// Size selects how big the run-based experiments are.
type Size int

const (
	// Quick runs in a couple of seconds (used by tests and benchmarks).
	Quick Size = iota
	// Full runs the larger meshes the example binaries default to.
	Full
)

func (s Size) tangshan(nonlinear bool) scenario.Tangshan {
	if s == Full {
		return scenario.Tangshan{
			Dims: grid.Dims{Nx: 80, Ny: 78, Nz: 28}, Dx: 400, Steps: 400, Nonlinear: nonlinear,
		}
	}
	return scenario.Tangshan{
		Dims: grid.Dims{Nx: 40, Ny: 39, Nz: 16}, Dx: 800, Steps: 120, Nonlinear: nonlinear,
	}
}

// Fig6Result reports the compression-validation comparison.
type Fig6Result struct {
	// Misfit is the relative RMS misfit of the compressed seismogram per
	// station (paper Fig. 6 shows near-overlap with small coda error).
	Misfit map[string]float64
	// PeakRatio is compressed/uncompressed peak velocity per station.
	PeakRatio map[string]float64
	// GoF is the Anderson-style multi-band goodness-of-fit score (0-10).
	GoF map[string]float64
}

// Fig6 runs the Tangshan scenario with and without on-the-fly compression
// (method 3, range-normalized, calibrated on a coarse run) and compares
// the Ninghe and Cangzhou seismograms — the paper's Fig. 6 validation.
func Fig6(w io.Writer, size Size) (*Fig6Result, error) {
	sc := size.tangshan(false)
	cfg, err := sc.Config()
	if err != nil {
		return nil, err
	}

	ref, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	refRes, err := ref.Run()
	if err != nil {
		return nil, err
	}

	ccfg := cfg
	ccfg.Compression = compress.Normalized
	csim, err := core.New(ccfg)
	if err != nil {
		return nil, err
	}
	compRes, err := csim.Run()
	if err != nil {
		return nil, err
	}

	out := &Fig6Result{Misfit: map[string]float64{}, PeakRatio: map[string]float64{}, GoF: map[string]float64{}}
	fmt.Fprintln(w, "Fig 6: compression validation (base vs compressed seismograms)")
	fmt.Fprintf(w, "%-10s %14s %14s %14s %10s\n", "station", "peak base", "peak compr", "RMS misfit", "GoF(0-10)")
	for _, st := range []string{"Ninghe", "Cangzhou"} {
		a := refRes.Recorder.Trace(st)
		b := compRes.Recorder.Trace(st)
		mis, err := a.RMSMisfit(b)
		if err != nil {
			return nil, err
		}
		pa, pb := a.PeakVelocity(), b.PeakVelocity()
		ratio := 0.0
		if pa > 0 {
			ratio = pb / pa
		}
		out.Misfit[st] = mis
		out.PeakRatio[st] = ratio
		nyq := 0.5 / a.Dt
		gof := a.GoodnessOfFit(b, seismo.StandardBands(nyq*0.8))
		out.GoF[st] = gof.Total
		fmt.Fprintf(w, "%-10s %14.5g %14.5g %13.1f%% %10.1f\n", st, pa, pb, 100*mis, gof.Total)
	}
	fmt.Fprintln(w, "(paper: sharp onsets match; coda degrades slightly, more at the distant station)")
	return out, nil
}

// Fig10Result reports the dynamic rupture run.
type Fig10Result struct {
	RupturedFraction float64
	MaxSlip          float64
	SeismicMoment    float64
	Mw               float64
	RuptureSpeed     float64
	SourceCount      int
}

// Fig10 runs the Tangshan-like non-planar dynamic rupture (paper Fig. 10b)
// and prints an ASCII snapshot of the absolute slip rate on the fault.
func Fig10(w io.Writer, size Size) (*Fig10Result, error) {
	d := grid.Dims{Nx: 48, Ny: 24, Nz: 24}
	dx := 100.0
	steps := 200
	if size == Full {
		d = grid.Dims{Nx: 96, Ny: 40, Nz: 40}
		dx = 75
		steps = 500
	}
	mat := model.Material{Vp: 5000, Vs: 2887, Rho: 2700}
	med := fd.NewMediumFromModel(d, dx, model.Homogeneous{M: mat}, 0, 0)

	cfg := rupture.TangshanConfig(d, dx)
	dt := 0.8 * model.CFLTimeStep(dx, mat.Vp)
	res, err := rupture.Simulate(cfg, med, dx, dt, steps)
	if err != nil {
		return nil, err
	}

	out := &Fig10Result{
		RupturedFraction: res.RupturedFraction(),
		MaxSlip:          res.MaxFinalSlip(),
		SeismicMoment:    res.SeismicMoment(med),
	}
	out.Mw = source.MomentMagnitude(out.SeismicMoment)
	out.RuptureSpeed = res.RuptureSpeed(cfg.I1 - 3)
	out.SourceCount = len(res.Sources(med, 2))

	fmt.Fprintln(w, "Fig 10: Tangshan-like dynamic rupture on a non-planar fault")
	fmt.Fprintf(w, "ruptured fraction  %6.1f%%\n", 100*out.RupturedFraction)
	fmt.Fprintf(w, "max slip           %6.2f m\n", out.MaxSlip)
	fmt.Fprintf(w, "seismic moment     %.3g N*m (Mw %.2f at this scale)\n", out.SeismicMoment, out.Mw)
	fmt.Fprintf(w, "rupture speed      %6.0f m/s (Vs = %.0f, Vp = %.0f)\n", out.RuptureSpeed, mat.Vs, mat.Vp)
	fmt.Fprintf(w, "emitted sources    %d\n", out.SourceCount)

	// ASCII snapshot of |slip rate| midway through the run (Fig. 10b look)
	snapStep := steps * 2 / 5
	snap := res.SlipRateSnapshot(snapStep)
	var vmax float64
	for _, row := range snap {
		for _, v := range row {
			if v > vmax {
				vmax = v
			}
		}
	}
	fmt.Fprintf(w, "slip-rate snapshot at step %d (strike -> right, depth -> down, max %.2f m/s):\n", snapStep, vmax)
	shades := " .:-=+*#%@"
	if vmax > 0 {
		nk := len(snap[0])
		for sk := 0; sk < nk; sk += max(nk/12, 1) {
			for si := 0; si < len(snap); si += max(len(snap)/64, 1) {
				lvl := int(snap[si][sk] / vmax * float64(len(shades)-1))
				fmt.Fprintf(w, "%c", shades[lvl])
			}
			fmt.Fprintln(w)
		}
	}
	return out, nil
}

// Fig11Result reports the resolution comparison.
type Fig11Result struct {
	// PGV per station at the two resolutions.
	CoarsePGV, FinePGV map[string]float64
	// Roughness is the high-frequency content proxy (RMS of the velocity
	// time-derivative) per station; the fine run must carry more.
	CoarseRoughness, FineRoughness map[string]float64
	// HFFractionCoarse/Fine is the spectral energy fraction above HFCut Hz
	// (a real DFT measure of the coda richness of Fig. 11a-b).
	HFFractionCoarse, HFFractionFine map[string]float64
	// HFCut is the frequency split used.
	HFCut float64
	// LowBandMisfit (0.2-0.8 Hz) and FullBandMisfit are RMS misfits between
	// the coarse and fine runs per station. Both are LARGE: at 800 m the
	// coarse grid underresolves the whole source band (the basin carries
	// Vs = 600 m/s), so even the main pulse is wrong — the paper's Fig. 11a
	// finding that "the main-peak of the earthquake cannot even be
	// calculated accurately" on coarse grids.
	LowBandMisfit, FullBandMisfit map[string]float64
	// IntensityChanged is the fraction of surface cells whose Chinese
	// intensity differs by >= 0.5 between resolutions.
	IntensityChanged float64
	// MaxIntensityCoarse/Fine are the hazard-map maxima.
	MaxIntensityCoarse, MaxIntensityFine float64
}

// Fig11 runs the Tangshan scenario at two resolutions over the same
// physical domain and simulated duration, comparing seismograms, PGV and
// the intensity hazard map (paper Fig. 11).
func Fig11(w io.Writer, size Size) (*Fig11Result, error) {
	coarseSc := size.tangshan(true)
	fineSc := coarseSc
	fineSc.Dims = grid.Dims{Nx: coarseSc.Dims.Nx * 2, Ny: coarseSc.Dims.Ny * 2, Nz: coarseSc.Dims.Nz * 2}
	fineSc.Dx = coarseSc.Dx / 2
	fineSc.Steps = coarseSc.Steps * 2

	run := func(sc scenario.Tangshan) (*core.Result, error) {
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
	coarse, err := run(coarseSc)
	if err != nil {
		return nil, err
	}
	fine, err := run(fineSc)
	if err != nil {
		return nil, err
	}

	out := &Fig11Result{
		CoarsePGV: map[string]float64{}, FinePGV: map[string]float64{},
		CoarseRoughness: map[string]float64{}, FineRoughness: map[string]float64{},
		HFFractionCoarse: map[string]float64{}, HFFractionFine: map[string]float64{},
		HFCut:         2.0,
		LowBandMisfit: map[string]float64{}, FullBandMisfit: map[string]float64{},
	}
	fmt.Fprintf(w, "Fig 11: resolution comparison (dx = %.0f m vs %.0f m, same physical domain)\n",
		coarseSc.Dx, fineSc.Dx)
	fmt.Fprintf(w, "%-10s %12s %12s %14s %14s %10s %10s\n", "station", "PGV coarse", "PGV fine",
		"dv/dt crs", "dv/dt fine", ">2Hz crs", ">2Hz fine")
	for _, st := range []string{"Ninghe", "Cangzhou", "Beijing"} {
		a := coarse.Recorder.Trace(st)
		b := fine.Recorder.Trace(st)
		out.CoarsePGV[st] = a.PeakVelocity()
		out.FinePGV[st] = b.PeakVelocity()
		out.CoarseRoughness[st] = roughness(a)
		out.FineRoughness[st] = roughness(b)
		out.HFFractionCoarse[st] = a.HorizontalSpectrum().EnergyAbove(out.HFCut)
		out.HFFractionFine[st] = b.HorizontalSpectrum().EnergyAbove(out.HFCut)
		if m, err := a.BandlimitedMisfit(b, 0.2, 0.8); err == nil {
			out.LowBandMisfit[st] = m
		}
		if rs, err := b.Resample(a.Dt); err == nil {
			n := len(a.U)
			if len(rs.U) < n {
				n = len(rs.U)
			}
			ta := &seismo.Trace{Dt: a.Dt, U: a.U[:n], V: a.V[:n], W: a.W[:n]}
			tb := &seismo.Trace{Dt: a.Dt, U: rs.U[:n], V: rs.V[:n], W: rs.W[:n]}
			if m, err := ta.RMSMisfit(tb); err == nil {
				out.FullBandMisfit[st] = m
			}
		}
		fmt.Fprintf(w, "%-10s %12.4g %12.4g %14.4g %14.4g %9.1f%% %9.1f%%\n", st,
			out.CoarsePGV[st], out.FinePGV[st], out.CoarseRoughness[st], out.FineRoughness[st],
			100*out.HFFractionCoarse[st], 100*out.HFFractionFine[st])
	}

	// hazard maps: compare intensity on the coarse surface grid (fine map
	// downsampled 2x)
	changed, n := 0, 0
	for i := 0; i < coarseSc.Dims.Nx; i++ {
		for j := 0; j < coarseSc.Dims.Ny; j++ {
			ic := seismo.Intensity(coarse.PGV.At(i, j))
			fi := seismo.Intensity(fine.PGV.At(2*i, 2*j))
			if ic > out.MaxIntensityCoarse {
				out.MaxIntensityCoarse = ic
			}
			if fi > out.MaxIntensityFine {
				out.MaxIntensityFine = fi
			}
			if math.Abs(ic-fi) >= 0.5 {
				changed++
			}
			n++
		}
	}
	out.IntensityChanged = float64(changed) / float64(n)
	for _, st := range []string{"Ninghe", "Cangzhou", "Beijing"} {
		fmt.Fprintf(w, "%-10s coarse-vs-fine misfit: %5.0f%% in 0.2-0.8 Hz, %5.0f%% full band (coarse is wrong even at low f)\n",
			st, 100*out.LowBandMisfit[st], 100*out.FullBandMisfit[st])
	}
	fmt.Fprintf(w, "hazard map: max intensity %.1f (coarse) vs %.1f (fine); %.0f%% of cells differ by >= 0.5\n",
		out.MaxIntensityCoarse, out.MaxIntensityFine, 100*out.IntensityChanged)
	fmt.Fprintln(w, "(paper: low resolution misses basin coda and redistributes intensity, e.g. Wuqing 6 -> 7)")
	return out, nil
}

// roughness is the RMS time-derivative of the horizontal velocity — a
// proxy for high-frequency content (the coda richness of Fig. 11a-b).
func roughness(t *seismo.Trace) float64 {
	if len(t.U) < 2 {
		return 0
	}
	var sum float64
	for i := 1; i < len(t.U); i++ {
		du := float64(t.U[i]-t.U[i-1]) / t.Dt
		dv := float64(t.V[i]-t.V[i-1]) / t.Dt
		sum += du*du + dv*dv
	}
	return math.Sqrt(sum / float64(len(t.U)-1))
}

// LadderPoint is one rung of the resolution ladder.
type LadderPoint struct {
	Dx        float64
	NinghePGV float64
	NingheHF  float64 // spectral energy fraction above 2 Hz
}

// Fig11Ladder extends the two-point comparison of Fig11 to a three-rung
// resolution ladder (the paper sweeps 500 m down to 8 m): each halving of
// the grid spacing must monotonically enrich the basin station's motion.
func Fig11Ladder(w io.Writer, size Size) ([]LadderPoint, error) {
	base := size.tangshan(true)
	var out []LadderPoint
	fmt.Fprintln(w, "Fig 11 ladder: resolution sweep at the basin station (Ninghe)")
	fmt.Fprintf(w, "%10s %14s %12s\n", "dx (m)", "PGV (m/s)", ">2Hz energy")
	for rung := 0; rung < 3; rung++ {
		scale := 1 << (2 - rung) // 4, 2, 1 -> coarsest first
		sc := base
		sc.Dims = grid.Dims{Nx: base.Dims.Nx * 2 / scale, Ny: base.Dims.Ny * 2 / scale, Nz: base.Dims.Nz * 2 / scale}
		sc.Dx = base.Dx * float64(scale) / 2
		sc.Steps = base.Steps * 2 / scale
		cfg, err := sc.Config()
		if err != nil {
			return nil, err
		}
		sim, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run()
		if err != nil {
			return nil, err
		}
		tr := res.Recorder.Trace("Ninghe")
		p := LadderPoint{
			Dx:        sc.Dx,
			NinghePGV: tr.PeakVelocity(),
			NingheHF:  tr.HorizontalSpectrum().EnergyAbove(2),
		}
		out = append(out, p)
		fmt.Fprintf(w, "%10.0f %14.4g %11.1f%%\n", p.Dx, p.NinghePGV, 100*p.NingheHF)
	}
	fmt.Fprintln(w, "(paper: each refinement from 500 m toward 8 m adds coda and changes the hazard map)")
	return out, nil
}
