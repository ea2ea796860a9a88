// Command quakesim runs an earthquake ground-motion simulation from the
// command line: the quickstart demo or the scaled Tangshan scenario, with
// optional nonlinearity, on-the-fly compression, simulated-MPI parallelism
// and checkpointing. Station seismograms are written as CSV and the PGV /
// intensity maps as PGM images.
//
// Examples:
//
//	quakesim -scenario quickstart
//	quakesim -scenario tangshan -nx 80 -ny 78 -nz 28 -dx 400 -steps 300 -nonlinear
//	quakesim -scenario tangshan -compress normalized -out /tmp/run
//	quakesim -scenario quickstart -parallel 2x2
//
// Checkpointing works the same serially and in parallel (parallel runs
// gather the blocks to rank 0 and write one global dump), and either layer
// can resume the other's dump:
//
//	quakesim -scenario quickstart -parallel 2x2 -checkpoint-every 100 -out /tmp/run
//	quakesim -scenario quickstart -parallel 2x2 -restart /tmp/run/ckpt-00000100.swq
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"swquake"
	"swquake/internal/cgexec"
	"swquake/internal/checkpoint"
	"swquake/internal/compress"
	"swquake/internal/core"
	"swquake/internal/cpu"
	"swquake/internal/decomp"
	"swquake/internal/faultinject"
	"swquake/internal/grid"
	"swquake/internal/model"
	"swquake/internal/output"
	"swquake/internal/scenario"
	"swquake/internal/seismo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quakesim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("quakesim", flag.ContinueOnError)
	var (
		scen      = fs.String("scenario", "quickstart", "scenario: quickstart or tangshan")
		nx        = fs.Int("nx", 0, "grid points along x (0 = scenario default)")
		ny        = fs.Int("ny", 0, "grid points along y")
		nz        = fs.Int("nz", 0, "grid points along z")
		dx        = fs.Float64("dx", 0, "grid spacing in meters")
		steps     = fs.Int("steps", 0, "time steps")
		nonlinear = fs.Bool("nonlinear", false, "enable Drucker-Prager plasticity")
		comp      = fs.String("compress", "off", "compression: off, half, adaptive, normalized")
		parallel  = fs.String("parallel", "", "process grid MXxMY, e.g. 2x2 (simulated MPI)")
		ckptEvery = fs.Int("checkpoint-every", 0, "write an LZ4 checkpoint every N steps")
		restart   = fs.String("restart", "", "resume from a checkpoint file (-steps stays the TOTAL count; a -compress run resumes bit-exactly only under the -steps of the run that wrote the dump)")
		outDir    = fs.String("out", "", "directory for CSV traces and PGM maps")
		modelPath = fs.String("model", "", "SWVM velocity-model file (see cmd/mkmodel)")
		qs        = fs.Float64("qs", 0, "constant Qs attenuation (Qp = 2 Qs); 0 = elastic")
		qVsScaled = fs.Bool("q-vs", false, "Vs-scaled attenuation (Qs = 0.05 Vs)")
		snapshots = fs.Int("snapshots", 0, "write a surface-velocity PGM every N steps (serial runs, needs -out)")
		sunwaySim = fs.Bool("sunway", false, "report one step of the run's block on a simulated SW26010 core group (a rank's block under -parallel)")
		tiles     = fs.Int("tiles", 0, "intra-rank workers walking the block's strips as a wavefront (0 = derived from the host and the block, the default; 1 = single-threaded; bit-identical results)")
		overlap   = fs.Bool("overlap", false, "overlap interior compute with the velocity-halo exchange (bit-identical; -parallel runs only)")
		progress  = fs.Bool("progress", false, "print step progress and ETA during the run")
		timing    = fs.Bool("timing", false, "print the per-stage kernel timing breakdown after the run")

		stepDeadline = fs.Duration("step-deadline", 0, "parallel watchdog: fail a halo exchange waiting longer than this as a stalled rank (0 = off)")
		faultRetries = fs.Int("fault-retries", 0, "in-run recovery budget for a -parallel run's engine faults: rewind to the newest valid checkpoint and resume (0 = off)")
		faults       = fs.String("faults", "", "fault-injection spec for resilience drills, e.g. 'halo/corrupt:times=1;rank/stall:delay=2s' (testing only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *snapshots > 0 && *parallel != "" {
		return fmt.Errorf("-snapshots takes serial runs only, not -parallel")
	}
	// the core-group tally models the float32 traffic of uncompressed storage
	if *sunwaySim && *comp != "off" {
		return fmt.Errorf("-sunway takes uncompressed runs only, not -compress %s", *comp)
	}
	// a serial run has no halo to time out or overlap and no rank to heal
	for _, name := range []string{"fault-retries", "step-deadline", "overlap"} {
		if f := fs.Lookup(name); *parallel == "" && f.Value.String() != f.DefValue {
			return fmt.Errorf("-%s takes -parallel runs only (one block: -parallel 1x1)", name)
		}
	}

	cfg, err := scenario.Build(*scen, scenario.Overrides{
		Nx: *nx, Ny: *ny, Nz: *nz, Dx: *dx, Steps: *steps,
		Nonlinear: *nonlinear, Qs: *qs, QVsScaled: *qVsScaled,
		Overlap: *overlap,
	})
	if err != nil {
		return err
	}
	if *modelPath != "" {
		g, err := model.LoadGridModel(*modelPath)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "using velocity model %s (%s)\n", *modelPath, g)
		cfg.Model = g
	}
	cfg.Tiles = *tiles
	cfg.StepDeadline = *stepDeadline
	cfg.MaxFaultRetries = *faultRetries
	if *faults != "" {
		if err := faultinject.EnableSpec(*faults); err != nil {
			return err
		}
		fmt.Fprintf(w, "fault injection armed: %s\n", *faults)
	}
	if *progress {
		cfg.Observer = progressObserver(w, cfg.Steps)
	}

	if cfg.Compression, err = parseMethod(*comp); err != nil {
		return err
	}
	if *ckptEvery > 0 {
		dir := *outDir
		if dir == "" {
			dir = "."
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		cfg.Checkpoint = &checkpoint.Controller{Dir: dir, Interval: *ckptEvery, Keep: 3}
	}
	if *restart != "" {
		fmt.Fprintf(w, "resuming from checkpoint %s\n", *restart)
		cfg.RestartFrom = *restart
	}

	start := time.Now()
	var res *core.Result
	mx, my := 1, 1
	if *parallel != "" {
		if mx, my, err = parseProcGrid(*parallel); err != nil {
			return err
		}
		fmt.Fprintf(w, "running %s on a %dx%d simulated-MPI process grid...\n", *scen, mx, my)
		res, err = core.RunParallel(cfg, mx, my)
		if err != nil {
			return err
		}
	} else if *snapshots > 0 {
		if *outDir == "" {
			return fmt.Errorf("-snapshots needs -out")
		}
		sim, err := core.New(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "running %s with surface snapshots every %d steps...\n", *scen, *snapshots)
		res, err = runWithSnapshots(sim, cfg, *snapshots, *outDir)
		if err != nil {
			return err
		}
	} else {
		sim, err := core.New(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "running %s: %v grid, dx=%.0f m, dt=%.4f s, %d steps...\n",
			*scen, cfg.Dims, cfg.Dx, sim.Dt(), cfg.Steps)
		res, err = sim.Run()
		if err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	// the rates are over the steps this run executed, which a resumed run
	// starts part way through
	pointSteps := float64(cfg.Dims.Points()) * float64(res.Perf.Ran)

	fmt.Fprintf(w, "done in %.2f s (%.1f Mpoint-steps/s)\n", elapsed.Seconds(),
		pointSteps/elapsed.Seconds()/1e6)
	if res.Perf.Steps > 0 {
		fmt.Fprintf(w, "perf: %v\n", res.Perf)
	}
	if res.Perf.HaloBytes > 0 {
		fmt.Fprintf(w, "halo traffic: %.1f MB exchanged (%.2f MB/step)\n",
			float64(res.Perf.HaloBytes)/1e6,
			float64(res.Perf.HaloBytes)/1e6/float64(res.Perf.Steps))
	}
	if *sunwaySim {
		// the core groups step their blocks at once: one block's step is
		// the run's
		pg, err := decomp.NewProcessGrid(cfg.Dims.Nx, cfg.Dims.Ny, cfg.Dims.Nz, mx, my)
		if err != nil {
			return err
		}
		if err := printSunway(w, pg.BlockDims()); err != nil {
			return err
		}
	}
	if *timing {
		printTiming(w, cfg, res, pointSteps, elapsed.Seconds())
	}
	report(w, res)

	if *outDir != "" {
		if err := writeOutputs(*outDir, res); err != nil {
			return err
		}
		if err := swquake.NewRunManifest(cfg, res).Save(filepath.Join(*outDir, "run.json")); err != nil {
			return err
		}
		fmt.Fprintf(w, "outputs written to %s\n", *outDir)
	}
	return nil
}

// progressObserver prints step progress and the step's max |v| through the
// engine's per-step observer hook — the same mechanism the job service uses
// for live progress — at roughly 10 lines per run.
func progressObserver(w io.Writer, total int) core.StepObserver {
	interval := total / 10
	if interval < 1 {
		interval = 1
	}
	return func(ev core.StepEvent) {
		if ev.Step%interval != 0 && ev.Step != ev.Total {
			return
		}
		eta := time.Duration(0)
		if ev.Step > 0 {
			eta = time.Duration(float64(ev.Wall) / float64(ev.Step) * float64(ev.Total-ev.Step))
		}
		fmt.Fprintf(w, "step %d/%d  t=%.3f s  max|v|=%.3g m/s  wall=%.2f s  eta=%.2f s\n",
			ev.Step, ev.Total, ev.SimTime, ev.MaxVelocity, ev.Wall.Seconds(), eta.Seconds())
	}
}

// printSunway reports one step of a core group's block as the simulated
// SW26010 core group runs it (cgexec.Tally).
func printSunway(w io.Writer, block grid.Dims) error {
	s, ldmCfg, err := cgexec.Tally(block)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "simulated SW26010 core group: %.2f ms/step, %.1f GB/s effective DMA, LDM peak %d B\n",
		1e3*s.StepSeconds(), s.EffectiveBandwidth(), ldmCfg.LDMBytesUsed)
	return nil
}

// printTiming renders the per-stage kernel breakdown (the paper's Fig. 7
// accounting, measured on the host): time per stage, its share of the run,
// and how much of the wall clock the stages account for in total. Parallel
// runs sum stage time over ranks, so the percentage column is of summed
// stage time there, not of wall time. pointSteps is the point-steps this
// process ran, which a resumed run starts part way through.
func printTiming(w io.Writer, cfg core.Config, res *core.Result, pointSteps, wallS float64) {
	rep := res.Stages.Report()
	total := rep.TotalSeconds()
	if total <= 0 {
		return
	}
	// the byte accounting beside the times: what each sweep stage touches per
	// point and step, and the rate that is over the stage's own time (summed
	// over ranks, like the point count)
	bytes := map[string]float64{}
	var perPoint float64
	for _, sb := range cfg.BytesPerPointStep() {
		bytes[sb.Stage.String()] = sb.Bytes
		perPoint += sb.Bytes
	}
	fmt.Fprintf(w, "%-14s %10s %12s %12s %12s %7s %8s %7s\n",
		"stage", "count", "total (s)", "avg (ms)", "max (ms)", "share", "B/point", "GB/s")
	for _, st := range rep.Stages {
		fmt.Fprintf(w, "%-14s %10d %12.4f %12.4f %12.4f %6.1f%%",
			st.Name, st.Count, st.Seconds, 1e3*st.AvgSeconds(), 1e3*st.MaxS,
			100*st.Seconds/total)
		if b, ok := bytes[st.Name]; ok && st.Seconds > 0 {
			fmt.Fprintf(w, " %8.1f %7.1f", b, b*pointSteps/st.Seconds/1e9)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "stages total %.4f s over %.4f s wall (%.1f%% accounted)\n",
		total, wallS, 100*total/wallS)
	fmt.Fprintf(w, "bytes touched: %.1f B/point/step, %.1f GB/s effective over the run\n",
		perPoint, perPoint*pointSteps/wallS/1e9)
	fmt.Fprintf(w, "row kernels: %s\n", cpu.KernelPath())
	if n := len(res.Checkpoints); n > 0 {
		fmt.Fprintf(w, "checkpoint lane: %d dumps written in %.4f s beside the solver (the checkpoint stage above is snapshots and waits)\n",
			n, res.CheckpointWriteSeconds)
	}
}

func parseMethod(s string) (compress.Method, error) {
	switch s {
	case "off":
		return compress.Off, nil
	case "half":
		return compress.Half, nil
	case "adaptive":
		return compress.Adaptive, nil
	case "normalized":
		return compress.Normalized, nil
	default:
		return compress.Off, fmt.Errorf("unknown compression method %q", s)
	}
}

func parseProcGrid(s string) (mx, my int, err error) {
	parts := strings.Split(s, "x")
	if len(parts) == 2 {
		if _, err := fmt.Sscanf(s, "%dx%d", &mx, &my); err == nil && mx > 0 && my > 0 {
			return mx, my, nil
		}
	}
	return 0, 0, fmt.Errorf("invalid process grid %q (want MXxMY)", s)
}

func report(w io.Writer, res *core.Result) {
	fmt.Fprintf(w, "%-12s %14s %10s\n", "station", "PGV (m/s)", "intensity")
	for _, tr := range res.Recorder.Traces {
		pgv := tr.PeakVelocity()
		fmt.Fprintf(w, "%-12s %14.5g %10.1f\n", tr.Station.Name, pgv, seismo.Intensity(pgv))
	}
	if res.PGV != nil {
		fmt.Fprintf(w, "surface PGV max %.4g m/s (intensity %.1f)\n",
			res.PGV.Max(), seismo.Intensity(res.PGV.Max()))
	}
	if res.YieldedPointSteps > 0 {
		fmt.Fprintf(w, "plasticity engaged at %d point-steps\n", res.YieldedPointSteps)
	}
	for _, ev := range res.Faults {
		fmt.Fprintf(w, "engine fault recovered: %s on rank %d at step %d (resumed from step %d, attempt %d): %v\n",
			ev.Kind, ev.Rank, ev.Step, ev.ResumeStep, ev.Attempt, ev.Err)
	}
	for _, ck := range res.Checkpoints {
		fmt.Fprintf(w, "checkpoint %s (%.1fx LZ4)\n", ck.Path, ck.CompressionRatio)
	}
}

func writeOutputs(dir string, res *core.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, tr := range res.Recorder.Traces {
		path := filepath.Join(dir, fmt.Sprintf("trace-%s.csv", tr.Station.Name))
		if err := output.SaveTraceCSV(path, tr); err != nil {
			return err
		}
		spath := filepath.Join(dir, fmt.Sprintf("spectrum-%s.csv", tr.Station.Name))
		if err := output.SaveSpectrumCSV(spath, tr.HorizontalSpectrum()); err != nil {
			return err
		}
	}
	if res.PGV != nil {
		pg := output.PGVGrid(res.PGV)
		if err := output.SavePGM(filepath.Join(dir, "pgv.pgm"), pg, 0, res.PGV.Max()); err != nil {
			return err
		}
		ig := output.IntensityGrid(res.PGV)
		if err := output.SavePGM(filepath.Join(dir, "intensity.pgm"), ig, 1, 12); err != nil {
			return err
		}
	}
	return nil
}

// runWithSnapshots writes the surface horizontal-velocity field as a PGM
// image every interval steps (the wavefield snapshots of paper Fig. 11c-d),
// hanging the writer off the engine's per-step observer hook — chained
// after any observer already installed (e.g. -progress) — and letting the
// normal Run loop drive the stepping, restart handling included.
func runWithSnapshots(sim *core.Simulator, cfg core.Config, interval int, dir string) (*core.Result, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	prev := sim.Cfg.Observer
	var snapErr error
	sim.Cfg.Observer = func(ev core.StepEvent) {
		if prev != nil {
			prev(ev)
		}
		if snapErr != nil || ev.Step%interval != 0 {
			return
		}
		snap := seismo.Snapshot(sim.WF, 0)
		var vmax float64
		for _, row := range snap {
			for _, v := range row {
				if v > vmax {
					vmax = v
				}
			}
		}
		path := filepath.Join(dir, fmt.Sprintf("snap-%05d.pgm", ev.Step))
		snapErr = output.SavePGM(path, snap, 0, vmax)
	}
	res, err := sim.Run()
	if err != nil {
		return nil, err
	}
	if snapErr != nil {
		return nil, snapErr
	}
	return res, nil
}
