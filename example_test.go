package swquake_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"slices"

	"swquake"
)

// ExampleNew runs the quickstart scenario end to end.
func ExampleNew() {
	cfg := swquake.QuickstartConfig()
	cfg.Steps = 20

	sim, err := swquake.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("steps completed:", res.Steps)
	fmt.Println("stations recorded:", len(res.Recorder.Traces))
	// Output:
	// steps completed: 20
	// stations recorded: 1
}

// ExampleRunParallel shows that the simulated-MPI runner produces the same
// results as a serial run.
func ExampleRunParallel() {
	cfg := swquake.QuickstartConfig()
	cfg.Steps = 20

	sim, _ := swquake.New(cfg)
	serial, err := sim.Run()
	if err != nil {
		log.Fatal(err)
	}
	parallel, err := swquake.RunParallel(cfg, 2, 2)
	if err != nil {
		log.Fatal(err)
	}

	a := serial.Recorder.Trace("station-0")
	b := parallel.Recorder.Trace("station-0")
	identical := true
	for i := range a.U {
		if a.U[i] != b.U[i] {
			identical = false
		}
	}
	fmt.Println("serial == parallel:", identical)
	// Output:
	// serial == parallel: true
}

// ExampleTangshanScenario builds the paper's scaled Tangshan configuration.
func ExampleTangshanScenario() {
	sc := swquake.TangshanScenario{
		Dims:      swquake.Dims{Nx: 40, Ny: 39, Nz: 16},
		Dx:        800,
		Steps:     50,
		Nonlinear: true,
	}
	cfg, err := sc.Config()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("nonlinear:", cfg.Nonlinear)
	fmt.Println("stations:", len(cfg.Stations))
	fmt.Println("fault sub-sources:", len(cfg.Sources))
	// Output:
	// nonlinear: true
	// stations: 3
	// fault sub-sources: 96
}

// ExampleSimulator_Restore stops a run after 40 of its 80 steps, with a
// checkpoint every 20, restores a fresh simulator from the latest one and
// finishes there: the resumed run ends bit for bit where an uninterrupted
// run does.
func ExampleSimulator_Restore() {
	dir, err := os.MkdirTemp("", "swquake-restore")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cfg := swquake.QuickstartConfig()
	cfg.Steps = 80
	sim, err := swquake.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	whole, err := sim.Run()
	if err != nil {
		log.Fatal(err)
	}

	// Run drains the controller's write lane: both dumps are on disk after it
	ctl := &swquake.CheckpointController{Dir: dir, Interval: 20, Keep: 2}
	first := cfg
	first.Steps = 40
	first.Checkpoint = ctl
	if sim, err = swquake.New(first); err != nil {
		log.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		log.Fatal(err)
	}

	if sim, err = swquake.New(cfg); err != nil {
		log.Fatal(err)
	}
	if err := sim.Restore(ctl.Latest()); err != nil {
		log.Fatal(err)
	}
	fmt.Println("restored at step", sim.StepCount())
	res, err := sim.Run()
	if err != nil {
		log.Fatal(err)
	}
	identical := true
	for i, f := range whole.Sim.WF.AllFields() {
		identical = identical && f.InteriorEqual(res.Sim.WF.AllFields()[i], 0)
	}
	fmt.Println("bit-exact:", identical)
	// Output:
	// restored at step 40
	// bit-exact: true
}

// ExampleConfig_compression stores a small Tangshan run's wavefield through
// the range-normalized 16-bit codec (paper §6.5), which the run calibrates on
// a coarse run of itself first; its seismograms then differ from the same
// run's in float32.
func ExampleConfig_compression() {
	sc := swquake.TangshanScenario{Dims: swquake.Dims{Nx: 40, Ny: 39, Nz: 16}, Dx: 800, Steps: 60}
	cfg, err := sc.Config()
	if err != nil {
		log.Fatal(err)
	}
	run := func(cfg swquake.Config) *swquake.Result {
		sim, err := swquake.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	plain := run(cfg)
	cfg.Compression = swquake.CompressionNormalized
	compressed := run(cfg)

	differ := false
	for i, a := range plain.Recorder.Traces {
		b := compressed.Recorder.Traces[i]
		differ = differ || !slices.Equal(a.U, b.U) || !slices.Equal(a.V, b.V) || !slices.Equal(a.W, b.W)
	}
	fmt.Println("steps completed:", compressed.Steps)
	fmt.Println("traces differ from float32:", differ)
	// Output:
	// steps completed: 60
	// traces differ from float32: true
}

// ExampleNewJobService runs the quickstart scenario as a job on an
// in-memory service (no DataDir: nothing is written to disk).
func ExampleNewJobService() {
	svc := swquake.NewJobService(swquake.JobOptions{Workers: 1})
	defer svc.Drain(context.Background())

	id, err := svc.Submit(swquake.JobRequest{Config: swquake.QuickstartConfig()})
	if err != nil {
		log.Fatal(err)
	}
	st, err := svc.Wait(context.Background(), id)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("state:", st.State)
	fmt.Println("steps done:", st.StepsDone)
	// Output:
	// state: done
	// steps done: 100
}

// ExampleOpenCampaignManager sweeps the quickstart scenario over two
// velocity-heterogeneity seeds on an in-memory job service and folds both
// members' surface PGV into the campaign's hazard statistics.
func ExampleOpenCampaignManager() {
	svc := swquake.NewJobService(swquake.JobOptions{Workers: 1})
	defer svc.Drain(context.Background())
	m, err := swquake.OpenCampaignManager(swquake.CampaignOptions{Service: svc})
	if err != nil {
		log.Fatal(err)
	}
	defer m.Drain(context.Background())

	st, err := m.Create(swquake.CampaignSpec{
		Scenario: "quickstart",
		Seeds:    swquake.CampaignSeedAxis{Base: 1, Count: 2, HetAmplitude: 0.05},
	})
	if err != nil {
		log.Fatal(err)
	}
	st, err = m.Wait(context.Background(), st.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("state:", st.State)
	fmt.Println("members folded:", st.Folded)
	// Output:
	// state: done
	// members folded: 2
}
