package swquake_test

import (
	"fmt"
	"log"

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
