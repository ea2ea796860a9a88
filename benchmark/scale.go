package main

import (
	"swquake/internal/grid"
	"swquake/internal/scenario"
)

// scale fixes how much work one repetition of each workload does. Grid sizes
// are what put a workload in its regime (L2-resident, DRAM-resident), and so
// is the 40-step length of a service job (a durable job shorter than 25 steps
// writes no auto-checkpoint), so the full scale never changes them; only the
// issue's step, job and member counts per repetition were scaled, so that a
// run of --seconds 60 holds thirty or more repetitions of either workload:
// the reported value is the best repetition, and the more chances a run has
// to meet a quiet stretch of the shared host, the better it repeats.
type scale struct {
	name string

	large   grid.Dims // solve-nonlinear-large, and the .large layer probes
	scaling grid.Dims // the serial / ranks / tiles layer probe
	ckpt    grid.Dims // the checkpoint-restart probe

	largeSteps   int
	smallSteps   int
	scalingSteps int
	// ckptSteps is the length of the first, checkpointed run; the second
	// run restarts from the dump at ckptSteps/2 and runs to ckptSteps.
	ckptSteps    int
	ckptInterval int

	jobs     int // service-http-mix jobs per repetition
	jobSteps int
	// repeatEvery makes every n-th job repeat an earlier seed (a cache hit).
	repeatEvery int

	memberSteps int // of a campaign member (the ensemble layer probe)

	minReps int

	// layer probes (traced pass)
	probeReps     int // direct kernel sweeps, and solves per configuration
	probeSteps    int // steps of the probe's own solver run at the large size
	probeJobs     int // in-process job mix
	probeHTTPJobs int // job mix over HTTP: enough cache misses for a p90
	probeMembers  int
	triadMiB      int // size of each of the three triad arrays
}

// countFactor is the one factor applied to the step counts of the issue's
// sizing (12/600/12/24 steps, members of 60 steps): shorter repetitions, so
// that more of them fit a run. The 12-step checkpointed run dumps every 3rd
// step, not the issue's every 4th, because the restart needs a dump at the
// middle step. The job mix is cut further, from 160 jobs to 24 per
// repetition, for the same reason.
const countFactor = 0.5

var fullScale = scale{
	name:          "full",
	large:         grid.Dims{Nx: 192, Ny: 192, Nz: 96},
	scaling:       grid.Dims{Nx: 160, Ny: 160, Nz: 96},
	ckpt:          grid.Dims{Nx: 128, Ny: 128, Nz: 64},
	largeSteps:    6,
	smallSteps:    300,
	scalingSteps:  6,
	ckptSteps:     12,
	ckptInterval:  3,
	jobs:          24,
	jobSteps:      40,
	repeatEvery:   4,
	memberSteps:   30,
	minReps:       3,
	probeReps:     3,
	probeSteps:    4,
	probeJobs:     24,
	probeHTTPJobs: 136, // 102 cache misses: ten samples beyond the p90
	probeMembers:  4,
	triadMiB:      256,
}

// smokeScale is what the tier-1 test runs: every code path, tiny grids, one
// repetition.
var smokeScale = scale{
	name:          "smoke",
	large:         grid.Dims{Nx: 24, Ny: 24, Nz: 16},
	scaling:       grid.Dims{Nx: 24, Ny: 24, Nz: 16},
	ckpt:          grid.Dims{Nx: 24, Ny: 24, Nz: 16},
	largeSteps:    4,
	smallSteps:    20,
	scalingSteps:  4,
	ckptSteps:     8,
	ckptInterval:  2,
	jobs:          8,
	jobSteps:      10,
	repeatEvery:   4,
	memberSteps:   10,
	minReps:       1,
	probeReps:     1,
	probeSteps:    2,
	probeJobs:     4,
	probeHTTPJobs: 8,
	probeMembers:  2,
	triadMiB:      4,
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// run performs one repetition.
	run func(*env) (*repResult, error)
	// pinned says the result digest must equal golden.json's entry of this
	// name: solver outputs do not depend on the seed.
	pinned bool
	// daemon marks the workload that drives the real quaked binary. A
	// repetition of it takes a second or two but holds a single
	// few-millisecond set-up, so a run adds set-ups with no workload behind
	// them (spawn until ready, then stop) until its set-up median has
	// setupSamples.
	daemon bool
}

// Two workloads, each computing on one thread, with runs of a minute: what a
// host that slows for minutes at a time lets repeat within a bound (README,
// Departures). The other uses of the program the issue lists are measured by
// the layer probes of every traced run.
var workloads = []workload{
	{
		name: "solve-nonlinear-large", pinned: true, run: solveNonlinearLarge,
		why: "paper's headline case (nonlinear+attenuation) on a 192x192x96 grid far outside L2: fd, plasticity and sponge sweeps do the work; cache-blocking, fusion and bounds-check removal must show here",
	},
	{
		name: "service-http-mix", run: serviceHTTPMix, daemon: true,
		why: "POST /v1/jobs, poll, read the result on a durable quaked, 1 closed-loop client, every 4th job a cache hit: journal fsync, queue, cache, admission, job set-up and HTTP dominate; kernel gains bypass it",
	},
}

// pinnedRuns are the solver runs whose result digest golden.json pins: the
// solver workload, and the two the probes make (the L2-resident grid and
// the checkpointed run with its restart).
var pinnedRuns = []struct {
	name string
	run  func(*env) (*repResult, error)
}{
	{"solve-nonlinear-large", solveNonlinearLarge},
	{"solve-linear-small", solveLinearSmall},
	{"solve-checkpoint-restart", checkpointRestart},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// The solver inputs, shared by the workloads and the layer probes.

func (sc scale) largeOverrides(steps int) scenario.Overrides {
	return scenario.Overrides{Nx: sc.large.Nx, Ny: sc.large.Ny, Nz: sc.large.Nz,
		Nonlinear: true, Qs: 50, Steps: steps}
}

func (sc scale) scalingOverrides(steps int) scenario.Overrides {
	return scenario.Overrides{Nx: sc.scaling.Nx, Ny: sc.scaling.Ny, Nz: sc.scaling.Nz, Steps: steps}
}

func (sc scale) ckptOverrides(steps int) scenario.Overrides {
	return scenario.Overrides{Nx: sc.ckpt.Nx, Ny: sc.ckpt.Ny, Nz: sc.ckpt.Nz, Steps: steps}
}
