package core

import (
	"fmt"
	"time"

	"swquake/internal/fd"
	"swquake/internal/plasticity"
	"swquake/internal/telemetry"
)

// Perf mirrors the paper's measurement mechanism (§7.1): flop counts come
// from per-kernel per-point operation counts (the paper counts assembly
// arithmetic and cross-checks with the PERF hardware monitor; we count the
// statically known arithmetic of each Go kernel), and rates are averaged
// over the executed steps. Operations added for optimization purposes —
// the compression codecs — are NOT counted as flops, matching the paper's
// accounting ("all the operations added for optimization purposes, such as
// the compression-related operations, are not counted").
//
// Nothing of it is counted as the run goes: a step's work follows from the
// configuration (Config.perf), and a run measures only the steps its loop
// advanced and their wall time, so a resumed run's rates are its own.
type Perf struct {
	// Steps is the simulation's step count, the steps before a restart
	// included; Flops and HaloBytes cover them all.
	Steps int64
	// Ran is the steps the run that produced the result advanced (Steps less
	// the step its loop started at) and Elapsed their wall time: the rates
	// are over these.
	Ran     int64
	Elapsed time.Duration
	// HaloBytes is the halo traffic the run's ranks exchanged over the
	// simulation: bytes sent plus received across all faces and both
	// per-step phases (decomp.ProcessGrid.HaloBytesPerStep summed over the
	// ranks, times Steps). Zero for serial runs.
	HaloBytes int64
	// Workers is how many workers walked the run's strips: each block's
	// resolved tile count (at most one a strip), summed over the blocks —
	// ranks × tiles. The same configuration derives more of them on a larger
	// host, so a rate compares across hosts only beside it.
	Workers int
	// points and flops are one step's grid points and counted operations.
	points, flops int64
}

// perf is the accounting of a run of c, the run's whole-domain
// configuration, that reached step steps with a loop that advanced ran of
// them in elapsed, its blocks walked by workers workers in all: velocity and
// stress on every point, plasticity on every point of a nonlinear run, and
// the sponge on the cells it damps.
func (c Config) perf(steps, ran int64, elapsed time.Duration, workers int) Perf {
	pts := c.Dims.Points()
	flops := pts * (fd.VelocityFlopsPerPoint + fd.StressFlopsPerPoint)
	if c.Nonlinear {
		flops += pts * plasticity.FlopsPerPoint
	}
	if c.SpongeWidth > 0 {
		flops += c.dampedPoints() * fd.SpongeFlopsPerPoint
	}
	return Perf{Steps: steps, Ran: ran, Elapsed: elapsed, Workers: workers, points: pts, flops: flops}
}

// dampedPoints is how many cells of the run's domain the sponge damps (the
// blocks of any decomposition sum to it).
func (c Config) dampedPoints() int64 {
	d := c.Dims
	return fd.NewSponge(d.Nx, d.Ny, d.Nz, c.SpongeWidth, SpongeAlpha).DampedPoints()
}

// Flops returns the counted floating-point operations of the whole
// simulation.
func (p Perf) Flops() int64 { return p.Steps * p.flops }

// StageBytes is one stage's entry of Config.BytesPerPointStep.
type StageBytes struct {
	Stage telemetry.Stage
	Bytes float64
}

// BytesPerPointStep is the byte counterpart of Flops, in the style of the
// paper's Table 4: for each configured sweep stage, the bytes per grid point
// and step of the arrays the stage touches, each at the rank it is stored at
// — a read is 4 B, a write 8 B (the line is fetched before it is written
// back), and a parameter stored as a z-row (grid.NewProfile) stays in L1 and
// costs nothing. The stress-side chain runs slab by slab (stripWalk), so
// its six stresses are charged once, to the stress kernel, and each later
// stage of the chain adds only the arrays that are its own. Dividing by a
// stage's time gives its effective bandwidth; a walk that keeps arrays in
// cache from one stage to the next (strips) shows as a rate above the
// host's. The free-surface images (two cells a column), source injection and
// the codecs of compressed storage are not counted.
func (c Config) BytesPerPointStep() []StageBytes {
	const read, write = 4.0, 8.0
	out := []StageBytes{
		{telemetry.StageVelocity, 6*read + read + 3*write}, // six stresses, rho; u, v, w
		{telemetry.StageStress, 3*read + 3*read + 6*write}, // u, v, w; lambda, mu, 1/mu; six stresses
	}
	if c.Nonlinear {
		// four constant rows and the lithostatic profile; no yield-factor record
		out = append(out, StageBytes{telemetry.StagePlasticity, 0})
	}
	if a := c.Attenuation; a.Enabled {
		b := 0.0 // constant Q: two constant rows
		switch {
		case a.UseSLS:
			// the update reads phi and rewrites six memory variables; the
			// snapshot copies the chain's six stresses into the worker's
			// scratch, which stays in cache as they do
			b = read + 6*write
		case a.VsScaled:
			b = 2 * read // GP, GS
		}
		out = append(out, StageBytes{telemetry.StageAttenuation, b})
	}
	if c.SpongeWidth > 0 {
		// the velocity half, over the damped share of the block; the stress
		// half rides the chain
		out = append(out, StageBytes{telemetry.StageSponge, 3 * write * float64(c.dampedPoints()) / float64(c.Dims.Points())})
	}
	return append(out, StageBytes{telemetry.StageDivergence, 3 * read}) // the max-|v| scan
}

// Gflops returns the sustained host rate of the steps the run advanced.
func (p Perf) Gflops() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.Ran*p.flops) / p.Elapsed.Seconds() / 1e9
}

// PointsPerSecond returns the grid-point updates per second of the steps the
// run advanced (the solver throughput metric used for host-side
// comparisons).
func (p Perf) PointsPerSecond() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.Ran*p.points) / p.Elapsed.Seconds()
}

func (p Perf) String() string {
	return fmt.Sprintf("%d steps, %.3g flops, %.2f Gflops sustained, %.1f Mpoints/s (walk workers: %d)",
		p.Steps, float64(p.Flops()), p.Gflops(), p.PointsPerSecond()/1e6, p.Workers)
}
