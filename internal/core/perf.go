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
type Perf struct {
	VelocityPoints   int64
	StressPoints     int64
	PlasticityPoints int64
	SpongePoints     int64
	// HaloBytes is the halo traffic this rank exchanged over the run: bytes
	// sent plus received across all faces and both per-step phases
	// (decomp.ProcessGrid.HaloBytesPerStep times the executed steps). Zero
	// for serial runs; summed across ranks by AddCounters so the merged Perf
	// reports the run's total wire traffic.
	HaloBytes int64
	Steps     int64
	Elapsed   time.Duration
}

// AddCounters folds another rank's kernel-point counters into p.
//
// Ownership rule (enforced by TestAddCountersNeverSumsStepsOrElapsed):
// Steps and Elapsed describe the run as a whole — every rank steps the same
// count in the same wall-clock window — so AddCounters must NEVER sum them;
// the caller sets them once from the run. Summing them across ranks would
// multiply the denominator of every rate by the rank count and silently
// deflate Gflops/PointsPerSecond.
func (p *Perf) AddCounters(o Perf) {
	p.VelocityPoints += o.VelocityPoints
	p.StressPoints += o.StressPoints
	p.PlasticityPoints += o.PlasticityPoints
	p.SpongePoints += o.SpongePoints
	p.HaloBytes += o.HaloBytes
}

// Flops returns the counted floating-point operations.
func (p Perf) Flops() int64 {
	return p.VelocityPoints*fd.VelocityFlopsPerPoint +
		p.StressPoints*fd.StressFlopsPerPoint +
		p.PlasticityPoints*plasticity.FlopsPerPoint +
		p.SpongePoints*fd.SpongeFlopsPerPoint
}

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
		d := c.Dims
		damped := fd.NewSponge(d.Nx, d.Ny, d.Nz, c.SpongeWidth, 1).DampedPoints() // whatever alpha: the zones are the width's
		out = append(out, StageBytes{telemetry.StageSponge, 3 * write * float64(damped) / float64(d.Points())})
	}
	return append(out, StageBytes{telemetry.StageDivergence, 3 * read}) // the max-|v| scan
}

// Gflops returns the sustained host rate over the elapsed wall time.
func (p Perf) Gflops() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.Flops()) / p.Elapsed.Seconds() / 1e9
}

// PointsPerSecond returns grid-point updates per second (the solver
// throughput metric used for host-side comparisons).
func (p Perf) PointsPerSecond() float64 {
	if p.Elapsed <= 0 || p.Steps == 0 {
		return 0
	}
	return float64(p.VelocityPoints) / p.Elapsed.Seconds()
}

func (p Perf) String() string {
	return fmt.Sprintf("%d steps, %.3g flops, %.2f Gflops sustained, %.1f Mpoints/s",
		p.Steps, float64(p.Flops()), p.Gflops(), p.PointsPerSecond()/1e6)
}
