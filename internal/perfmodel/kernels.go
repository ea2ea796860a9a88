package perfmodel

import (
	"swquake/internal/ldm"
	"swquake/internal/sunway"
)

// Kernel optimization-ladder model (Fig. 7). Each kernel is characterized
// by its per-point array traffic and arithmetic, and evaluated under the
// paper's four execution strategies:
//
//	MPE  — original code on the management core only;
//	PAR  — parallelized over the 64 CPEs, naive small DMA transfers;
//	MEM  — full memory scheme: fusion, blocking model, register halos;
//	CMPR — MEM plus the on-the-fly 16-bit compression.

// Strategy is one rung of the Fig. 7 optimization ladder.
type Strategy int

const (
	MPE Strategy = iota
	PAR
	MEM
	CMPR
)

func (s Strategy) String() string {
	return [...]string{"MPE", "PAR", "MEM", "CMPR"}[s]
}

// Strategies lists the ladder in order.
var Strategies = []Strategy{MPE, PAR, MEM, CMPR}

// Kernel describes one solver kernel for the model.
type Kernel struct {
	Name string
	// ReadArrays and WriteArrays are scalar 3D arrays touched per point.
	ReadArrays, WriteArrays int
	// FusedGroups is the array grouping after fusion (reads+writes).
	FusedGroups []int
	// FlopsPerPoint is the kernel's arithmetic intensity numerator.
	FlopsPerPoint float64
	// ParallelFraction models thread starvation: fstr only has surface
	// rows to hand out, so most CPEs idle (paper: fstr gains only 4-5x
	// "due to its extremely low arithmetic density").
	ParallelFraction float64
	// CompressLeaveRaw marks kernels whose arrays stay uncompressed
	// (boundary bookkeeping), so CMPR == MEM.
	CompressLeaveRaw bool
}

// Fig7Kernels is the kernel set of the paper's Fig. 7.
func Fig7Kernels() []Kernel {
	return []Kernel{
		{Name: "delcx", ReadArrays: 10, WriteArrays: 2, FusedGroups: []int{3, 6, 1, 2}, FlopsPerPoint: 90, ParallelFraction: 1},
		{Name: "delcy", ReadArrays: 10, WriteArrays: 1, FusedGroups: []int{3, 6, 1, 1}, FlopsPerPoint: 45, ParallelFraction: 1},
		{Name: "dstrqc", ReadArrays: 11, WriteArrays: 6, FusedGroups: []int{3, 6, 2, 6}, FlopsPerPoint: 160, ParallelFraction: 1},
		{Name: "drprecpc_calc", ReadArrays: 11, WriteArrays: 7, FusedGroups: []int{6, 5, 7}, FlopsPerPoint: 290, ParallelFraction: 1},
		{Name: "drprecpc_app", ReadArrays: 8, WriteArrays: 6, FusedGroups: []int{6, 2, 6}, FlopsPerPoint: 120, ParallelFraction: 1},
		{Name: "fstr", ReadArrays: 8, WriteArrays: 4, FusedGroups: []int{6, 2, 4}, FlopsPerPoint: 20, ParallelFraction: 0.14, CompressLeaveRaw: true},
		{Name: "unpack_vy", ReadArrays: 4, WriteArrays: 3, FusedGroups: []int{4, 3}, FlopsPerPoint: 6, ParallelFraction: 0.6, CompressLeaveRaw: true},
		{Name: "gather_vx", ReadArrays: 4, WriteArrays: 3, FusedGroups: []int{4, 3}, FlopsPerPoint: 6, ParallelFraction: 0.55, CompressLeaveRaw: true},
	}
}

// bytesPerPoint is the logical float32 traffic of the kernel.
func (k Kernel) bytesPerPoint() float64 {
	return float64(k.ReadArrays+k.WriteArrays) * 4
}

// naiveBlockBytes is the DMA chunk the PAR strategy issues: per-point
// vector loads of a handful of z values without the blocking model.
const naiveBlockBytes = 64

// fusedBandwidth runs the LDM blocking model on the kernel's fused groups
// and returns the effective per-CG bandwidth (GB/s) and the redundancy
// fraction of the chosen configuration.
func (k Kernel) fusedBandwidth() (bw, redundant float64) {
	shape := ldm.Shape{Groups: k.FusedGroups, H: 2, MinWy: 9, MinWx: 5}
	cfg, err := ldm.Optimize(shape, 160, 512, sunway.LDMBytes)
	if err != nil {
		// fall back to the naive bandwidth; cannot happen for the built-in set
		return sunway.PerCGShare(naiveBlockBytes, sunway.DMAGet), 0
	}
	return cfg.EffBWGBs, cfg.RedundantFrac
}

// TimePerPoint returns the modeled per-point execution time (seconds)
// under the given strategy.
func (k Kernel) TimePerPoint(s Strategy) float64 {
	bytes := k.bytesPerPoint()
	cpeRate := cpeAggRate()

	switch s {
	case MPE:
		memT := bytes / (sunway.MPEEffectiveBWGBs * 1e9)
		compT := k.FlopsPerPoint / (sunway.MPEEffectiveGflops * 1e9)
		return max(memT, compT)
	case PAR:
		bw := sunway.PerCGShare(naiveBlockBytes, sunway.DMAGet) * 1e9 * k.ParallelFraction
		memT := bytes / bw
		compT := k.FlopsPerPoint / (cpeRate * k.ParallelFraction)
		return max(memT, compT)
	case MEM:
		bw, red := k.fusedBandwidth()
		memT := bytes * (1 + red) / (bw * 1e9 * k.ParallelFraction)
		compT := k.FlopsPerPoint / (cpeRate * k.ParallelFraction)
		return max(memT, compT)
	default: // CMPR
		if k.CompressLeaveRaw {
			return k.TimePerPoint(MEM)
		}
		bw, red := k.fusedBandwidth()
		memT := 0.5 * bytes * (1 + red) / (bw * 1e9 * k.ParallelFraction)
		codecT := float64(k.ReadArrays+k.WriteArrays) * CodecCyclesPerValue /
			(sunway.CPEsPerCG * sunway.CPEFreqGHz * 1e9)
		compT := k.FlopsPerPoint/(cpeRate*k.ParallelFraction) + codecT
		return max(memT, compT)
	}
}

// Speedup returns the kernel's speedup over the MPE baseline (Fig. 7 top).
func (k Kernel) Speedup(s Strategy) float64 {
	return k.TimePerPoint(MPE) / k.TimePerPoint(s)
}

// AchievedBandwidth returns the effective DMA bandwidth the strategy
// sustains for this kernel in GB/s (Fig. 7 bottom). For CMPR the paper
// plots the logical bandwidth fed to the CPEs (compressed bytes moved
// deliver twice the values).
func (k Kernel) AchievedBandwidth(s Strategy) float64 {
	bytes := k.bytesPerPoint()
	t := k.TimePerPoint(s)
	b := bytes
	if s == CMPR && !k.CompressLeaveRaw {
		b = bytes // logical; physical is half
	}
	return b / t / 1e9
}

// BandwidthUtilization is AchievedBandwidth relative to the 34 GB/s DDR3
// peak per CG.
func (k Kernel) BandwidthUtilization(s Strategy) float64 {
	return k.AchievedBandwidth(s) / sunway.CGMemBWGBs
}
