// Package rupture is the dynamic rupture source generator of the framework
// (paper Fig. 3, based on CG-FDM): it initializes stress on a (possibly
// non-planar) fault, controls a slip-weakening friction law, and solves the
// wave equation to propagate a spontaneous rupture, recording per-cell
// slip-rate time functions that drive the subsequent ground-motion run.
//
// The fault condition is the traction-bounded stress-glut method: fault
// cells carry an initial shear load τ0 and normal stress σn; after each
// elastic stress update the total shear traction is capped at the
// slip-weakening strength
//
//	τ_s(D) = (μs - (μs-μd)·min(D,Dc)/Dc) · σn,
//
// and the excess is converted to slip rate through the S-wave radiation
// impedance Z = ρVs/2. Capping the stress radiates the stress drop into the
// medium, which loads neighbouring cells and propagates the rupture — the
// same feedback loop as split-node methods, at lower implementation
// complexity. Rupture is nucleated by overstressing a patch around the
// hypocentre (the standard SCEC benchmark recipe).
package rupture

import (
	"fmt"
	"math"

	"swquake/internal/fd"
	"swquake/internal/grid"
	"swquake/internal/source"
)

// Config describes the fault and friction parameters.
type Config struct {
	// Fault extent: along-strike cells [I0,I1), depth cells [K0,K1).
	I0, I1, K0, K1 int
	// Trace returns the fault-normal grid index j for strike position i,
	// allowing non-planar (curved/echelon) geometry like the Tangshan fault.
	Trace func(i int) int

	// Friction: static and dynamic coefficients and slip-weakening distance.
	MuS, MuD, Dc float64

	// Initial stresses (Pa): shear load Tau0 and effective normal stress
	// SigmaN, optionally varying over the fault.
	Tau0   func(i, k int) float64
	SigmaN func(i, k int) float64

	// Nucleation patch: hypocentre cell, radius in cells, and overstress
	// factor applied to Tau0 inside the patch (>1 starts slip immediately).
	HypoI, HypoK int
	NucRadius    int
	NucOver      float64
}

// Validate checks the configuration against the grid.
func (c *Config) Validate(d grid.Dims) error {
	if c.I0 < 0 || c.I1 > d.Nx || c.I0 >= c.I1 {
		return fmt.Errorf("rupture: strike extent [%d,%d) outside grid", c.I0, c.I1)
	}
	if c.K0 < 0 || c.K1 > d.Nz || c.K0 >= c.K1 {
		return fmt.Errorf("rupture: depth extent [%d,%d) outside grid", c.K0, c.K1)
	}
	if c.Trace == nil || c.Tau0 == nil || c.SigmaN == nil {
		return fmt.Errorf("rupture: Trace, Tau0 and SigmaN are required")
	}
	for i := c.I0; i < c.I1; i++ {
		if j := c.Trace(i); j < 1 || j >= d.Ny-1 {
			return fmt.Errorf("rupture: trace j=%d at i=%d outside grid", j, i)
		}
	}
	if !(c.MuS > c.MuD) || c.Dc <= 0 {
		return fmt.Errorf("rupture: friction needs MuS > MuD and Dc > 0")
	}
	for i := c.I0; i < c.I1; i++ {
		for k := c.K0; k < c.K1; k++ {
			if c.SigmaN(i, k) <= 0 {
				return fmt.Errorf("rupture: non-positive normal stress at (%d,%d)", i, k)
			}
			if c.Tau0(i, k) < 0 {
				return fmt.Errorf("rupture: negative shear load at (%d,%d)", i, k)
			}
		}
	}
	if c.HypoI < c.I0 || c.HypoI >= c.I1 || c.HypoK < c.K0 || c.HypoK >= c.K1 {
		return fmt.Errorf("rupture: hypocentre outside fault")
	}
	if c.NucOver <= 1 {
		return fmt.Errorf("rupture: nucleation overstress must exceed 1")
	}
	return nil
}

// Result holds the rupture history.
type Result struct {
	Cfg   Config
	Dt    float64
	Dx    float64
	Steps int

	// per-cell series indexed [si*nk + sk] with si = i-I0, sk = k-K0
	SlipRate [][]float64
	// FinalSlip is the accumulated slip per cell (m).
	FinalSlip []float64
	// RuptureTime is the first time each cell slips, or -1 if it never did.
	RuptureTime []float64
}

func (r *Result) nk() int { return r.Cfg.K1 - r.Cfg.K0 }

// Cell returns the per-cell index for fault coordinates (i, k).
func (r *Result) Cell(i, k int) int { return (i-r.Cfg.I0)*r.nk() + (k - r.Cfg.K0) }

// Simulate runs the dynamic rupture for the given number of steps on a
// fresh wavefield over medium med with grid spacing dx and time step dt.
func Simulate(cfg Config, med *fd.Medium, dx, dt float64, steps int) (*Result, error) {
	d := med.D
	if err := cfg.Validate(d); err != nil {
		return nil, err
	}
	ncells := (cfg.I1 - cfg.I0) * (cfg.K1 - cfg.K0)
	res := &Result{
		Cfg: cfg, Dt: dt, Dx: dx, Steps: steps,
		SlipRate:    make([][]float64, ncells),
		FinalSlip:   make([]float64, ncells),
		RuptureTime: make([]float64, ncells),
	}
	for c := range res.SlipRate {
		res.SlipRate[c] = make([]float64, steps)
		res.RuptureTime[c] = -1
	}

	wf := fd.NewWavefield(d)
	dtdx := float32(dt / dx)

	// effective initial shear per cell (with nucleation overstress)
	tau0 := make([]float64, ncells)
	for i := cfg.I0; i < cfg.I1; i++ {
		for k := cfg.K0; k < cfg.K1; k++ {
			c := res.Cell(i, k)
			t0 := cfg.Tau0(i, k)
			di, dk := i-cfg.HypoI, k-cfg.HypoK
			if di*di+dk*dk <= cfg.NucRadius*cfg.NucRadius {
				t0 *= cfg.NucOver
			}
			tau0[c] = t0
		}
	}

	for n := 0; n < steps; n++ {
		fd.ApplyFreeSurface(wf)
		fd.UpdateVelocity(wf, med, dtdx, 0, d.Nz)
		fd.ApplyFreeSurface(wf)
		fd.UpdateStress(wf, med, dtdx, 0, d.Nz)

		// fault condition
		for i := cfg.I0; i < cfg.I1; i++ {
			j := cfg.Trace(i)
			for k := cfg.K0; k < cfg.K1; k++ {
				c := res.Cell(i, k)
				tau := float64(wf.XY.At(i, j, k)) + tau0[c]
				sn := cfg.SigmaN(i, k)
				strength := frictionMu(cfg, res.FinalSlip[c]) * sn
				if tau <= strength {
					continue
				}
				// radiate the excess: cap the traction, convert to slip rate
				rho := float64(med.Rho.At(i, j, k))
				mu := float64(med.Mu.At(i, j, k))
				vs := math.Sqrt(mu / rho)
				z := rho * vs / 2
				excess := tau - strength
				v := excess / z
				wf.XY.Set(i, j, k, float32(strength-tau0[c]))
				res.SlipRate[c][n] = v
				res.FinalSlip[c] += v * dt
				if res.RuptureTime[c] < 0 {
					res.RuptureTime[c] = float64(n) * dt
				}
			}
		}
	}
	return res, nil
}

// frictionMu evaluates the linear slip-weakening friction coefficient.
func frictionMu(cfg Config, slip float64) float64 {
	w := slip / cfg.Dc
	if w > 1 {
		w = 1
	}
	return cfg.MuS - (cfg.MuS-cfg.MuD)*w
}

// MaxFinalSlip returns the largest slip on the fault.
func (r *Result) MaxFinalSlip() float64 {
	var m float64
	for _, s := range r.FinalSlip {
		if s > m {
			m = s
		}
	}
	return m
}

// RupturedFraction returns the fraction of fault cells that slipped.
func (r *Result) RupturedFraction() float64 {
	n := 0
	for _, t := range r.RuptureTime {
		if t >= 0 {
			n++
		}
	}
	return float64(n) / float64(len(r.RuptureTime))
}

// RuptureSpeed estimates the average along-strike rupture speed from the
// hypocentre to the given strike cell (m/s), or 0 if it never ruptured.
func (r *Result) RuptureSpeed(i int) float64 {
	c := r.Cell(i, r.Cfg.HypoK)
	t := r.RuptureTime[c]
	if t <= 0 {
		return 0
	}
	dist := math.Abs(float64(i-r.Cfg.HypoI)) * r.Dx
	return dist / t
}

// SlipRateSnapshot returns |slip rate| over the fault at one time step —
// the paper's Fig. 10b view.
func (r *Result) SlipRateSnapshot(step int) [][]float64 {
	ni, nk := r.Cfg.I1-r.Cfg.I0, r.nk()
	out := make([][]float64, ni)
	for si := 0; si < ni; si++ {
		row := make([]float64, nk)
		for sk := 0; sk < nk; sk++ {
			row[sk] = r.SlipRate[si*nk+sk][step]
		}
		out[si] = row
	}
	return out
}

// SeismicMoment returns the scalar moment M0 = Σ μ·A·D over the fault.
func (r *Result) SeismicMoment(med *fd.Medium) float64 {
	var m0 float64
	area := r.Dx * r.Dx
	for i := r.Cfg.I0; i < r.Cfg.I1; i++ {
		j := r.Cfg.Trace(i)
		for k := r.Cfg.K0; k < r.Cfg.K1; k++ {
			mu := float64(med.Mu.At(i, j, k))
			m0 += mu * area * r.FinalSlip[r.Cell(i, k)]
		}
	}
	return m0
}

// SourcesOnGrid converts the rupture history into point sources placed on
// a DIFFERENT target grid (spacing targetDx, dims targetDims): the usual
// pipeline runs the rupture on a fine local grid around the fault and
// injects the sources into a coarser regional ground-motion mesh. Fault
// cells are mapped by physical position, with the fault plane centred on
// the target's y mid-plane and aligned to the scaled strike extent; cells
// mapping outside the target grid are dropped, and their moment with them.
func (r *Result) SourcesOnGrid(med *fd.Medium, decimate int, targetDims grid.Dims, targetDx float64) []source.PointSource {
	srcs := r.Sources(med, decimate)
	// scale strike positions into the target's fault span and depth
	// proportionally; the rupture grid's fault occupies [I0, I1) x [K0, K1)
	span := float64(r.Cfg.I1 - r.Cfg.I0)
	depthSpan := float64(r.Cfg.K1 - r.Cfg.K0)
	tI0 := float64(targetDims.Nx) * 0.25
	tI1 := float64(targetDims.Nx) * 0.70
	tK0 := 1.0
	tK1 := float64(targetDims.Nz) * 2.0 / 3.0
	out := srcs[:0]
	for _, s := range srcs {
		fi := (float64(s.I-r.Cfg.I0) / span) * (tI1 - tI0)
		fk := (float64(s.K-r.Cfg.K0) / depthSpan) * (tK1 - tK0)
		s.I = int(tI0 + fi)
		s.J = targetDims.Ny / 2
		s.K = int(tK0 + fk)
		if s.I < 0 || s.I >= targetDims.Nx || s.K < 0 || s.K >= targetDims.Nz {
			continue
		}
		out = append(out, s)
	}
	return out
}

// Sources converts the rupture history into moment-rate point sources for
// the ground-motion solver: each fault cell becomes a strike-slip point
// source with a tabulated STF ṁ(t) = μ·A·V(t). Cells that never slipped are
// omitted. decimate > 1 keeps every decimate-th cell (scaling moment to
// compensate) to bound the source count for large faults.
func (r *Result) Sources(med *fd.Medium, decimate int) []source.PointSource {
	if decimate < 1 {
		decimate = 1
	}
	area := r.Dx * r.Dx * float64(decimate*decimate)
	var out []source.PointSource
	for i := r.Cfg.I0; i < r.Cfg.I1; i += decimate {
		j := r.Cfg.Trace(i)
		for k := r.Cfg.K0; k < r.Cfg.K1; k += decimate {
			c := r.Cell(i, k)
			if r.RuptureTime[c] < 0 {
				continue
			}
			mu := float64(med.Mu.At(i, j, k))
			rates := make([]float64, len(r.SlipRate[c]))
			for n, v := range r.SlipRate[c] {
				rates[n] = mu * area * v
			}
			out = append(out, source.PointSource{
				I: i, J: j, K: k,
				M: source.StrikeSlipXY(),
				S: source.Sampled{Dt: r.Dt, Rates: rates},
			})
		}
	}
	return out
}
