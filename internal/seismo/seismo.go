// Package seismo records and post-processes ground motion: station
// seismograms (the paper's Ninghe/Cangzhou traces in Figs. 6 and 11),
// surface snapshots, peak-ground-velocity fields, and the Chinese seismic
// intensity maps of Fig. 11e-f.
package seismo

import (
	"fmt"
	"math"

	"swquake/internal/fd"
)

// Station is a named surface receiver at grid indices (I, J) and depth
// index K (0 for the free surface).
type Station struct {
	Name    string
	I, J, K int
}

// Trace is a recorded three-component seismogram.
type Trace struct {
	Station Station
	Dt      float64
	U, V, W []float32 // velocity samples, m/s
}

// Recorder samples station velocities every solver step.
type Recorder struct {
	Traces []*Trace
}

// NewRecorder creates a recorder for the given stations, whose traces are
// sampled every solver step of length dt.
func NewRecorder(stations []Station, dt float64) *Recorder {
	r := &Recorder{}
	for _, s := range stations {
		r.Traces = append(r.Traces, &Trace{Station: s, Dt: dt})
	}
	return r
}

// Record samples the wavefield; call once per solver step.
func (r *Recorder) Record(wf *fd.Wavefield) {
	for _, tr := range r.Traces {
		s := tr.Station
		tr.U = append(tr.U, wf.U.At(s.I, s.J, s.K))
		tr.V = append(tr.V, wf.V.At(s.I, s.J, s.K))
		tr.W = append(tr.W, wf.W.At(s.I, s.J, s.K))
	}
}

// Trace returns the trace for the named station, or nil.
func (r *Recorder) Trace(name string) *Trace {
	for _, tr := range r.Traces {
		if tr.Station.Name == name {
			return tr
		}
	}
	return nil
}

// PeakVelocity returns the peak absolute horizontal velocity of the trace.
func (t *Trace) PeakVelocity() float64 {
	var m float64
	for i := range t.U {
		h := math.Hypot(float64(t.U[i]), float64(t.V[i]))
		if h > m {
			m = h
		}
	}
	return m
}

// RMSMisfit returns the root-mean-square difference between the horizontal
// components of two traces, normalized by the RMS of the reference t —
// the quantitative form of the paper's Fig. 6 visual comparison.
func (t *Trace) RMSMisfit(o *Trace) (float64, error) {
	if len(t.U) != len(o.U) {
		return 0, fmt.Errorf("seismo: trace lengths differ: %d vs %d", len(t.U), len(o.U))
	}
	var num, den float64
	for i := range t.U {
		du := float64(t.U[i] - o.U[i])
		dv := float64(t.V[i] - o.V[i])
		num += du*du + dv*dv
		den += float64(t.U[i])*float64(t.U[i]) + float64(t.V[i])*float64(t.V[i])
	}
	if den == 0 {
		if num == 0 {
			return 0, nil
		}
		return math.Inf(1), nil
	}
	return math.Sqrt(num / den), nil
}

// PGVField accumulates the running peak horizontal ground velocity at every
// surface point (the input to the hazard map).
type PGVField struct {
	Nx, Ny int
	K      int // depth index sampled, normally 0
	PGV    []float64
}

// NewPGVField creates a zeroed PGV accumulator for an nx x ny surface.
func NewPGVField(nx, ny, k int) *PGVField {
	return &PGVField{Nx: nx, Ny: ny, K: k, PGV: make([]float64, nx*ny)}
}

// UpdateCols folds the current surface velocities of the columns
// [i0,i1) x [j0,j1) into their peaks. Each column's peak depends on that
// column alone, so updating disjoint ranges in any order, or concurrently,
// gives the peaks of one update of their union.
func (p *PGVField) UpdateCols(wf *fd.Wavefield, i0, i1, j0, j1 int) {
	for i := i0; i < i1; i++ {
		for j := j0; j < j1; j++ {
			h := math.Hypot(float64(wf.U.At(i, j, p.K)), float64(wf.V.At(i, j, p.K)))
			if h > p.PGV[i*p.Ny+j] {
				p.PGV[i*p.Ny+j] = h
			}
		}
	}
}

// At returns the accumulated PGV at surface point (i, j).
func (p *PGVField) At(i, j int) float64 { return p.PGV[i*p.Ny+j] }

// Set stores v at surface point (i, j), encapsulating the row-major layout.
func (p *PGVField) Set(i, j int, v float64) { p.PGV[i*p.Ny+j] = v }

// Merge folds a sub-block accumulator into p at offset (offI, offJ),
// keeping the pointwise peak — how a parallel run reduces per-rank PGV
// blocks into the global field.
func (p *PGVField) Merge(o *PGVField, offI, offJ int) {
	for i := 0; i < o.Nx; i++ {
		for j := 0; j < o.Ny; j++ {
			if v := o.At(i, j); v > p.At(offI+i, offJ+j) {
				p.Set(offI+i, offJ+j, v)
			}
		}
	}
}

// Max returns the maximum PGV over the surface.
func (p *PGVField) Max() float64 {
	var m float64
	for _, v := range p.PGV {
		if v > m {
			m = v
		}
	}
	return m
}

// Intensity converts a PGV (m/s) to Chinese seismic intensity (GB/T 17742
// instrumental relation I = 3.00·lg(PGV) + 9.77, clamped to [1, 12]) — the
// scale of the paper's Fig. 11e-f hazard maps.
func Intensity(pgv float64) float64 {
	if pgv <= 0 {
		return 1
	}
	i := 3.0*math.Log10(pgv) + 9.77
	if i < 1 {
		return 1
	}
	if i > 12 {
		return 12
	}
	return i
}

// Snapshot extracts the horizontal velocity magnitude on a constant-depth
// plane (the wavefield snapshots of Fig. 11c-d).
func Snapshot(wf *fd.Wavefield, k int) [][]float64 {
	out := make([][]float64, wf.D.Nx)
	for i := range out {
		row := make([]float64, wf.D.Ny)
		for j := range row {
			row[j] = math.Hypot(float64(wf.U.At(i, j, k)), float64(wf.V.At(i, j, k)))
		}
		out[i] = row
	}
	return out
}
