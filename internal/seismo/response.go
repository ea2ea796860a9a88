package seismo

import "math"

// Response spectra. The paper motivates high-frequency simulation with
// engineering demand ("seismogram with efficient high frequency component
// is important data for engineering seismology analysis to design proper
// standards for the seismic protection of buildings"); the standard
// engineering product is the response spectrum: the peak response of a
// single-degree-of-freedom oscillator of period T and damping ratio zeta
// to the simulated ground motion.

// ResponseSpectrum holds spectral values per requested period.
type ResponseSpectrum struct {
	Periods []float64 // s
	SD      []float64 // peak relative displacement, m
	PSA     []float64 // pseudo-spectral acceleration = SD * (2*pi/T)^2, m/s^2
}

// GroundAcceleration differentiates a velocity series to acceleration.
func GroundAcceleration(vel []float32, dt float64) []float64 {
	if len(vel) < 2 || dt <= 0 {
		return nil
	}
	acc := make([]float64, len(vel))
	for i := 1; i < len(vel); i++ {
		acc[i] = (float64(vel[i]) - float64(vel[i-1])) / dt
	}
	acc[0] = acc[1]
	return acc
}

// NewmarkSDOF integrates a damped SDOF oscillator (natural period T,
// damping ratio zeta) under ground acceleration ag sampled at dt, using
// the average-acceleration Newmark scheme (unconditionally stable), and
// returns the peak |relative displacement|.
func NewmarkSDOF(ag []float64, dt, period, zeta float64) float64 {
	if len(ag) == 0 || dt <= 0 || period <= 0 {
		return 0
	}
	wn := 2 * math.Pi / period
	k := wn * wn       // stiffness per unit mass
	c := 2 * zeta * wn // damping per unit mass

	const (
		gamma = 0.5
		beta  = 0.25
	)
	// effective stiffness
	keff := k + gamma/(beta*dt)*c + 1/(beta*dt*dt)

	u, v, a := 0.0, 0.0, -ag[0]
	peak := 0.0
	for i := 1; i < len(ag); i++ {
		p := -ag[i]
		dp := p + (1/(beta*dt*dt)+gamma/(beta*dt)*c)*u +
			(1/(beta*dt)+(gamma/beta-1)*c)*v +
			((1/(2*beta)-1)+dt*(gamma/(2*beta)-1)*c)*a
		uNew := dp / keff
		vNew := gamma/(beta*dt)*(uNew-u) + (1-gamma/beta)*v + dt*(1-gamma/(2*beta))*a
		aNew := (uNew-u)/(beta*dt*dt) - v/(beta*dt) - (1/(2*beta)-1)*a
		u, v, a = uNew, vNew, aNew
		if math.Abs(u) > peak {
			peak = math.Abs(u)
		}
	}
	return peak
}

// ComputeResponseSpectrum evaluates the horizontal response spectrum of a
// trace at the given periods with damping ratio zeta (engineering default
// 0.05).
func (t *Trace) ComputeResponseSpectrum(periods []float64, zeta float64) ResponseSpectrum {
	// use the larger horizontal component's acceleration
	var comp []float32
	var pu, pv float64
	for i := range t.U {
		pu = math.Max(pu, math.Abs(float64(t.U[i])))
		pv = math.Max(pv, math.Abs(float64(t.V[i])))
	}
	if pu >= pv {
		comp = t.U
	} else {
		comp = t.V
	}
	ag := GroundAcceleration(comp, t.Dt)

	rs := ResponseSpectrum{Periods: periods}
	for _, T := range periods {
		sd := NewmarkSDOF(ag, t.Dt, T, zeta)
		w := 2 * math.Pi / T
		rs.SD = append(rs.SD, sd)
		rs.PSA = append(rs.PSA, sd*w*w)
	}
	return rs
}
