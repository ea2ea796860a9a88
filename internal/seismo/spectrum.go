package seismo

import "math"

// Spectrum is a one-sided amplitude spectrum of a seismogram component.
type Spectrum struct {
	Df  float64   // frequency bin width, Hz
	Amp []float64 // amplitude per bin, bins 0..N/2
}

// AmplitudeSpectrum computes the one-sided amplitude spectrum of the
// samples (plain O(n^2) DFT — traces are short; stdlib has no FFT). dt is
// the sampling interval.
func AmplitudeSpectrum(samples []float32, dt float64) Spectrum {
	n := len(samples)
	if n == 0 || dt <= 0 {
		return Spectrum{}
	}
	half := n/2 + 1
	amp := make([]float64, half)
	for k := 0; k < half; k++ {
		var re, im float64
		w := -2 * math.Pi * float64(k) / float64(n)
		for j, s := range samples {
			a := w * float64(j)
			re += float64(s) * math.Cos(a)
			im += float64(s) * math.Sin(a)
		}
		amp[k] = 2 * math.Hypot(re, im) / float64(n)
	}
	amp[0] /= 2 // DC is not doubled
	if n%2 == 0 {
		amp[half-1] /= 2 // neither is Nyquist
	}
	return Spectrum{Df: 1 / (dt * float64(n)), Amp: amp}
}

// EnergyAbove returns the fraction of (non-DC) spectral energy at
// frequencies >= f — the quantitative form of "the fine grid carries more
// high-frequency content" (paper Fig. 11a-b).
func (s Spectrum) EnergyAbove(f float64) float64 {
	var total, above float64
	for i := 1; i < len(s.Amp); i++ {
		e := s.Amp[i] * s.Amp[i]
		total += e
		if float64(i)*s.Df >= f {
			above += e
		}
	}
	if total == 0 {
		return 0
	}
	return above / total
}

// HorizontalSpectrum returns the amplitude spectrum of the trace's
// horizontal magnitude.
func (t *Trace) HorizontalSpectrum() Spectrum {
	h := make([]float32, len(t.U))
	for i := range t.U {
		h[i] = float32(math.Hypot(float64(t.U[i]), float64(t.V[i])))
	}
	return AmplitudeSpectrum(h, t.Dt)
}
