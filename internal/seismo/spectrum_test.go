package seismo

import (
	"math"
	"testing"
)

func sine(f, dt float64, n int, amp float64) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(amp * math.Sin(2*math.Pi*f*float64(i)*dt))
	}
	return out
}

func TestAmplitudeSpectrumPureTone(t *testing.T) {
	// 5 Hz tone sampled at 100 Hz for 2 s: bin 10 of 200 samples
	dt := 0.01
	s := AmplitudeSpectrum(sine(5, dt, 200, 3), dt)
	if math.Abs(s.Df-0.5) > 1e-12 {
		t.Fatalf("df = %g", s.Df)
	}
	// the tone bin dominates, with the amplitude recovered
	bin := int(5 / s.Df)
	for i := 1; i < len(s.Amp); i++ {
		if i != bin && s.Amp[i] >= s.Amp[bin] {
			t.Fatalf("bin %d (%g Hz) holds %g, the 5 Hz bin %g", i, float64(i)*s.Df, s.Amp[i], s.Amp[bin])
		}
	}
	if math.Abs(s.Amp[bin]-3) > 0.05 {
		t.Fatalf("amplitude %g, want 3", s.Amp[bin])
	}
	if top := float64(len(s.Amp)-1) * s.Df; top != 50 {
		t.Fatalf("highest frequency %g, want the Nyquist 50", top)
	}
}

func TestSpectrumDCHandling(t *testing.T) {
	samples := make([]float32, 100)
	for i := range samples {
		samples[i] = 7
	}
	s := AmplitudeSpectrum(samples, 0.01)
	if math.Abs(s.Amp[0]-7) > 1e-9 {
		t.Fatalf("DC amplitude %g, want 7", s.Amp[0])
	}
	for i := 1; i < len(s.Amp); i++ {
		if s.Amp[i] > 1e-9 {
			t.Fatalf("constant signal leaked into bin %d: %g", i, s.Amp[i])
		}
	}
}

func TestSpectrumEmptyAndDegenerate(t *testing.T) {
	s := AmplitudeSpectrum(nil, 0.01)
	if len(s.Amp) != 0 {
		t.Fatal("empty input must produce empty spectrum")
	}
	if AmplitudeSpectrum([]float32{1, 2}, 0).Amp != nil {
		t.Fatal("zero dt must produce empty spectrum")
	}
}

func TestEnergyAbove(t *testing.T) {
	dt := 0.01
	lo := sine(2, dt, 400, 1)
	hi := sine(20, dt, 400, 1)
	mixed := make([]float32, 400)
	for i := range mixed {
		mixed[i] = lo[i] + hi[i]
	}
	s := AmplitudeSpectrum(mixed, dt)
	frac := s.EnergyAbove(10)
	if math.Abs(frac-0.5) > 0.05 {
		t.Fatalf("equal-amplitude tones: high-frequency fraction %g, want ~0.5", frac)
	}
	if s.EnergyAbove(0.1) < 0.99 {
		t.Fatal("everything is above 0.1 Hz")
	}
	if s.EnergyAbove(45) > 0.01 {
		t.Fatal("nothing lives near Nyquist")
	}
}

func TestHorizontalSpectrum(t *testing.T) {
	tr := &Trace{Dt: 0.01, U: sine(4, 0.01, 200, 1), V: make([]float32, 200), W: sine(30, 0.01, 200, 9)}
	s := tr.HorizontalSpectrum()
	// |sin| rectifies to DC + 8 Hz harmonic; the 30 Hz vertical must not leak
	if s.EnergyAbove(25) > 0.05 {
		t.Fatal("vertical component leaked into horizontal spectrum")
	}
}

func TestParsevalApproximately(t *testing.T) {
	// total spectral energy tracks time-domain energy (one-sided scaling)
	dt := 0.02
	x := sine(3, dt, 128, 2)
	s := AmplitudeSpectrum(x, dt)
	var td float64
	for _, v := range x {
		td += float64(v) * float64(v)
	}
	td /= float64(len(x))
	var fd float64
	for i, a := range s.Amp {
		e := a * a / 2
		if i == 0 || (len(x)%2 == 0 && i == len(s.Amp)-1) {
			e = a * a
		}
		fd += e
	}
	if math.Abs(td-fd)/td > 0.02 {
		t.Fatalf("parseval mismatch: time %g vs freq %g", td, fd)
	}
}
