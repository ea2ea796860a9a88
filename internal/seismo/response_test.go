package seismo

import (
	"math"
	"testing"
)

func TestNewmarkResonance(t *testing.T) {
	// a harmonic ground acceleration at the oscillator's natural period
	// must excite a much larger response than one far off resonance
	dt := 0.005
	n := 4000
	period := 0.5
	makeAg := func(T float64) []float64 {
		ag := make([]float64, n)
		for i := range ag {
			ag[i] = math.Sin(2 * math.Pi / T * float64(i) * dt)
		}
		return ag
	}
	onRes := NewmarkSDOF(makeAg(period), dt, period, 0.05)
	offRes := NewmarkSDOF(makeAg(period/8), dt, period, 0.05)
	if onRes <= 4*offRes {
		t.Fatalf("resonance not captured: on %g vs off %g", onRes, offRes)
	}
}

func TestNewmarkDampingReducesResponse(t *testing.T) {
	dt := 0.005
	ag := make([]float64, 3000)
	for i := range ag {
		ag[i] = math.Sin(2 * math.Pi * 2 * float64(i) * dt)
	}
	light := NewmarkSDOF(ag, dt, 0.5, 0.02)
	heavy := NewmarkSDOF(ag, dt, 0.5, 0.20)
	if heavy >= light {
		t.Fatalf("damping must reduce response: %g vs %g", heavy, light)
	}
}

func TestNewmarkStaticLimit(t *testing.T) {
	// a very stiff (short-period) oscillator under constant acceleration
	// approaches the static deflection u = -ag/wn^2
	dt := 0.001
	ag := make([]float64, 5000)
	for i := range ag {
		ag[i] = 1.0
	}
	period := 0.05
	wn := 2 * math.Pi / period
	got := NewmarkSDOF(ag, dt, period, 0.7) // heavy damping kills transients
	want := 1.0 / (wn * wn)
	if math.Abs(got-want)/want > 0.25 {
		t.Fatalf("static deflection %g, want ~%g", got, want)
	}
}

func TestNewmarkDegenerate(t *testing.T) {
	if NewmarkSDOF(nil, 0.01, 1, 0.05) != 0 {
		t.Fatal("empty input")
	}
	if NewmarkSDOF([]float64{1}, 0, 1, 0.05) != 0 {
		t.Fatal("zero dt")
	}
	if NewmarkSDOF([]float64{1, 1}, 0.01, 0, 0.05) != 0 {
		t.Fatal("zero period")
	}
}

func TestGroundAcceleration(t *testing.T) {
	vel := []float32{0, 1, 3, 6}
	acc := GroundAcceleration(vel, 0.5)
	if len(acc) != 4 {
		t.Fatalf("len %d", len(acc))
	}
	if acc[1] != 2 || acc[2] != 4 || acc[3] != 6 {
		t.Fatalf("acc %v", acc)
	}
	if acc[0] != acc[1] {
		t.Fatal("first sample not extended")
	}
	if GroundAcceleration([]float32{1}, 0.5) != nil {
		t.Fatal("single sample accepted")
	}
}

func TestComputeResponseSpectrum(t *testing.T) {
	// a trace dominated by a 1 Hz sinusoid must peak near T = 1 s
	dt := 0.01
	n := 2000
	tr := &Trace{Dt: dt, U: make([]float32, n), V: make([]float32, n), W: make([]float32, n)}
	for i := range tr.U {
		tr.U[i] = float32(0.1 * math.Sin(2*math.Pi*1.0*float64(i)*dt))
	}
	periods := make([]float64, 30) // 0.1 - 5 s, log-spaced
	for i := range periods {
		periods[i] = 0.1 * math.Pow(50, float64(i)/29)
	}
	rs := tr.ComputeResponseSpectrum(periods, 0.05)
	if len(rs.PSA) != len(periods) {
		t.Fatal("length mismatch")
	}
	// find peak period
	best, bi := 0.0, 0
	for i, v := range rs.PSA {
		if v > best {
			best, bi = v, i
		}
	}
	if math.Abs(rs.Periods[bi]-1.0) > 0.25 {
		t.Fatalf("spectrum peaks at T=%g s, want ~1 s", rs.Periods[bi])
	}
	// SD and PSA are consistent: PSA = SD * wn^2
	for i := range rs.SD {
		w := 2 * math.Pi / rs.Periods[i]
		if math.Abs(rs.PSA[i]-rs.SD[i]*w*w) > 1e-12*math.Max(1, rs.PSA[i]) {
			t.Fatal("PSA/SD inconsistency")
		}
	}
}
