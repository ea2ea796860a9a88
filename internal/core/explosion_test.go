package core

import (
	"flag"
	"math"
	"testing"

	"swquake/internal/grid"
	"swquake/internal/model"
	"swquake/internal/seismo"
	"swquake/internal/source"
)

// fullExplosion also runs TestExplosionMatchesFullSpaceSolution at 100 m and
// checks the fitted order of accuracy (make check sets it: go test
// ./internal/core -run TestExplosionMatchesFullSpaceSolution -explosion.full).
var fullExplosion = flag.Bool("explosion.full", false, "run TestExplosionMatchesFullSpaceSolution at 100 m too")

// explosionMisfits runs an explosion at the centre of a 12.8 km homogeneous
// cube with grid spacing h through New -> Run (two workers, the recorder)
// and returns the RMS misfit of the radial velocity against the full-space
// solution at the u-nodes on the source's x-axis half a cell inside 2 km and
// 4 km.
//
// A moment-rate history ṁ(t) radiates, in a full space,
//
//	v_r(r, t) = [ṁ(τ)/r² + m̈(τ)/(α r)] / (4πρα²),  τ = t − r/α.
//
// The 2.3 s window ends before a wave reflected at the cube's faces or at
// its free surface reaches either receiver. Recorded sample n (0-based) is
// the velocity at t = n·dt: the step that records it injects the moment rate
// at n·dt into the stresses, which lead the velocities by half a step. The
// source sits at the stress node (i, j, k) and u at (i+½)h, so the node
// r/h − 1 out is r − h/2 away.
func explosionMisfits(t *testing.T, h float64) (r2, r4 float64) {
	t.Helper()
	const (
		side   = 12800.0
		window = 2.3
		f0, t0 = 2.0, 0.6
		m0     = 1e15
	)
	mat := model.Material{Vp: 4000, Vs: 2310, Rho: 2500}
	n := int(side / h)
	c := n / 2
	dt := 0.25 * h / mat.Vp
	stf := source.Ricker{F0: f0, T0: t0, M0: m0}
	near, far := c+int(2000/h)-1, c+int(4000/h)-1
	cfg := Config{
		Dims:    grid.Dims{Nx: n, Ny: n, Nz: n},
		Dx:      h,
		Dt:      dt,
		Steps:   int(math.Round(window / dt)),
		Model:   model.Homogeneous{M: mat},
		Sources: []source.PointSource{{I: c, J: c, K: c, M: source.Explosion(), S: stf}},
		Stations: []seismo.Station{
			{Name: "2km", I: near, J: c, K: c},
			{Name: "4km", I: far, J: c, K: c},
		},
		Tiles: 2,
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}

	alpha, rho := mat.Vp, mat.Rho
	misfit := func(name string, i int) float64 {
		r := (float64(i-c) + 0.5) * h
		var num, den float64
		for s, got := range res.Recorder.Trace(name).U {
			tau := float64(s)*dt - r/alpha
			a := math.Pi * f0 * (tau - t0)
			rate := stf.MomentRate(tau)
			accel := m0 * math.Pi * f0 * 2 * a * (2*a*a - 3) * math.Exp(-a*a)
			want := (rate/(r*r) + accel/(alpha*r)) / (4 * math.Pi * rho * alpha * alpha)
			d := float64(got) - want
			num += d * d
			den += want * want
		}
		return math.Sqrt(num / den)
	}
	return misfit("2km", near), misfit("4km", far)
}

// TestExplosionMatchesFullSpaceSolution holds the engine to a closed form:
// at 10 points per wavelength (h = 200 m at f0 = 2 Hz) the radial velocity
// is within 3.5 % RMS of the full-space solution at 2 km and 7.5 % at 4 km;
// with -explosion.full, at 20 points per wavelength within 0.35 / 0.7 %, and
// the misfit falls with h at a fitted order of at least 3 (the scheme is
// 4th order in space, 2nd in time, at a fixed Courant number).
func TestExplosionMatchesFullSpaceSolution(t *testing.T) {
	if testing.Short() {
		t.Skip("64³ points for 184 steps")
	}
	c2, c4 := explosionMisfits(t, 200)
	t.Logf("h = 200 m: RMS misfit %.2f %% at 2 km, %.2f %% at 4 km", 100*c2, 100*c4)
	if c2 > 0.035 || c4 > 0.075 {
		t.Errorf("h = 200 m: misfit %.2f / %.2f %%, want at most 3.5 / 7.5 %%", 100*c2, 100*c4)
	}
	if !*fullExplosion {
		return
	}
	f2, f4 := explosionMisfits(t, 100)
	t.Logf("h = 100 m: RMS misfit %.2f %% at 2 km, %.2f %% at 4 km", 100*f2, 100*f4)
	if f2 > 0.0035 || f4 > 0.007 {
		t.Errorf("h = 100 m: misfit %.2f / %.2f %%, want at most 0.35 / 0.7 %%", 100*f2, 100*f4)
	}
	for _, p := range [][2]float64{{c2, f2}, {c4, f4}} {
		order := math.Log2(p[0] / p[1])
		t.Logf("fitted order %.2f", order)
		if order < 3 {
			t.Errorf("fitted order %.2f from 200 m to 100 m, want at least 3", order)
		}
	}
}
