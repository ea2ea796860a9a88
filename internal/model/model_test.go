package model

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestMaterialLame(t *testing.T) {
	m := Material{Vp: 6000, Vs: 3464, Rho: 2700}
	lam, mu := m.Lame()
	if mu <= 0 || lam <= 0 {
		t.Fatalf("lam=%g mu=%g", lam, mu)
	}
	// reconstruct speeds
	vs := math.Sqrt(mu / m.Rho)
	vp := math.Sqrt((lam + 2*mu) / m.Rho)
	if math.Abs(vs-m.Vs) > 1e-9 || math.Abs(vp-m.Vp) > 1e-9 {
		t.Fatalf("speed reconstruction vp=%g vs=%g", vp, vs)
	}
}

func TestMaterialValid(t *testing.T) {
	if !(Material{Vp: 6000, Vs: 3000, Rho: 2700}).Valid() {
		t.Fatal("plausible material rejected")
	}
	if (Material{Vp: 3000, Vs: 3000, Rho: 2700}).Valid() {
		t.Fatal("Vp < sqrt2*Vs accepted (negative lambda)")
	}
	if (Material{Vp: 6000, Vs: 3000, Rho: -1}).Valid() {
		t.Fatal("negative density accepted")
	}
	// fluid (Vs=0) is allowed
	if !(Material{Vp: 1500, Vs: 0, Rho: 1000}).Valid() {
		t.Fatal("fluid rejected")
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, m := range []Material{
		{Vp: inf, Vs: 3000, Rho: 2700}, {Vp: 6000, Vs: 3000, Rho: inf}, {Vp: 1e200, Vs: inf, Rho: 2700},
		{Vp: 6000, Vs: 3000, Rho: nan}, {Vp: nan, Vs: 3000, Rho: 2700}, {Vp: 6000, Vs: nan, Rho: 2700},
	} {
		if m.Valid() {
			t.Errorf("non-finite material %v accepted", m)
		}
	}
}

func TestLayeredSample(t *testing.T) {
	l, err := NewLayered([]Layer{
		{Top: 0, M: Material{Vp: 4000, Vs: 2300, Rho: 2300}},
		{Top: 1000, M: Material{Vp: 6000, Vs: 3400, Rho: 2700}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Sample(0, 0, 500).Vp; got != 4000 {
		t.Fatalf("shallow Vp=%g", got)
	}
	if got := l.Sample(0, 0, 1000).Vp; got != 6000 {
		t.Fatalf("boundary Vp=%g (layer top is inclusive)", got)
	}
	if got := l.Sample(0, 0, 9e9).Vp; got != 6000 {
		t.Fatalf("deep Vp=%g", got)
	}
	// above the first layer top: clamp to first layer
	if got := l.Sample(0, 0, -5).Vp; got != 4000 {
		t.Fatalf("above-surface Vp=%g", got)
	}
}

func TestNewLayeredValidation(t *testing.T) {
	if _, err := NewLayered(nil); err == nil {
		t.Fatal("empty layer list accepted")
	}
	if _, err := NewLayered([]Layer{
		{Top: 0, M: Material{Vp: 4000, Vs: 2300, Rho: 2300}},
		{Top: 0, M: Material{Vp: 6000, Vs: 3400, Rho: 2700}},
	}); err == nil {
		t.Fatal("non-increasing tops accepted")
	}
	if _, err := NewLayered([]Layer{{Top: 0, M: Material{Vp: 1, Vs: 1, Rho: 1}}}); err == nil {
		t.Fatal("invalid material accepted")
	}
}

func TestBasinDepthAndSample(t *testing.T) {
	b := &Basin{
		Background: Homogeneous{Material{Vp: 6000, Vs: 3400, Rho: 2700}},
		Sediment:   Material{Vp: 1800, Vs: 600, Rho: 2000},
		Bowls:      []Bowl{{CX: 0, CY: 0, RadiusX: 1000, RadiusY: 1000, MaxDepth: 800}},
	}
	if d := b.Depth(0, 0); d != 800 {
		t.Fatalf("center depth %g", d)
	}
	if d := b.Depth(10000, 0); d > 1 {
		t.Fatalf("far depth %g not ~0", d)
	}
	if got := b.Sample(0, 0, 100).Vs; got != 600 {
		t.Fatalf("inside basin Vs=%g", got)
	}
	if got := b.Sample(0, 0, 900).Vs; got != 3400 {
		t.Fatalf("below basin Vs=%g", got)
	}
	if got := b.Sample(50000, 50000, 100).Vs; got != 3400 {
		t.Fatalf("outside basin Vs=%g", got)
	}
}

func TestBasinGrading(t *testing.T) {
	b := &Basin{
		Background: Homogeneous{Material{Vp: 6000, Vs: 3400, Rho: 2700}},
		Sediment:   Material{Vp: 1800, Vs: 600, Rho: 2000},
		GradeDepth: 0.5,
		Bowls:      []Bowl{{CX: 0, CY: 0, RadiusX: 1000, RadiusY: 1000, MaxDepth: 800}},
	}
	top := b.Sample(0, 0, 100).Vs  // pure sediment zone
	mid := b.Sample(0, 0, 600).Vs  // inside grade zone
	deep := b.Sample(0, 0, 790).Vs // nearly at floor
	if top != 600 {
		t.Fatalf("top Vs=%g", top)
	}
	if !(mid > top && mid < 3400) {
		t.Fatalf("grade zone Vs=%g not between sediment and rock", mid)
	}
	if !(deep > mid) {
		t.Fatalf("Vs must increase toward floor: %g vs %g", deep, mid)
	}
}

func TestGridModelInterpolation(t *testing.T) {
	// a model linear in x, y and z must be reproduced by trilinear interp,
	// each axis with its own weight
	lin := modelFunc(func(x, y, z float64) Material {
		return Material{Vp: 4000 + z + x/100, Vs: 2000 + z/2 + y/25, Rho: 2500 + x/50 - y/80}
	})
	g := NewGridModel(lin, 4, 4, 11, 1000, 1000, 100)
	for _, p := range [][3]float64{{500, 500, 0}, {1234, 2345, 50}, {2900, 120, 123}, {10, 2990, 999}} {
		got, want := g.Sample(p[0], p[1], p[2]), lin(p[0], p[1], p[2])
		if math.Abs(got.Vp-want.Vp) > 1e-9 || math.Abs(got.Vs-want.Vs) > 1e-9 || math.Abs(got.Rho-want.Rho) > 1e-9 {
			t.Fatalf("at %v: %v, want %v", p, got, want)
		}
	}
	// clamping beyond extent
	if got := g.Sample(0, 0, 1e9).Vp; got != 4000+1000 {
		t.Fatalf("clamp high Vp=%g", got)
	}
	if got := g.Sample(-5, -5, -5).Vp; got != 4000 {
		t.Fatalf("clamp low Vp=%g", got)
	}
}

type modelFunc func(x, y, z float64) Material

func (f modelFunc) Sample(x, y, z float64) Material { return f(x, y, z) }

func TestGridModelMinMax(t *testing.T) {
	g := NewGridModel(TangshanBasin(), 16, 16, 8, TangshanLX/15, TangshanLY/15, TangshanLZ/7)
	if g.MinVs() > 600 {
		t.Fatalf("MinVs %g should catch the sediment", g.MinVs())
	}
	if g.MaxVp() < 7000 {
		t.Fatalf("MaxVp %g should catch the mantle", g.MaxVp())
	}
}

func TestCFLAndSpacingRules(t *testing.T) {
	dt := CFLTimeStep(100, 8000)
	if dt <= 0 || dt > 100.0/8000 {
		t.Fatalf("CFL dt=%g", dt)
	}
}

func TestTangshanModels(t *testing.T) {
	crust := TangshanCrust()
	if v := crust.Sample(0, 0, 35e3).Vp; v != 7800 {
		t.Fatalf("mantle Vp=%g", v)
	}
	b := TangshanBasin()
	// basin center should be sediment at shallow depth
	m := b.Sample(0.55*TangshanLX, 0.45*TangshanLY, 50)
	if m.Vs != 600 {
		t.Fatalf("basin center Vs=%g", m.Vs)
	}
	// domain corner should be rock
	if b.Sample(0, 0, 50).Vs < 2000 {
		t.Fatal("corner should be rock")
	}
}

func TestScaledTangshanPreservesStructure(t *testing.T) {
	s := ScaledTangshan(32e3, 31.2e3, 4e3)
	// basin still under mid-domain with scaled max depth 80 m
	d := s.Depth(0.55*32e3, 0.45*31.2e3)
	if math.Abs(d-80) > 1 {
		t.Fatalf("scaled basin depth %g want ~80", d)
	}
	// sediment present at 10 m depth at basin center
	if s.Sample(0.55*32e3, 0.45*31.2e3, 10).Vs != 600 {
		t.Fatal("scaled basin lost sediment")
	}
	// layer boundaries scaled: mantle at 3000 m (30 km * 0.1)
	if s.Background.Sample(0, 0, 3500).Vp != 7800 {
		t.Fatal("scaled crust layers wrong")
	}
}

func TestQuickBasinDepthNonNegativeBounded(t *testing.T) {
	b := TangshanBasin()
	fn := func(x, y float64) bool {
		x = math.Mod(math.Abs(x), TangshanLX)
		y = math.Mod(math.Abs(y), TangshanLY)
		d := b.Depth(x, y)
		return d >= 0 && d <= 800
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLayeredMonotoneDepthLookup(t *testing.T) {
	l := TangshanCrust()
	fn := func(z1, z2 float64) bool {
		z1 = math.Mod(math.Abs(z1), 40e3)
		z2 = math.Mod(math.Abs(z2), 40e3)
		if z1 > z2 {
			z1, z2 = z2, z1
		}
		// Vp never decreases with depth in this crust
		return l.Sample(0, 0, z1).Vp <= l.Sample(0, 0, z2).Vp
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSampleColumnMatchesPointSampling: SampleColumn returns, depth for
// depth and bit for bit, what Sample returns — through each model's own
// column path (Layered, Basin, GridModel, Heterogeneous over a Basin) — at
// columns inside, on the rim of and outside the basin, repeated depths
// included.
func TestSampleColumnMatchesPointSampling(t *testing.T) {
	const lx, ly, lz = 16e3, 15e3, 10e3
	basin := ScaledTangshan(lx, ly, lz)
	models := map[string]Model{
		"layered":       basin.Background,
		"basin":         basin,
		"heterogeneous": NewHeterogeneous(basin, 0.05, 900, lx, ly, lz, 7),
		"grid":          NewGridModel(basin, 9, 8, 12, lx/8, ly/7, lz/11),
	}
	zs := []float64{0, 0, 0, 10, 55, 120, 160, 199, 200, 260, 1e3, 3e3, 9.9e3, 9.9e3}
	for name, m := range models {
		if _, ok := m.(ColumnSampler); !ok {
			t.Fatalf("%s has no column path", name)
		}
		for _, x := range []float64{-500, 0, 0.35 * lx, 0.55 * lx, lx + 500} {
			for _, y := range []float64{-500, 0.25 * ly, 0.45 * ly, ly} {
				checkColumn(t, name, m, x, y, zs)
			}
		}
	}
	// the test is void if no column crosses sediment, grading and bedrock
	out := make([]Material, len(zs))
	SampleColumn(basin, 0.55*lx, 0.45*ly, zs, out)
	if out[0] != basin.Sediment || out[len(out)-1] == basin.Sediment {
		t.Fatalf("the basin-centre column does not cross the basin floor: %v ... %v", out[0], out[len(out)-1])
	}
}

// TestColumnPathsMatchPointSamplingOnRandomModels: on seeded random models
// the column paths hold Sample's bits — layer tops, basin floors and lattice
// levels exactly at sample depths, floors graded and not, layered models
// built by hand with their tops in any order, a lattice sampled from each
// model, and the heterogeneous perturbation over each of them and over a
// Homogeneous base (the quickstart job's composition) — for depths repeated,
// descending, negative and past the model's extent.
func TestColumnPathsMatchPointSamplingOnRandomModels(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	mat := func() Material {
		vs := 100 + 4000*rng.Float64()
		return Material{Vp: vs * (1.5 + rng.Float64()), Vs: vs, Rho: 1500 + 2000*rng.Float64()}
	}
	const lx, ly, lz = 8e3, 6e3, 4e3
	for trial := 0; trial < 60; trial++ {
		// depths every column is sampled at, besides its own basin floor
		depths := []float64{0, -50, -1e-9, lz, 2 * lz, 1e12}
		for range 6 {
			depths = append(depths, lz*rng.Float64())
		}

		layers := make([]Layer, 1+rng.Intn(5))
		top := 200 * (rng.Float64() - 0.5)
		for i := range layers {
			layers[i] = Layer{Top: top, M: mat()}
			depths = append(depths, top)
			top += lz / 2 * rng.Float64()
		}
		layered, err := NewLayered(layers)
		if err != nil {
			t.Fatal(err)
		}
		var byHand Layered
		for _, i := range rng.Perm(len(layers)) {
			byHand.Layers = append(byHand.Layers, layers[i])
		}

		basin := &Basin{Background: layered, Sediment: mat()}
		if trial%2 == 1 {
			basin.Background = Homogeneous{mat()}
		}
		if trial%3 != 0 {
			basin.GradeDepth = rng.Float64()
		}
		for range 1 + rng.Intn(3) {
			basin.Bowls = append(basin.Bowls, Bowl{CX: lx * rng.Float64(), CY: ly * rng.Float64(),
				RadiusX: lx * (0.05 + rng.Float64()/2), RadiusY: ly * (0.05 + rng.Float64()/2),
				MaxDepth: lz / 3 * rng.Float64()})
		}

		nx, ny, nz := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(8)
		dz := lz / float64(max(nz-1, 1))
		lattice := NewGridModel(basin, nx, ny, nz, lx/float64(max(nx-1, 1)), ly/float64(max(ny-1, 1)), dz)
		for k := range nz + 1 {
			depths = append(depths, float64(k)*dz)
		}

		models := map[string]Model{"layered": layered, "layered by hand": &byHand, "basin": basin, "grid": lattice}
		corrLen := lz / float64(1+rng.Intn(4))
		for name, base := range map[string]Model{"homogeneous": Homogeneous{mat()}, "layered": layered, "basin": basin, "grid": lattice} {
			models["heterogeneous over "+name] = NewHeterogeneous(base, 0.05, corrLen, lx, ly, lz, int64(trial))
		}
		for k := range int(lz/corrLen) + 3 {
			depths = append(depths, float64(k)*corrLen)
		}

		columns := [][2]float64{{-lx / 3, ly / 2}, {1.5 * lx, -ly}, {basin.Bowls[0].CX, basin.Bowls[0].CY},
			{lx * rng.Float64(), ly * rng.Float64()}, {lx * rng.Float64(), ly * rng.Float64()}}
		for _, c := range columns {
			x, y := c[0], c[1]
			floor := basin.Depth(x, y)
			set := append(slices.Clone(depths), floor, math.Nextafter(floor, 0), math.Nextafter(floor, math.Inf(1)))
			asc := slices.Clone(set)
			slices.Sort(asc)
			desc := slices.Clone(asc)
			slices.Reverse(desc)
			zs := slices.Concat(asc, desc, set, []float64{floor, floor, 0, 0})
			rng.Shuffle(len(set), func(a, b int) { set[a], set[b] = set[b], set[a] })
			zs = append(zs, set...)
			for name, m := range models {
				checkColumn(t, fmt.Sprintf("trial %d: %s", trial, name), m, x, y, zs)
			}
		}
	}
}

// checkColumn fails t unless m's column at (x, y) holds, bit for bit, what
// Sample returns at each of zs.
func checkColumn(t *testing.T, name string, m Model, x, y float64, zs []float64) {
	t.Helper()
	out := make([]Material, len(zs))
	SampleColumn(m, x, y, zs, out)
	for k, z := range zs {
		if want := m.Sample(x, y, z); !sameBits(out[k], want) {
			t.Fatalf("%s at (%g,%g,%g), depth %d of the column: column %v, point %v", name, x, y, z, k, out[k], want)
		}
	}
}

func sameBits(a, b Material) bool {
	return math.Float64bits(a.Vp) == math.Float64bits(b.Vp) &&
		math.Float64bits(a.Vs) == math.Float64bits(b.Vs) &&
		math.Float64bits(a.Rho) == math.Float64bits(b.Rho)
}

// TestModelsSampleFromManyGoroutines: every model of the package gives
// several goroutines sampling it at once — by point and by column, as fd's
// set-up slabs do — exactly what one goroutine gets from an equal model; a
// new Heterogeneous's goroutines race to build its lattice. `make check`
// runs it under the race detector.
func TestModelsSampleFromManyGoroutines(t *testing.T) {
	const lx, ly, lz = 20e3, 16e3, 6e3
	models := map[string]func() Model{
		"layered":     func() Model { return TangshanCrust() },
		"basin":       func() Model { return ScaledTangshan(lx, ly, lz) },
		"homogeneous": func() Model { return Homogeneous{Material{Vp: 4000, Vs: 2310, Rho: 2500}} },
		"grid":        func() Model { return NewGridModel(ScaledTangshan(lx, ly, lz), 9, 8, 7, lx/8, ly/7, lz/6) },
		"heterogeneous": func() Model {
			return NewHeterogeneous(ScaledTangshan(lx, ly, lz), 0.05, 800, lx, ly, lz, 7)
		},
	}
	zs := make([]float64, 40)
	for k := range zs {
		zs[k] = float64(k) * lz / 39
	}
	// columns inside, on the edge of and beyond the domain
	var xy [][2]float64
	for i := -1; i <= 9; i++ {
		for j := -1; j <= 9; j++ {
			xy = append(xy, [2]float64{float64(i) * lx / 8, float64(j) * ly / 8})
		}
	}
	const goroutines = 4
	for name, mk := range models {
		ref := mk()
		want := make([][]Material, len(xy))
		for c, p := range xy {
			want[c] = make([]Material, len(zs))
			SampleColumn(ref, p[0], p[1], zs, want[c])
		}
		m := mk()
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			go func() {
				col := make([]Material, len(zs))
				for n := range xy {
					c := (n + g*len(xy)/goroutines) % len(xy) // each starts elsewhere
					p := xy[c]
					SampleColumn(m, p[0], p[1], zs, col)
					for k, z := range zs {
						if col[k] != want[c][k] || m.Sample(p[0], p[1], z) != want[c][k] {
							errs <- fmt.Errorf("%s: goroutine %d at (%g, %g, %g): column %v, point %v, want %v",
								name, g, p[0], p[1], z, col[k], m.Sample(p[0], p[1], z), want[c][k])
							return
						}
					}
				}
				errs <- nil
			}()
		}
		for g := 0; g < goroutines; g++ {
			if err := <-errs; err != nil {
				t.Error(err)
			}
		}
	}
}
