package model

import (
	"math"
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
	// a linear-in-z model must be reproduced exactly by trilinear interp
	lin := modelFunc(func(x, y, z float64) Material {
		return Material{Vp: 4000 + z, Vs: 2000 + z/2, Rho: 2500}
	})
	g := NewGridModel(lin, 4, 4, 11, 1000, 1000, 100)
	for _, z := range []float64{0, 50, 123, 999} {
		got := g.Sample(500, 500, z)
		if math.Abs(got.Vp-(4000+z)) > 1e-9 {
			t.Fatalf("z=%g: Vp=%g want %g", z, got.Vp, 4000+z)
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
// depth and bit for bit, what Sample returns — through a model's own column
// path (Basin, Heterogeneous over a Basin) and through the point-by-point
// fallback (Layered, GridModel) — at columns inside, on the rim of and
// outside the basin, repeated depths included.
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
		if _, ok := m.(ColumnSampler); ok != (name == "basin" || name == "heterogeneous") {
			t.Fatalf("%s: has a column path: %v", name, ok)
		}
		for _, x := range []float64{-500, 0, 0.35 * lx, 0.55 * lx, lx + 500} {
			for _, y := range []float64{-500, 0.25 * ly, 0.45 * ly, ly} {
				out := make([]Material, len(zs))
				SampleColumn(m, x, y, zs, out)
				for k, z := range zs {
					if want := m.Sample(x, y, z); out[k] != want {
						t.Fatalf("%s at (%g,%g,%g): column %v, point %v", name, x, y, z, out[k], want)
					}
				}
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
