package model

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"
)

func TestGridModelRoundTrip(t *testing.T) {
	src := NewGridModel(TangshanBasin(), 8, 8, 6, TangshanLX/7, TangshanLY/7, TangshanLZ/5)
	var buf bytes.Buffer
	if err := src.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGridModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NX != src.NX || got.NY != src.NY || got.NZ != src.NZ {
		t.Fatalf("dims %d %d %d", got.NX, got.NY, got.NZ)
	}
	if got.DX != src.DX || got.DZ != src.DZ {
		t.Fatal("spacings differ")
	}
	for i := range src.Vp {
		// float32 round trip of float64 values
		if math.Abs(got.Vp[i]-src.Vp[i]) > math.Abs(src.Vp[i])*1e-6 {
			t.Fatalf("Vp[%d] %g vs %g", i, got.Vp[i], src.Vp[i])
		}
	}
	// interpolation still works on the loaded model
	a := src.Sample(1e5, 1e5, 500)
	b := got.Sample(1e5, 1e5, 500)
	if math.Abs(a.Vs-b.Vs) > 1 {
		t.Fatalf("sampled Vs %g vs %g", b.Vs, a.Vs)
	}
}

func TestGridModelFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.swvm")
	src := NewGridModel(TangshanCrust(), 4, 4, 8, 1e4, 1e4, 5e3)
	if err := SaveGridModel(path, src); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGridModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.MinVs() != src.MinVs() {
		t.Fatal("MinVs differs after file round trip")
	}
	if _, err := LoadGridModel(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestReadGridModelRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		bytes.Repeat([]byte{0}, 44),        // zero magic
		append(validHeader(2, 2, 2), 0x01), // truncated data
		validHeader(0, 2, 2),               // zero extent
		append(validHeader(1, 1, 1), zeros(3*4)...), // invalid material (all zero)
	}
	for i, data := range cases {
		if _, err := ReadGridModel(bytes.NewReader(data)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func validHeader(nx, ny, nz int) []byte {
	var buf bytes.Buffer
	g := &GridModel{NX: nx, NY: ny, NZ: nz, DX: 1, DY: 1, DZ: 1,
		Vp: zerosF(nx * ny * nz), Vs: zerosF(nx * ny * nz), Rho: zerosF(nx * ny * nz)}
	_ = g.Write(&buf)
	return buf.Bytes()[:44]
}

func zeros(n int) []byte     { return make([]byte, n) }
func zerosF(n int) []float64 { return make([]float64, n) }

// TestReadGridModelRejectsNonFiniteValues: a file holding an infinite
// material value or a non-finite spacing is refused, and so is a header
// whose sample count overflows the product of its three counts.
func TestReadGridModelRejectsNonFiniteValues(t *testing.T) {
	file := func(edit func(g *GridModel)) []byte {
		g := NewGridModel(TangshanCrust(), 2, 3, 2, 1e3, 1e3, 1e3)
		edit(g)
		var buf bytes.Buffer
		if err := g.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if _, err := ReadGridModel(bytes.NewReader(file(func(*GridModel) {}))); err != nil {
		t.Fatalf("the unedited file is refused: %v", err)
	}
	for name, edit := range map[string]func(g *GridModel){
		"+Inf Vp":  func(g *GridModel) { g.Vp[5] = math.Inf(1) },
		"+Inf Rho": func(g *GridModel) { g.Rho[0] = math.Inf(1) },
		"NaN Rho":  func(g *GridModel) { g.Rho[7] = math.NaN() },
		"NaN DX":   func(g *GridModel) { g.DX = math.NaN() },
		"+Inf DZ":  func(g *GridModel) { g.DZ = math.Inf(1) },
		// 2^22 * 2^22 * 2^20 wraps to 0 samples in 64-bit arithmetic
		"overflowing count": func(g *GridModel) {
			g.NX, g.NY, g.NZ, g.Vp, g.Vs, g.Rho = 1<<22, 1<<22, 1<<20, nil, nil, nil
		},
	} {
		if _, err := ReadGridModel(bytes.NewReader(file(edit))); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// FuzzReadGridModel: a decode returns an error, or a model whose samples
// are finite and valid and whose column path gives Sample's bits, at
// columns inside and outside its extent.
func FuzzReadGridModel(f *testing.F) {
	var buf bytes.Buffer
	if err := NewGridModel(ScaledTangshan(4e3, 3e3, 2e3), 3, 2, 4, 2e3, 3e3, 500).Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:60])
	f.Add(append(validHeader(1, 1, 1), zeros(3*4)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadGridModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		lx, ly, lz := float64(g.NX)*g.DX, float64(g.NY)*g.DY, float64(g.NZ)*g.DZ
		zs := []float64{-lz, 0, 0.3 * lz, 0.3 * lz, lz / 2, 0.1 * lz, lz, 2 * lz}
		for _, x := range []float64{-lx, 0, 0.4 * lx, lx, 3 * lx} {
			for _, y := range []float64{-ly, 0.7 * ly, 2 * ly} {
				checkColumn(t, "decoded model", g, x, y, zs)
				for _, z := range zs {
					if m := g.Sample(x, y, z); !m.Valid() {
						t.Fatalf("sample at (%g,%g,%g) is %v", x, y, z, m)
					}
				}
			}
		}
	})
}
