package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"swquake/internal/cpu/cputest"
)

func TestNewFieldShape(t *testing.T) {
	f := NewField(Dims{4, 5, 6}, 2)
	want := (4 + 4) * (5 + 4) * (6 + 4)
	if len(f.Data) != want {
		t.Fatalf("len(Data) = %d, want %d", len(f.Data), want)
	}
	if f.Bytes() != int64(want)*4 {
		t.Fatalf("Bytes = %d", f.Bytes())
	}
}

func TestDimsPoints(t *testing.T) {
	d := Dims{40000, 39000, 5000}
	if got := d.Points(); got != 7_800_000_000_000 {
		t.Fatalf("paper extreme case: %d points, want 7.8 trillion", got)
	}
	if !d.Valid() {
		t.Fatal("extreme dims should be valid")
	}
	if (Dims{0, 1, 1}).Valid() {
		t.Fatal("zero extent must be invalid")
	}
}

func TestIdxZFastest(t *testing.T) {
	f := NewField(Dims{3, 3, 8}, 2)
	if f.Idx(0, 0, 1)-f.Idx(0, 0, 0) != 1 {
		t.Error("z must be the fastest axis (stride 1)")
	}
	if f.Idx(0, 1, 0)-f.Idx(0, 0, 0) != f.StrideY() {
		t.Error("y stride mismatch")
	}
	if f.Idx(1, 0, 0)-f.Idx(0, 0, 0) != f.StrideX() {
		t.Error("x stride mismatch")
	}
	if f.StrideX() <= f.StrideY() || f.StrideY() <= 1 {
		t.Errorf("stride ordering wrong: sx=%d sy=%d", f.StrideX(), f.StrideY())
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	f := NewField(Dims{4, 4, 4}, 2)
	f.Set(1, 2, 3, 42)
	if f.At(1, 2, 3) != 42 {
		t.Fatal("Set/At round trip failed")
	}
	f.Add(1, 2, 3, 8)
	if f.At(1, 2, 3) != 50 {
		t.Fatal("Add failed")
	}
	// halo addressing
	f.Set(-1, -2, -2, 7)
	if f.At(-1, -2, -2) != 7 {
		t.Fatal("halo addressing failed")
	}
}

func TestUniqueIndices(t *testing.T) {
	f := NewField(Dims{3, 4, 5}, 1)
	seen := map[int]bool{}
	for i := -1; i < 4; i++ {
		for j := -1; j < 5; j++ {
			for k := -1; k < 6; k++ {
				idx := f.Idx(i, j, k)
				if idx < 0 || idx >= len(f.Data) {
					t.Fatalf("index out of range at (%d,%d,%d): %d", i, j, k, idx)
				}
				if seen[idx] {
					t.Fatalf("duplicate index at (%d,%d,%d)", i, j, k)
				}
				seen[idx] = true
			}
		}
	}
	if len(seen) != len(f.Data) {
		t.Fatalf("covered %d of %d slots", len(seen), len(f.Data))
	}
}

func TestFillInteriorLeavesHalo(t *testing.T) {
	f := NewField(Dims{3, 3, 3}, 2)
	f.Fill(-1)
	f.FillInterior(5)
	if f.At(0, 0, 0) != 5 || f.At(2, 2, 2) != 5 {
		t.Fatal("interior not filled")
	}
	if f.At(-1, 0, 0) != -1 || f.At(0, 0, 3) != -1 {
		t.Fatal("halo overwritten by FillInterior")
	}
}

func TestRowViews(t *testing.T) {
	f := NewField(Dims{2, 2, 6}, 2)
	row := f.Row(1, 1)
	if len(row) != 6 {
		t.Fatalf("Row len %d", len(row))
	}
	row[3] = 9
	if f.At(1, 1, 3) != 9 {
		t.Fatal("Row is not a view")
	}
}

func TestCloneAndDiff(t *testing.T) {
	f := NewField(Dims{4, 4, 4}, 2)
	rng := rand.New(rand.NewSource(1))
	for i := range f.Data {
		f.Data[i] = rng.Float32()
	}
	g := f.Clone()
	if !f.InteriorEqual(g, 0) {
		t.Fatal("clone differs")
	}
	if f.L2Diff(g) != 0 {
		t.Fatal("L2Diff of clone nonzero")
	}
	g.Set(0, 0, 0, g.At(0, 0, 0)+1)
	if f.InteriorEqual(g, 0.5) {
		t.Fatal("InteriorEqual missed difference")
	}
	if f.L2Diff(g) <= 0 {
		t.Fatal("L2Diff missed difference")
	}
}

func TestMinMaxMaxAbs(t *testing.T) {
	f := NewField(Dims{3, 3, 3}, 1)
	f.Fill(100) // halo values must not leak into interior stats
	f.FillInterior(0)
	f.Set(1, 1, 1, -7)
	f.Set(2, 2, 2, 3)
	lo, hi := f.MinMax()
	if lo != -7 || hi != 3 {
		t.Fatalf("MinMax = %v,%v", lo, hi)
	}
	if f.MaxAbs() != 7 {
		t.Fatalf("MaxAbs = %v", f.MaxAbs())
	}
}

// TestMaxAbsOrdersNaNAboveInf: MaxAbs must report a NaN, not skip it (every
// float comparison against NaN is false), at any position of a row — the
// scan is unrolled by four, and by eight lanes in assembly — and agree with a
// plain |v| maximum otherwise, on both row paths.
func TestMaxAbsOrdersNaNAboveInf(t *testing.T) {
	cputest.ForEachKernelPath(t, maxAbsOrdersNaNAboveInf)
}

func maxAbsOrdersNaNAboveInf(t *testing.T) {
	nan := float32(math.NaN())
	for nz := 1; nz <= 19; nz++ {
		for at := 0; at < nz; at++ {
			f := NewField(Dims{2, 2, nz}, 1)
			f.Fill(nan) // halo NaNs must not leak
			f.FillInterior(-0.5)
			f.Set(1, 1, at, -2.5)
			if m := f.MaxAbs(); m != 2.5 {
				t.Fatalf("nz=%d at=%d: MaxAbs = %v, want 2.5", nz, at, m)
			}
			f.Set(0, 1, at, float32(math.Inf(-1)))
			if m := f.MaxAbs(); !math.IsInf(float64(m), 1) {
				t.Fatalf("nz=%d at=%d: MaxAbs = %v, want +Inf", nz, at, m)
			}
			f.Set(1, 0, at, -nan)
			if m := f.MaxAbs(); m == m {
				t.Fatalf("nz=%d at=%d: MaxAbs = %v, want NaN", nz, at, m)
			}
		}
	}
	a, b := NewField(Dims{2, 3, 4}, 2), NewField(Dims{2, 3, 4}, 2)
	a.Set(0, 0, 0, 3)
	b.Set(1, 2, 3, -4)
	if m := MaxAbs(a, b); m != 4 {
		t.Fatalf("MaxAbs over two fields = %v, want 4", m)
	}
	if m := MaxAbs(); m != 0 {
		t.Fatalf("MaxAbs of nothing = %v", m)
	}
}

// TestProfileIsOneRowForEveryColumn: a profile reads like a full field whose
// every column holds the same values — Idx, At, Row, the
// reductions — in Nz+2H floats; a write at one column is a write at all; a
// clone is a profile of its own; and what would walk the full layout by hand
// panics instead of copying garbage.
func TestProfileIsOneRowForEveryColumn(t *testing.T) {
	d := Dims{4, 3, 5}
	p := NewProfile(d, 2)
	if len(p.Data) != d.Nz+4 || p.Bytes() != int64(4*(d.Nz+4)) || p.StrideX() != 0 || p.StrideY() != 0 {
		t.Fatalf("profile holds %d floats with strides %d,%d", len(p.Data), p.StrideX(), p.StrideY())
	}
	for k := -2; k < d.Nz+2; k++ {
		p.Set(1, 2, k, float32(10+k))
	}
	for i := -2; i < d.Nx+2; i++ {
		for j := -2; j < d.Ny+2; j++ {
			if p.Idx(i, j, 3) != p.Idx(0, 0, 3) || p.At(i, j, 3) != 13 || p.Row(i, j)[4] != 14 ||
				len(p.Row(i, j)) != d.Nz || p.At(i, j, -2) != 8 {
				t.Fatalf("column (%d,%d) is not the shared row", i, j)
			}
		}
	}
	if lo, hi := p.MinMax(); lo != 10 || hi != 14 || p.MaxAbs() != 14 {
		t.Fatalf("interior range %g..%g, max abs %g", lo, hi, p.MaxAbs())
	}
	c := NewProfile(d, 2)
	c.Fill(7)
	if c.At(3, 2, 4) != 7 || c.At(-2, -2, -2) != 7 || len(c.Data) != d.Nz+4 {
		t.Fatal("a filled profile holds its value at every depth of every column")
	}

	q := p.Clone()
	q.Set(0, 0, 0, -1)
	if p.At(0, 0, 0) != 10 || q.At(3, 2, 0) != -1 || len(q.Data) != len(p.Data) {
		t.Fatal("a profile's clone must be a profile of its own")
	}
	full := NewField(d, 2)
	for name, f := range map[string]func(){
		"PackHalo":   func() { p.PackHalo(FaceXPlus, make([]float32, p.HaloLen(FaceXPlus))) },
		"UnpackHalo": func() { p.UnpackHalo(FaceYMinus, make([]float32, p.HaloLen(FaceYMinus))) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a profile did not panic", name)
				}
			}()
			f()
		}()
	}
	if p.At(0, 0, 0) != 10 || full.MaxAbs() != 0 {
		t.Fatal("a rejected copy changed a field")
	}
}

// TestFrozenFieldRejectsWrites: every writing method panics on a frozen
// field, reads keep working, and a copy is writable again.
func TestFrozenFieldRejectsWrites(t *testing.T) {
	f := NewField(Dims{3, 3, 3}, 1)
	f.Fill(2)
	f.Freeze()
	writes := map[string]func(){
		"Set":          func() { f.Set(1, 1, 1, 5) },
		"Add":          func() { f.Add(1, 1, 1, 5) },
		"Fill":         func() { f.Fill(5) },
		"FillInterior": func() { f.FillInterior(5) },
		"UnpackHalo":   func() { f.UnpackHalo(FaceXMinus, make([]float32, f.HaloLen(FaceXMinus))) },
	}
	for name, w := range writes {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a frozen field did not panic", name)
				}
			}()
			w()
		}()
	}
	if f.At(1, 1, 1) != 2 || f.MaxAbs() != 2 {
		t.Fatal("a rejected write changed the field")
	}
	c := f.Clone()
	c.Set(1, 1, 1, 5)
}

func TestPackUnpackHaloRoundTrip(t *testing.T) {
	for _, face := range []Face{FaceXMinus, FaceXPlus, FaceYMinus, FaceYPlus} {
		a := NewField(Dims{5, 6, 7}, 2)
		b := NewField(Dims{5, 6, 7}, 2)
		rng := rand.New(rand.NewSource(2))
		for i := range a.Data {
			a.Data[i] = rng.Float32()
		}
		buf := make([]float32, a.HaloLen(face))
		a.PackHalo(face, buf)
		b.UnpackHalo(face.Opposite(), buf)

		// b's ghost layers on the opposite face must equal a's boundary layers.
		switch face {
		case FaceXPlus:
			for di := 0; di < 2; di++ {
				for j := 0; j < 6; j++ {
					for k := 0; k < 7; k++ {
						if b.At(-2+di, j, k) != a.At(5-2+di, j, k) {
							t.Fatalf("face %v ghost mismatch", face)
						}
					}
				}
			}
		case FaceYPlus:
			for dj := 0; dj < 2; dj++ {
				for i := 0; i < 5; i++ {
					if b.At(i, -2+dj, 0) != a.At(i, 6-2+dj, 0) {
						t.Fatalf("face %v ghost mismatch", face)
					}
				}
			}
		}
	}
}

func TestHaloLenMatchesBuffer(t *testing.T) {
	f := NewField(Dims{4, 5, 6}, 2)
	wantX := 2 * (5 + 4) * (6 + 4)
	if f.HaloLen(FaceXMinus) != wantX {
		t.Fatalf("HaloLen x = %d want %d", f.HaloLen(FaceXMinus), wantX)
	}
	wantY := 2 * (4 + 4) * (6 + 4)
	if f.HaloLen(FaceYPlus) != wantY {
		t.Fatalf("HaloLen y = %d want %d", f.HaloLen(FaceYPlus), wantY)
	}
}

func TestFaceOpposite(t *testing.T) {
	for _, f := range []Face{FaceXMinus, FaceXPlus, FaceYMinus, FaceYPlus} {
		if f.Opposite().Opposite() != f {
			t.Fatalf("Opposite not involutive for %v", f)
		}
		if f.Opposite() == f {
			t.Fatalf("Opposite fixed point for %v", f)
		}
		if f.String() == "?" {
			t.Fatalf("missing String for %v", int(f))
		}
	}
}

func TestQuickIdxBijective(t *testing.T) {
	f := NewField(Dims{6, 7, 8}, 2)
	fn := func(i8, j8, k8 uint8) bool {
		i := int(i8%10) - 2
		j := int(j8%11) - 2
		k := int(k8%12) - 2
		idx := f.Idx(i, j, k)
		// invert
		rem := idx
		ri := rem/f.StrideX() - f.H
		rem %= f.StrideX()
		rj := rem/f.StrideY() - f.H
		rk := rem%f.StrideY() - f.H
		return ri == i && rj == j && rk == k
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}
