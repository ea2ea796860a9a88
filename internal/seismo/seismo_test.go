package seismo

import (
	"math"
	"testing"
	"testing/quick"

	"swquake/internal/fd"
	"swquake/internal/grid"
)

func wf44() *fd.Wavefield { return fd.NewWavefield(grid.Dims{Nx: 4, Ny: 4, Nz: 4}) }

func TestRecorderSampling(t *testing.T) {
	wf := wf44()
	r := NewRecorder([]Station{{Name: "A", I: 1, J: 1, K: 0}}, 0.01)
	for n := 0; n < 10; n++ {
		wf.U.Set(1, 1, 0, float32(n))
		r.Record(wf)
	}
	tr := r.Trace("A")
	if tr == nil {
		t.Fatal("trace missing")
	}
	if len(tr.U) != 10 || r.StepsSeen() != 10 {
		t.Fatalf("sampled %d of %d steps, want every one of 10", len(tr.U), r.StepsSeen())
	}
	for n, u := range tr.U {
		if u != float32(n) {
			t.Fatalf("samples %v", tr.U)
		}
	}
	if tr.Dt != 0.01 {
		t.Fatalf("trace dt %g, want the solver step", tr.Dt)
	}
	if r.Trace("nope") != nil {
		t.Fatal("unknown station returned a trace")
	}
}

func TestTracePeakVelocity(t *testing.T) {
	tr := &Trace{U: []float32{0, 3, 0}, V: []float32{0, 4, 1}, W: []float32{9, 9, 9}}
	if got := tr.PeakVelocity(); got != 5 {
		t.Fatalf("peak %g, want 5 (horizontal only)", got)
	}
}

func TestRMSMisfit(t *testing.T) {
	a := &Trace{U: []float32{1, 2, 3}, V: []float32{0, 0, 0}, W: []float32{0, 0, 0}}
	b := &Trace{U: []float32{1, 2, 3}, V: []float32{0, 0, 0}, W: []float32{0, 0, 0}}
	m, err := a.RMSMisfit(b)
	if err != nil || m != 0 {
		t.Fatalf("identical traces misfit %g err %v", m, err)
	}
	c := &Trace{U: []float32{2, 4, 6}, V: []float32{0, 0, 0}, W: []float32{0, 0, 0}}
	m, err = a.RMSMisfit(c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-1) > 1e-9 { // doubled trace: misfit == 100% of reference RMS
		t.Fatalf("misfit %g, want 1", m)
	}
	if _, err := a.RMSMisfit(&Trace{U: []float32{1}}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	zero := &Trace{U: []float32{0}, V: []float32{0}, W: []float32{0}}
	if m, _ := zero.RMSMisfit(zero); m != 0 {
		t.Fatal("zero traces must match")
	}
}

func TestPGVFieldTracksPeak(t *testing.T) {
	wf := wf44()
	p := NewPGVField(4, 4, 0)
	wf.U.Set(2, 2, 0, 3)
	wf.V.Set(2, 2, 0, 4)
	p.UpdateCols(wf, 0, 4, 0, 4)
	wf.U.Set(2, 2, 0, 1) // lower later value must not reduce the peak
	wf.V.Set(2, 2, 0, 0)
	p.UpdateCols(wf, 0, 4, 0, 4)
	if got := p.At(2, 2); got != 5 {
		t.Fatalf("pgv %g, want 5", got)
	}
	if p.Max() != 5 {
		t.Fatalf("max %g", p.Max())
	}
	if p.At(0, 0) != 0 {
		t.Fatal("untouched point nonzero")
	}
}

// TestPGVFieldUpdateColsIsUpdateInParts: updating the column ranges of a
// partition of the surface, in any order, at depth 1, leaves the peaks one
// update of the whole surface leaves, and a range touches its own columns alone.
func TestPGVFieldUpdateColsIsUpdateInParts(t *testing.T) {
	wf := wf44()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			wf.U.Set(i, j, 1, float32(i-j))
			wf.V.Set(i, j, 1, float32(i*j)/3)
			wf.U.Set(i, j, 0, 100) // not the sampled depth
		}
	}
	whole, parts := NewPGVField(4, 4, 1), NewPGVField(4, 4, 1)
	whole.UpdateCols(wf, 0, 4, 0, 4)
	parts.UpdateCols(wf, 1, 4, 2, 4)
	if parts.At(0, 3) != 0 || parts.At(1, 1) != 0 || parts.At(3, 3) != whole.At(3, 3) {
		t.Fatalf("columns [1,4)x[2,4) updated %v", parts.PGV)
	}
	parts.UpdateCols(wf, 0, 1, 0, 4)
	parts.UpdateCols(wf, 1, 4, 0, 2)
	for n, v := range whole.PGV {
		if parts.PGV[n] != v {
			t.Fatalf("PGV[%d] = %g in parts, %g whole", n, parts.PGV[n], v)
		}
	}
}

func TestIntensityRelation(t *testing.T) {
	// GB/T 17742: PGV 1 m/s -> I ~ 9.8 (severe); 0.1 m/s -> ~6.8
	if i := Intensity(1.0); math.Abs(i-9.77) > 0.01 {
		t.Fatalf("I(1 m/s) = %g", i)
	}
	if i := Intensity(0.1); math.Abs(i-6.77) > 0.01 {
		t.Fatalf("I(0.1 m/s) = %g", i)
	}
	if Intensity(0) != 1 {
		t.Fatal("zero PGV must clamp to 1")
	}
	if Intensity(1e9) != 12 {
		t.Fatal("huge PGV must clamp to 12")
	}
}

func TestQuickIntensityMonotone(t *testing.T) {
	fn := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return Intensity(a) <= Intensity(b)
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshot(t *testing.T) {
	wf := wf44()
	wf.U.Set(1, 2, 0, 3)
	wf.V.Set(1, 2, 0, 4)
	s := Snapshot(wf, 0)
	if len(s) != 4 || len(s[0]) != 4 {
		t.Fatal("snapshot shape wrong")
	}
	if s[1][2] != 5 {
		t.Fatalf("snapshot value %g", s[1][2])
	}
	if s[0][0] != 0 {
		t.Fatal("quiet point nonzero")
	}
}

func TestPGVFieldSetAndMerge(t *testing.T) {
	global := NewPGVField(4, 6, 0)
	global.Set(1, 2, 0.5)
	if global.At(1, 2) != 0.5 {
		t.Fatalf("Set/At mismatch: %g", global.At(1, 2))
	}

	// a 2x3 block merged at offset (2, 3): pointwise max with the existing
	// values, as in the parallel PGV reduction
	global.Set(2, 3, 0.9)
	block := NewPGVField(2, 3, 0)
	block.Set(0, 0, 0.4) // loses to the existing 0.9
	block.Set(1, 2, 0.7) // lands on an empty cell
	global.Merge(block, 2, 3)

	if global.At(2, 3) != 0.9 {
		t.Fatalf("merge overwrote a larger peak: %g", global.At(2, 3))
	}
	if global.At(3, 5) != 0.7 {
		t.Fatalf("merge lost a block peak: %g", global.At(3, 5))
	}
	if global.At(1, 2) != 0.5 {
		t.Fatalf("merge touched cells outside the block: %g", global.At(1, 2))
	}
}
