package checkpoint

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"swquake/internal/fd"
	"swquake/internal/grid"
)

// testWavefield is a state a run could dump: values at every interior
// point, ghost planes zero.
func testWavefield(seed int64) *fd.Wavefield {
	wf := fd.NewWavefield(grid.Dims{Nx: 8, Ny: 8, Nz: 12})
	rng := rand.New(rand.NewSource(seed))
	for _, f := range wf.AllFields() {
		for i := 0; i < f.Nx; i++ {
			for j := 0; j < f.Ny; j++ {
				row := f.Row(i, j)
				for k := range row {
					// smooth-ish data so LZ4 finds matches
					row[k] = float32(math.Round(rng.Float64()*10) / 10)
				}
			}
		}
	}
	return wf
}

// maybeSave is MaybeSave of a whole-domain wavefield: fill copies its
// interior into the snapshot.
func maybeSave(c *Controller, step int, simTime float64, wf *fd.Wavefield, aux []byte) (bool, error) {
	return c.MaybeSave(step, simTime, wf.D, func(snap *fd.Wavefield) error {
		return CopyInterior(snap, wf, 0, 0)
	}, aux)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	wf := testWavefield(1)
	path := filepath.Join(t.TempDir(), "c.swq")
	info, err := Save(path, 42, 3.5, wf)
	if err != nil {
		t.Fatal(err)
	}
	if info.RawBytes != wf.Bytes() {
		t.Fatalf("raw bytes %d vs %d", info.RawBytes, wf.Bytes())
	}
	if info.CompressionRatio <= 1 {
		t.Fatalf("ratio %g", info.CompressionRatio)
	}
	step, tm, got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if step != 42 || tm != 3.5 {
		t.Fatalf("step %d time %g", step, tm)
	}
	for i, f := range wf.AllFields() {
		if !f.InteriorEqual(got.AllFields()[i], 0) {
			t.Fatalf("field %d differs after restore", i)
		}
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	wf := testWavefield(2)
	dir := t.TempDir()
	path := filepath.Join(dir, "c.swq")
	if _, err := Save(path, 1, 0, wf); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)

	// bad magic
	bad := append([]byte{}, data...)
	bad[0] ^= 0xff
	p2 := filepath.Join(dir, "bad1.swq")
	os.WriteFile(p2, bad, 0o644)
	if _, _, _, err := Load(p2); err == nil {
		t.Fatal("bad magic accepted")
	}

	// flipped payload byte -> CRC failure
	bad = append([]byte{}, data...)
	bad[100] ^= 0xff
	p3 := filepath.Join(dir, "bad2.swq")
	os.WriteFile(p3, bad, 0o644)
	if _, _, _, err := Load(p3); err == nil {
		t.Fatal("corrupt payload accepted")
	}

	// truncation
	p4 := filepath.Join(dir, "bad3.swq")
	os.WriteFile(p4, data[:len(data)/2], 0o644)
	if _, _, _, err := Load(p4); err == nil {
		t.Fatal("truncated file accepted")
	}

	if _, _, _, err := Load(filepath.Join(dir, "missing.swq")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestControllerIntervalAndKeep(t *testing.T) {
	wf := testWavefield(3)
	dir := t.TempDir()
	c := &Controller{Dir: dir, Interval: 5, Keep: 2}

	saves := 0
	for step := 0; step <= 20; step++ {
		ok, err := maybeSave(c, step, float64(step), wf, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			saves++
		}
	}
	infos, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if saves != 4 || len(infos) != 4 { // steps 5, 10, 15, 20 (not 0)
		t.Fatalf("%d saves started, %d reported by Close", saves, len(infos))
	}
	for i, info := range infos {
		if want := filepath.Join(dir, fmt.Sprintf("ckpt-%08d.swq", 5*(i+1))); info.Path != want || info.WriteSeconds <= 0 {
			t.Fatalf("info %d: path %q (want %q), write seconds %g", i, info.Path, want, info.WriteSeconds)
		}
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 2 {
		t.Fatalf("%d files kept, want 2", len(entries))
	}
	latest := c.Latest()
	step, _, _, err := Load(latest)
	if err != nil {
		t.Fatal(err)
	}
	if step != 20 {
		t.Fatalf("latest step %d", step)
	}
}

func TestControllerDisabled(t *testing.T) {
	c := &Controller{Interval: 0}
	if ok, err := maybeSave(c, 10, 0, testWavefield(4), nil); ok || err != nil {
		t.Fatal("disabled controller saved")
	}
	if (&Controller{Dir: t.TempDir()}).Latest() != "" {
		t.Fatal("empty dir produced a latest checkpoint")
	}
}

func TestPlanIOGroups(t *testing.T) {
	p, err := PlanIO(1000, 100, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumGroups() != 10 {
		t.Fatalf("%d groups", p.NumGroups())
	}
	// every rank belongs to a group led by a rank in the same group
	for r := 0; r < 1000; r++ {
		g := p.GroupOf[r]
		if g < 0 || g >= p.NumGroups() {
			t.Fatalf("rank %d group %d", r, g)
		}
		if p.GroupOf[p.Leaders[g]] != g {
			t.Fatal("leader not in own group")
		}
	}
	if _, err := PlanIO(0, 1, 1); err == nil {
		t.Fatal("invalid plan accepted")
	}
}

func TestBalancedForwarding(t *testing.T) {
	p, _ := PlanIO(160000, 100, 80)
	// 1600 groups over 80 forwarders: perfectly balanced
	if p.Imbalance() != 1 {
		t.Fatalf("imbalance %g", p.Imbalance())
	}
	loads := p.ForwarderLoads()
	for _, l := range loads {
		if l != 20 {
			t.Fatalf("forwarder load %d", l)
		}
	}
}

func TestEffectiveBandwidthReproducesPaper(t *testing.T) {
	// the paper's configuration reaches 120 GB/s, 92.3% of the FS peak
	p, _ := PlanIO(160000, 100, 80)
	bw := p.EffectiveBandwidth()
	if bw < 115 || bw > 130 {
		t.Fatalf("modeled bandwidth %g GB/s, paper reports 120", bw)
	}
	frac := bw / FSPeakGBs
	if frac < 0.88 || frac > 0.97 {
		t.Fatalf("fraction of FS peak %g, paper reports 92.3%%", frac)
	}
}

func TestImbalancePenalty(t *testing.T) {
	// 9 groups over 8 forwarders: one forwarder carries 2 streams
	p, _ := PlanIO(900, 100, 8)
	if p.Imbalance() <= 1 {
		t.Fatal("expected imbalance")
	}
	balanced, _ := PlanIO(800, 100, 8)
	if p.EffectiveBandwidth() >= balanced.EffectiveBandwidth() {
		t.Fatal("imbalance must cost bandwidth")
	}
}

func TestWriteSeconds(t *testing.T) {
	p, _ := PlanIO(160000, 100, 80)
	// the paper's 108 TB dump at ~120 GB/s takes ~15 minutes
	s := p.WriteSeconds(108 << 40)
	if s < 11*60 || s > 25*60 {
		t.Fatalf("108 TB write time %g s", s)
	}
}
