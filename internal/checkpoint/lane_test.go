package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"swquake/internal/faultinject"
	"swquake/internal/fd"
)

// slowWrites holds every dump back for d before its first byte is written
// (the io/slow failpoint sits at the top of atomicio.WriteFile), so whatever
// the caller does right after MaybeSave returns overlaps the write.
func slowWrites(t *testing.T, d time.Duration) {
	t.Helper()
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	faultinject.Enable(faultinject.SlowIO, faultinject.Fault{Delay: d})
}

func tempDebris(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var tmp []string
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			tmp = append(tmp, e.Name())
		}
	}
	return tmp
}

// The solver owns its wavefield again the moment MaybeSave returns: it
// scribbles over all nine fields while the dump is still being written, and
// the file must restore the due-step state bit for bit, aux included.
func TestLaneSnapshotsBeforeReturning(t *testing.T) {
	slowWrites(t, 30*time.Millisecond)
	wf := testWavefield(21)
	want := wf.Clone()
	c := &Controller{Dir: t.TempDir(), Interval: 5, Keep: 3}

	if ok, err := maybeSave(c, 5, 0.5, wf, []byte("state at step 5")); !ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	for _, f := range wf.AllFields() {
		for i := range f.Data {
			f.Data[i] = -1e9
		}
	}
	infos, err := c.Close()
	if err != nil || len(infos) != 1 {
		t.Fatalf("close: %d infos, err %v", len(infos), err)
	}
	if infos[0].WriteSeconds < 0.03 {
		t.Fatalf("write seconds %g do not cover the held-back write", infos[0].WriteSeconds)
	}
	step, tm, got, aux, err := LoadAux(infos[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if step != 5 || tm != 0.5 || string(aux) != "state at step 5" {
		t.Fatalf("step %d time %g aux %q", step, tm, aux)
	}
	if !sameBits(got, want) {
		t.Fatal("the dump holds values written after MaybeSave returned")
	}
}

// At most one dump is in flight: when MaybeSave returns for the next due
// step, the previous dump is complete — renamed into place, loadable, its
// temporary file gone — so the lane never holds more than one snapshot.
func TestLaneHasOneDumpInFlight(t *testing.T) {
	slowWrites(t, 10*time.Millisecond)
	dir := t.TempDir()
	wf := testWavefield(22)
	c := &Controller{Dir: dir, Interval: 1, Keep: 10}
	for step := 1; step <= 4; step++ {
		wf.U.Set(0, 0, 0, float32(step))
		if ok, err := maybeSave(c, step, float64(step), wf, nil); !ok || err != nil {
			t.Fatalf("step %d: ok=%v err=%v", step, ok, err)
		}
		if step == 1 {
			continue
		}
		prev := filepath.Join(dir, fmt.Sprintf("ckpt-%08d.swq", step-1))
		s, _, got, err := Load(prev)
		if err != nil || s != step-1 || got.U.At(0, 0, 0) != float32(step-1) {
			t.Fatalf("dump %d not complete when the next one started: step %d err %v", step-1, s, err)
		}
		if tmp := tempDebris(t, dir); len(tmp) > 1 {
			t.Fatalf("%d temporary files: more than one write in flight (%v)", len(tmp), tmp)
		}
	}
	infos, err := c.Close()
	if err != nil || len(infos) != 4 {
		t.Fatalf("close: %d infos, err %v", len(infos), err)
	}
	if tmp := tempDebris(t, dir); len(tmp) != 0 {
		t.Fatalf("temporary files after Close: %v", tmp)
	}
}

// A failed write surfaces at the next due step and stays until Close
// reports it; Close twice is harmless; the controller then works again.
func TestLaneWriteErrorSurfacesAtNextDueStepAndClose(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	boom := errors.New("disk on fire")
	faultinject.Enable(faultinject.CheckpointWrite, faultinject.Fault{Times: 1, Err: boom})

	dir := t.TempDir()
	wf := testWavefield(23)
	c := &Controller{Dir: dir, Interval: 1, Keep: 10}
	if ok, err := maybeSave(c, 1, 1, wf, nil); !ok || err != nil {
		t.Fatalf("starting the dump itself must not fail: ok=%v err=%v", ok, err)
	}
	for step := 2; step <= 3; step++ {
		if ok, err := maybeSave(c, step, 2, wf, nil); ok || !errors.Is(err, boom) {
			t.Fatalf("step %d: ok=%v err=%v, want the write error", step, ok, err)
		}
	}
	if ok, err := maybeSave(c, 0, 0, wf, nil); ok || err != nil {
		t.Fatalf("a step that is not due must not report anything: ok=%v err=%v", ok, err)
	}
	infos, err := c.Close()
	if !errors.Is(err, boom) || len(infos) != 0 {
		t.Fatalf("close: %d infos, err %v", len(infos), err)
	}
	if infos, err := c.Close(); err != nil || infos != nil {
		t.Fatalf("second close: %v %v", infos, err)
	}
	if len(checkpointNames(dir)) != 0 || len(tempDebris(t, dir)) != 0 {
		t.Fatal("a failed dump left files behind")
	}

	if ok, err := maybeSave(c, 4, 4, wf, nil); !ok || err != nil {
		t.Fatalf("after Close: ok=%v err=%v", ok, err)
	}
	if infos, err := c.Close(); err != nil || len(infos) != 1 {
		t.Fatalf("after Close: %d infos, err %v", len(infos), err)
	}
}

// With no later due step the error has only Close to surface at.
func TestLaneWriteErrorSurfacesAtClose(t *testing.T) {
	c := &Controller{Dir: filepath.Join(t.TempDir(), "missing"), Interval: 1}
	if ok, err := maybeSave(c, 1, 1, testWavefield(24), nil); !ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if _, err := c.Close(); err == nil {
		t.Fatal("write into a missing directory not reported")
	}
}

// Close releases what the lane held, so a finished job pins no checkpoint
// memory, and an idle controller closes to nothing.
func TestLaneCloseReleasesSnapshot(t *testing.T) {
	c := &Controller{Dir: t.TempDir(), Interval: 1}
	if infos, err := c.Close(); infos != nil || err != nil {
		t.Fatalf("idle close: %v %v", infos, err)
	}
	if _, err := maybeSave(c, 1, 1, testWavefield(25), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c.snap != nil || c.sc.raw != nil || c.sc.blk != nil || c.inflight != nil {
		t.Fatal("Close kept the snapshot or the codec scratch")
	}
}

// The lane keeps one snapshot: made at the first dump, written by every
// later fill of the same dims and never reallocated, its ghost planes zero
// whatever the source's hold. A fill that fails starts no dump and reports
// its error.
func TestLaneFillsOneSnapshot(t *testing.T) {
	wf := testWavefield(26)
	for _, f := range wf.AllFields() {
		f.Data[0] = 99 // a ghost point the dump must not carry
	}
	c := &Controller{Dir: t.TempDir(), Interval: 1}
	if ok, err := maybeSave(c, 1, 1, wf, []byte("first")); !ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	snap := c.snap
	boom := errors.New("gather failed")
	fail := func(*fd.Wavefield) error { return boom }
	if ok, err := c.MaybeSave(2, 2, wf.D, fail, nil); ok || !errors.Is(err, boom) {
		t.Fatalf("failed fill: ok=%v err=%v", ok, err)
	}
	if ok, err := maybeSave(c, 3, 3, wf, []byte("third")); !ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if c.snap != snap {
		t.Fatal("the lane made a second snapshot for dumps of the same dims")
	}
	infos, err := c.Close()
	if err != nil || len(infos) != 2 {
		t.Fatalf("close: %d infos, err %v", len(infos), err)
	}
	_, _, got, aux, err := LoadAux(infos[1].Path)
	if err != nil || string(aux) != "third" || !sameBits(got, testWavefield(26)) {
		t.Fatalf("aux %q err %v, or the dump is not the interior with zero ghosts", aux, err)
	}
}

// Identical wavefields give identical files, whichever path wrote them: the
// lane's reused scratch must not leak one dump's bytes into the next.
func TestLaneDumpsAreDeterministic(t *testing.T) {
	dir := t.TempDir()
	a, b := testWavefield(27), testWavefield(28)
	c := &Controller{Dir: dir, Interval: 1}
	for step, wf := range []*fd.Wavefield{a, b, a} {
		if _, err := maybeSave(c, step+1, 0, wf, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	direct := filepath.Join(dir, "direct")
	if _, err := Save(direct, 3, 0, a); err != nil {
		t.Fatal(err)
	}
	viaLane, _ := os.ReadFile(filepath.Join(dir, "ckpt-00000003.swq"))
	viaSave, _ := os.ReadFile(direct)
	if len(viaLane) == 0 || string(viaLane) != string(viaSave) {
		t.Fatal("the lane's third dump differs from a direct Save of the same wavefield")
	}
}
