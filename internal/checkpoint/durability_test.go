package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swquake/internal/faultinject"
)

func TestSaveIsAtomicOnInjectedError(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()

	dir := t.TempDir()
	path := filepath.Join(dir, "c.swq")
	wf := testWavefield(7)
	if _, err := Save(path, 10, 1.0, wf); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(path)

	faultinject.Enable(faultinject.CheckpointWrite, faultinject.Fault{Times: 1})
	if _, err := Save(path, 20, 2.0, wf); err == nil {
		t.Fatal("injected write error not surfaced")
	}
	after, _ := os.ReadFile(path)
	if string(before) != string(after) {
		t.Fatal("failed save clobbered the existing checkpoint")
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("temp debris after failed save: %d entries", len(entries))
	}
	// the failpoint is exhausted: the next save succeeds and replaces the file
	if _, err := Save(path, 20, 2.0, wf); err != nil {
		t.Fatal(err)
	}
	if step, _, _, err := Load(path); err != nil || step != 20 {
		t.Fatalf("step %d err %v after recovery save", step, err)
	}
}

func TestLoadRejectsHeaderCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.swq")
	if _, err := Save(path, 5, 0.5, testWavefield(8)); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	// flip a byte inside the checksummed header (the step field)
	bad := append([]byte{}, data...)
	bad[9] ^= 0xff
	p := filepath.Join(dir, "bad.swq")
	os.WriteFile(p, bad, 0o644)
	if _, _, _, err := Load(p); err == nil || !strings.Contains(err.Error(), "header CRC") {
		t.Fatalf("header corruption error: %v", err)
	}
}

func TestLoadRejectsTruncationWithClearError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.swq")
	if _, err := Save(path, 5, 0.5, testWavefield(9)); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)

	cases := []struct {
		name string
		n    int // bytes kept
	}{
		{"mid-header", headerSize / 2},
		{"after-header", headerSize + 6},
		{"mid-block", len(data) - len(data)/4},
	}
	for _, c := range cases {
		p := filepath.Join(dir, c.name+".swq")
		os.WriteFile(p, data[:c.n], 0o644)
		_, _, _, err := Load(p)
		if err == nil {
			t.Fatalf("%s: truncated file accepted", c.name)
		}
		if !strings.Contains(err.Error(), "truncated") && !strings.Contains(err.Error(), "imply") {
			t.Fatalf("%s: error does not name truncation: %v", c.name, err)
		}
	}

	// trailing garbage is also rejected
	p := filepath.Join(dir, "trailing.swq")
	os.WriteFile(p, append(append([]byte{}, data...), 1, 2, 3), 0o644)
	if _, _, _, err := Load(p); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing-garbage error: %v", err)
	}
}

func TestAuxRoundTripAndCRC(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.swq")
	aux := []byte("resume state goes here, opaque to the checkpoint layer")
	if _, err := SaveAux(path, 7, 0.7, testWavefield(10), aux); err != nil {
		t.Fatal(err)
	}
	step, tm, wf, got, err := LoadAux(path)
	if err != nil {
		t.Fatal(err)
	}
	if step != 7 || tm != 0.7 || wf == nil || string(got) != string(aux) {
		t.Fatalf("aux round trip: step=%d tm=%g aux=%q", step, tm, got)
	}
	// a plain Save carries no aux
	if _, err := Save(path, 7, 0.7, testWavefield(10)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, got, _ := LoadAux(path); got != nil {
		t.Fatalf("aux %q from plain save", got)
	}
	// flipping an aux byte must fail the aux CRC
	if _, err := SaveAux(path, 7, 0.7, testWavefield(10), aux); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	data[headerSize+3] ^= 0xff
	p := filepath.Join(dir, "badaux.swq")
	os.WriteFile(p, data, 0o644)
	if _, _, _, _, err := LoadAux(p); err == nil || !strings.Contains(err.Error(), "aux CRC") {
		t.Fatalf("aux corruption error: %v", err)
	}
}

func TestLatestValidFallsBackPastCorruptAndTruncated(t *testing.T) {
	dir := t.TempDir()
	wf := testWavefield(11)
	c := &Controller{Dir: dir, Interval: 5, Keep: 10}
	for step := 5; step <= 20; step += 5 {
		if ok, err := maybeSave(c, step, float64(step), wf, nil); !ok || err != nil {
			t.Fatalf("save %d: ok=%v err=%v", step, ok, err)
		}
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// everything intact: latest valid == latest
	p, err := LatestValid(dir)
	if err != nil || filepath.Base(p) != "ckpt-00000020.swq" {
		t.Fatalf("latest valid %q err %v", p, err)
	}

	// corrupt the newest, truncate the second-newest: fall back to step 10
	corruptFile(filepath.Join(dir, "ckpt-00000020.swq"))
	data, _ := os.ReadFile(filepath.Join(dir, "ckpt-00000015.swq"))
	os.WriteFile(filepath.Join(dir, "ckpt-00000015.swq"), data[:len(data)/3], 0o644)

	p, err = LatestValid(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(p) != "ckpt-00000010.swq" {
		t.Fatalf("fell back to %q, want step 10", p)
	}
	if step, _, _, err := Load(p); err != nil || step != 10 {
		t.Fatalf("fallback load: step %d err %v", step, err)
	}

	// nothing valid at all
	empty := t.TempDir()
	if _, err := LatestValid(empty); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: %v", err)
	}
}

func TestCorruptFailpointDamagesNewestOnly(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()

	dir := t.TempDir()
	wf := testWavefield(12)
	c := &Controller{Dir: dir, Interval: 1, Keep: 5}
	// corrupt only the third save
	faultinject.Enable(faultinject.CheckpointCorrupt, faultinject.Fault{Skip: 2, Times: 1})
	for step := 1; step <= 3; step++ {
		if _, err := maybeSave(c, step, float64(step), wf, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if faultinject.Hits(faultinject.CheckpointCorrupt) != 1 {
		t.Fatalf("corrupt failpoint hits %d", faultinject.Hits(faultinject.CheckpointCorrupt))
	}
	if _, _, _, err := Load(filepath.Join(dir, "ckpt-00000003.swq")); err == nil {
		t.Fatal("corrupted checkpoint loads cleanly")
	}
	p, err := LatestValid(dir)
	if err != nil || filepath.Base(p) != "ckpt-00000002.swq" {
		t.Fatalf("latest valid %q err %v, want step 2", p, err)
	}
}

func TestGCSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	wf := testWavefield(13)
	c1 := &Controller{Dir: dir, Interval: 1, Keep: 2}
	for step := 1; step <= 3; step++ {
		if _, err := maybeSave(c1, step, float64(step), wf, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	// a fresh controller (as after a process restart) must keep honoring
	// Keep across the files the dead one left behind
	c2 := &Controller{Dir: dir, Interval: 1, Keep: 2}
	if _, err := maybeSave(c2, 4, 4, wf, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	names := checkpointNames(dir)
	if len(names) != 2 || names[0] != "ckpt-00000003.swq" || names[1] != "ckpt-00000004.swq" {
		t.Fatalf("retention across restart: %v", names)
	}
}
