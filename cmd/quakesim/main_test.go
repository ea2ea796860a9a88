package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swquake/internal/compress"
	"swquake/internal/cpu"
	"swquake/internal/faultinject"
	"swquake/internal/model"
	"swquake/internal/scenario"
)

func TestParseProcGrid(t *testing.T) {
	mx, my, err := parseProcGrid("2x3")
	if err != nil || mx != 2 || my != 3 {
		t.Fatalf("2x3 -> %d,%d,%v", mx, my, err)
	}
	for _, bad := range []string{"", "2", "2x", "x3", "2x3x4", "ax2", "0x3", "-1x2"} {
		if _, _, err := parseProcGrid(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestParseMethod(t *testing.T) {
	cases := map[string]compress.Method{
		"half":       compress.Half,
		"adaptive":   compress.Adaptive,
		"normalized": compress.Normalized,
	}
	for s, want := range cases {
		got, err := parseMethod(s)
		if err != nil || got != want {
			t.Errorf("%q -> %v, %v", s, got, err)
		}
	}
	if _, err := parseMethod("zstd"); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestBuildConfig(t *testing.T) {
	cfg, err := buildConfig("quickstart", scenario.Overrides{Steps: 50})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Steps != 50 {
		t.Fatalf("steps %d", cfg.Steps)
	}
	if _, err := buildConfig("quickstart", scenario.Overrides{Nx: 10}); err == nil {
		t.Fatal("custom grid on quickstart accepted")
	}
	if _, err := buildConfig("quickstart", scenario.Overrides{Nonlinear: true}); err == nil {
		t.Fatal("nonlinear quickstart accepted")
	}
	cfg, err = buildConfig("tangshan", scenario.Overrides{
		Nx: 48, Ny: 46, Nz: 20, Dx: 600, Steps: 100, Nonlinear: true})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Dims.Nx != 48 || cfg.Dx != 600 || !cfg.Nonlinear {
		t.Fatalf("tangshan config wrong: %+v", cfg.Dims)
	}
	if _, err := buildConfig("tangshan", scenario.Overrides{Qs: 50}); err != nil {
		t.Fatal(err)
	}
	if _, err := buildConfig("loma-prieta", scenario.Overrides{}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestRunProgressFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-scenario", "quickstart", "-steps", "30", "-progress"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "step 30/30") {
		t.Fatalf("progress output missing final step line:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "max|v|=") || strings.Contains(buf.String(), "max|v|=0 ") {
		t.Fatalf("progress output missing a moving max |v|:\n%s", buf.String())
	}
}

func TestRunQuickstartEndToEnd(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	err := run([]string{"-scenario", "quickstart", "-steps", "30", "-out", dir}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "station-0") {
		t.Fatal("station report missing")
	}
	for _, f := range []string{"trace-station-0.csv", "spectrum-station-0.csv", "pgv.pgm", "intensity.pgm", "run.json"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("output %s missing: %v", f, err)
		}
	}
}

func TestRunTangshanWithModelFile(t *testing.T) {
	dir := t.TempDir()
	mpath := filepath.Join(dir, "m.swvm")
	g := model.NewGridModel(model.ScaledTangshan(20000, 20000, 4000), 10, 10, 8, 2200, 2200, 570)
	if err := model.SaveGridModel(mpath, g); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run([]string{"-scenario", "tangshan", "-nx", "24", "-ny", "24", "-nz", "10",
		"-dx", "900", "-steps", "20", "-model", mpath, "-qs", "50"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "using velocity model") {
		t.Fatal("model load not reported")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-scenario", "nope"}, &buf); err == nil {
		t.Fatal("bad scenario accepted")
	}
	if err := run([]string{"-compress", "gzip"}, &buf); err == nil {
		t.Fatal("bad compression accepted")
	}
	if err := run([]string{"-parallel", "zz"}, &buf); err == nil {
		t.Fatal("bad parallel accepted")
	}
	if err := run([]string{"-model", "/does/not/exist"}, &buf); err == nil {
		t.Fatal("missing model accepted")
	}
}

// TestRunRefusesSnapshotsOnRanks: surface snapshots are taken by the serial
// loop, so a parallel run asked for them is refused, naming both flags,
// rather than run without writing any.
func TestRunRefusesSnapshotsOnRanks(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	err := run([]string{"-scenario", "quickstart", "-steps", "20", "-snapshots", "5",
		"-parallel", "2x1", "-out", dir}, &buf)
	if err == nil || !strings.Contains(err.Error(), "-snapshots") || !strings.Contains(err.Error(), "-parallel") {
		t.Fatalf("-snapshots with -parallel: %v; want an error naming both flags", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("refused run wrote %d files", len(entries))
	}
}

// TestRunRefusesRankFlagsWithoutRanks: the fault budget, the step deadline,
// the halo CRC and the overlapped halo exchange act on the ranks of a
// -parallel run alone, so a serial run asked for any of them is refused,
// naming the flag and the one-block grid that has them, before it runs a
// step or writes a file.
func TestRunRefusesRankFlagsWithoutRanks(t *testing.T) {
	for _, flag := range [][]string{{"-fault-retries", "2"}, {"-step-deadline", "1s"}, {"-halo-crc"}, {"-overlap"}} {
		dir := t.TempDir()
		var buf bytes.Buffer
		args := append([]string{"-scenario", "quickstart", "-steps", "20", "-checkpoint-every", "10", "-out", dir}, flag...)
		err := run(args, &buf)
		if err == nil || !strings.Contains(err.Error(), flag[0]) || !strings.Contains(err.Error(), "-parallel 1x1") {
			t.Fatalf("%s without -parallel: %v; want an error naming it and -parallel 1x1", flag[0], err)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Fatalf("%s: refused run wrote %d files", flag[0], len(entries))
		}
	}
}

// TestRunFaultDrillRecovers drives the self-healing engine from the CLI:
// an injected halo corruption under -halo-crc with a -fault-retries budget
// and checkpoints on disk must recover in-run and report the recovery.
func TestRunFaultDrillRecovers(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	var buf bytes.Buffer
	err := run([]string{"-scenario", "quickstart", "-steps", "40",
		"-parallel", "2x1", "-halo-crc", "-fault-retries", "3",
		"-checkpoint-every", "15", "-out", dir,
		"-faults", "halo/corrupt:times=1,skip=80"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fault injection armed") {
		t.Fatalf("arming not reported:\n%s", out)
	}
	if !strings.Contains(out, "engine fault recovered: halo-corrupt") {
		t.Fatalf("recovery not reported:\n%s", out)
	}
	if !strings.Contains(out, "frame checksum mismatch") {
		t.Fatalf("recovery reported without its cause:\n%s", out)
	}
	if !strings.Contains(out, "done in") {
		t.Fatalf("run did not finish:\n%s", out)
	}
}

// TestRunRejectsBadFaultSpec: a typo'd failpoint name fails fast with the
// valid vocabulary instead of silently arming nothing.
func TestRunRejectsBadFaultSpec(t *testing.T) {
	defer faultinject.Reset()
	var buf bytes.Buffer
	err := run([]string{"-scenario", "quickstart", "-steps", "10",
		"-faults", "halo/corupt:times=1"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "unknown failpoint") {
		t.Fatalf("bad fault spec: %v", err)
	}
}

func TestRunTimingFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-scenario", "quickstart", "-steps", "30", "-timing",
		"-checkpoint-every", "10", "-out", t.TempDir()}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"stage", "velocity", "stress", "accounted",
		"row kernels: " + cpu.KernelPath(), "checkpoint lane: 3 dumps written in"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timing table missing %q:\n%s", want, out)
		}
	}
}

// TestResumedRunReportsItsOwnSteps: a run resumed half way reports its rates
// over the steps it ran, not over the whole simulation's — its simulated
// core-group step is the uninterrupted run's, and its point-step rate is
// over its 20 steps, not 40.
func TestResumedRunReportsItsOwnSteps(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-scenario", "tangshan", "-nx", "64", "-ny", "62", "-nz", "24", "-steps", "40", "-sunway"}
	var whole, resumed bytes.Buffer
	if err := run(append(args, "-checkpoint-every", "20", "-out", dir), &whole); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-restart", filepath.Join(dir, "ckpt-00000020.swq")), &resumed); err != nil {
		t.Fatal(err)
	}
	line := func(out, prefix string) string {
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, prefix) {
				return l
			}
		}
		t.Fatalf("no %q line in:\n%s", prefix, out)
		return ""
	}
	const sw = "simulated SW26010 core group:"
	if a, b := line(whole.String(), sw), line(resumed.String(), sw); a != b {
		t.Errorf("resumed run reports\n%s\nuninterrupted\n%s", b, a)
	}
	// "done in X s (R Mpoint-steps/s)": X and R are rounded to 0.01 and 0.1,
	// so the point-steps run lie between the products of their bounds
	var secs, rate float64
	if _, err := fmt.Sscanf(line(resumed.String(), "done in"), "done in %f s (%f Mpoint-steps/s)", &secs, &rate); err != nil {
		t.Fatal(err)
	}
	ran := 64 * 62 * 24 * 20 / 1e6
	if lo, hi := (rate-0.05)*(secs-0.005), (rate+0.05)*(secs+0.005); ran < lo || ran > hi {
		t.Errorf("resumed run: %.1f Mpoint-steps/s over %.2f s is not %.2f Mpoint-steps run", rate, secs, ran)
	}
}
